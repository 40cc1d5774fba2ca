"""The verification-suite registry and report plumbing."""

from inspect import signature

import pytest

from wsys.algebra import MAX_SERIES_ORDER
from wsys.errors import DomainError, InternalError
from wsys.verify import (
    EXPERIMENTS,
    MAX_VERIFY_CHORDS,
    MAX_VERIFY_M,
    MAX_VERIFY_VERTICES,
    SUITES,
    VerifySuiteReport,
    run_suite,
    run_suites,
    suite_names,
)

EXPECTED_SUITES = [
    "tgl-soundness",
    "tfe",
    "tsr",
    "trsc",
    "tis",
    "fourterm-graphs",
    "fourterm-diagrams",
    "pivot-invariance",
    "perm-recurrence",
    "hopf-eps",
    "dmat-axiom",
    "distance-corank",
    "distance-faces",
    "gl11-skewchar",
    "interlace-equivalence",
    "abs04",
    "partial-dual-invariance",
    "casimir-N",
    "positivity-experiment",
]

SMALL = dict(max_m=4, max_chords=2, max_vertices=3, samples=2, seed=11, order=6)


def test_registry_contents():
    assert suite_names() == EXPECTED_SUITES
    assert EXPERIMENTS == {"perm-recurrence", "positivity-experiment"}
    assert EXPERIMENTS <= set(SUITES)


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("no-such-suite")
    # requested names are checked in the order given, before any suite runs
    with pytest.raises(DomainError, match="'zz'"):
        run_suites(["tsr", "zz", "aa"])


def test_every_suite_passes_at_small_bounds():
    for name in EXPECTED_SUITES:
        report = run_suite(name, **SMALL)
        assert report.name == name
        assert report.passed, report.failures
        assert report.instances > 0
        assert report.seconds >= 0


def test_every_suite_reports_at_the_smallest_value_of_each_bound():
    # 0 is the least value of every count bound; each suite takes each of
    # its bounds at 0 with its other bounds at 1, and all of them at 0
    for name, fn in SUITES.items():
        keys = [key for key in signature(fn).parameters if key != "seed"]
        for low in [*keys, None]:
            bounds = {key: 0 if low in (key, None) else 1 for key in keys}
            report = run_suite(name, **bounds)
            assert isinstance(report, VerifySuiteReport) and report.passed, (name, bounds, report.failures)
    # the pinned paths start at one vertex, the pinned cycles at three
    assert [run_suite("interlace-equivalence", max_vertices=v).instances for v in range(3)] == [15, 17, 22]


def test_bounds_are_filtered_by_relevance():
    # a graph suite ignores permutation bounds and vice versa
    r1 = run_suite("dmat-axiom", max_vertices=3, max_m=2, max_chords=1)
    r2 = run_suite("dmat-axiom", max_vertices=3)
    assert r1.instances == r2.instances
    # None bounds fall back to a suite's defaults
    r3 = run_suite("fourterm-diagrams", max_chords=None)
    r4 = run_suite("fourterm-diagrams")
    assert r3.instances == r4.instances


def test_negative_bounds_are_refused_before_any_instance(monkeypatch):
    ran = []

    def suite(max_m: int = 3):
        ran.append(max_m)
        yield True, "instance"

    monkeypatch.setitem(SUITES, "tsr", suite)
    for key in ("max_m", "max_chords", "max_vertices", "samples", "order"):
        with pytest.raises(DomainError, match=f"{key} must be >= 0, got -1"):
            run_suite("tsr", **{key: -1})
        with pytest.raises(DomainError, match=key):
            run_suites(["tsr"], **{key: -2})
        with pytest.raises(DomainError, match=key):
            run_suites(None, **{key: -3})
    assert ran == []
    # zero is a bound like any other, and the seed may be negative
    assert run_suite("tsr", max_m=0, samples=0, order=0, seed=-5).instances == 1
    assert ran == [0]


BUDGETS = {
    "max_m": MAX_VERIFY_M,
    "max_chords": MAX_VERIFY_CHORDS,
    "max_vertices": MAX_VERIFY_VERTICES,
    "order": MAX_SERIES_ORDER,
}


def test_bounds_past_their_budget_are_refused_before_any_instance(monkeypatch):
    assert BUDGETS == {"max_m": 9, "max_chords": 7, "max_vertices": 6, "order": 1000}
    # every suite's default lies inside its budget
    for name, fn in SUITES.items():
        for key, param in signature(fn).parameters.items():
            if key in BUDGETS:
                assert param.default <= BUDGETS[key], (name, key)
    ran = []

    def suite(max_m: int = 3):
        ran.append(max_m)
        yield True, "instance"

    monkeypatch.setitem(SUITES, "tsr", suite)
    for key, budget in BUDGETS.items():
        with pytest.raises(DomainError, match=f"^bound {key} = {budget + 1} exceeds the budget of {budget}$"):
            run_suite("tsr", **{key: budget + 1})
        with pytest.raises(DomainError, match=key):
            run_suites(["tsr"], **{key: 10**12})
        with pytest.raises(DomainError, match=key):
            run_suites(None, **{key: budget + 1})
    assert ran == []
    # a budget is a bound like any other; samples has none
    assert run_suite("tsr", **BUDGETS, samples=10**9).instances == 1
    assert ran == [MAX_VERIFY_M]


def test_run_suites_subset_and_order():
    reports = run_suites(["tsr", "tgl-soundness"], max_m=4)
    # registry order, not request order
    assert [r.name for r in reports] == ["tgl-soundness", "tsr"]
    reports = run_suites(**SMALL)
    assert [r.name for r in reports] == EXPECTED_SUITES


def test_report_lines_and_json():
    report = run_suite("tsr", max_m=3)
    lines = report.lines()
    assert lines[0].startswith("tsr: PASS (")
    payload = report.to_json()
    assert payload["suite"] == "tsr"
    assert payload["passed"] is True
    assert payload["instances"] == report.instances
    assert payload["failures"] == []


def test_failure_reporting_format():
    report = VerifySuiteReport("demo", 3, ["bad-input-1", "bad-input-2"], 0.5, ["hint"])
    assert not report.passed
    lines = report.lines(max_failures=1)
    assert lines[0].startswith("demo: FAIL")
    assert any("bad-input-1" in ln for ln in lines)
    assert not any("bad-input-2" in ln for ln in lines)
    assert any("hint" in ln for ln in lines)
    assert report.to_json()["failures"] == ["bad-input-1", "bad-input-2"]


def test_hopf_eps_reports_failed_cross_check(monkeypatch):
    import wsys.verify

    def disagree(b):
        raise InternalError("projections disagree")

    monkeypatch.setattr(wsys.verify, "eps_independence_check", disagree)
    report = run_suite("hopf-eps", max_chords=2)
    assert not report.passed
    assert len(report.failures) == report.instances
    assert all(f.endswith("@ projections disagree") for f in report.failures)


def test_experiments_report_notes():
    for name in sorted(EXPERIMENTS):
        report = run_suite(name, **SMALL)
        assert report.passed
        assert report.notes


def test_perm_recurrence_finding():
    report = run_suite("perm-recurrence", max_chords=3)
    text = " ".join(report.notes)
    assert "remove-both matched 0/" in text
    assert "delete-same validates" in text


def test_positivity_finding():
    report = run_suite("positivity-experiment", max_m=4, order=8)
    text = " ".join(report.notes)
    assert "fixed point" in text
    assert "nonnegative for every fixed-point-free" in text


def test_failure_labels_and_counts(monkeypatch):
    # each patched suite fails on some instances: the report must count every
    # instance once and print the failing inputs in their reproducible form
    import wsys.verify
    from wsys.algebra import Poly, RatFunc
    from wsys.dmat import DMat

    # the subset-sum route is off by one on the two-point permutations
    feps_direct = wsys.verify.feps_direct

    def off_by_one(p):
        return feps_direct(p) + (Poly.one() if p.m == 2 else Poly.zero())

    monkeypatch.setattr(wsys.verify, "feps_direct", off_by_one)
    report = run_suite("tfe", max_m=2, samples=1, seed=5)
    assert (report.instances, report.failures) == (5, ["1,2", "2,1"])

    # a non-polynomial interlace function fails polynomiality, once per diagram
    monkeypatch.setattr(wsys.verify, "interlace_perm", lambda b: RatFunc.make(Poly.one(), 1))
    report = run_suite("tis", max_chords=2)
    assert (report.instances, report.failures) == (
        4,
        [f"{b} @ polynomiality" for b in ("2,1", "2,1,4,3", "3,4,1,2", "4,3,2,1")],
    )

    # the 4-term check fails at (2, 1) on the graph with an edge
    monkeypatch.setattr(wsys.verify, "graph_4t_check", lambda f, g, a, b: not (g.edges() and a > b))
    report = run_suite("fourterm-graphs", max_vertices=2)
    assert (report.instances, report.failures) == (
        12,
        [
            "n=2; edges=1-2 @ (2,1) skew-char",
            "n=2; edges=1-2 @ (2,1) refined-skew-char",
            "n=2; edges=1-2 @ (2,1) interlace",
        ],
    )

    # every distance read as 0: exactly the subsets of nonzero corank fail
    monkeypatch.setattr(DMat, "distances", property(lambda d: (0,) * (1 << d.ground)))
    report = run_suite("distance-corank", max_vertices=2)
    assert (report.instances, report.failures) == (
        11,
        [
            "n=1; edges= @ U={1}",
            "n=2; edges= @ U={1}",
            "n=2; edges= @ U={2}",
            "n=2; edges= @ U={1,2}",
            "n=2; edges=1-2 @ U={1}",
            "n=2; edges=1-2 @ U={2}",
        ],
    )
