"""Command-line interface: worked examples, exit codes, output formats."""

import json

import pytest

from wsys.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.strip().splitlines()


def test_wgl_worked_example(capsys):
    assert run(["wgl", "--perm", "(1 3 2)"]) == 0
    assert out_of(capsys) == ["C3 + C1^2 - N*C2"]


def test_wgl_one_line_form(capsys):
    assert run(["wgl", "--perm", "2,3,1"]) == 0
    assert out_of(capsys) == ["C3"]


def test_faces(capsys):
    assert run(["faces", "--perm", "(1 3)(2 4)"]) == 0
    assert out_of(capsys) == ["cycles=2 faces=1"]


def test_feps(capsys):
    assert run(["feps", "--perm", "(1 2)"]) == 0
    assert out_of(capsys) == ["N + 2*eps + N*eps^2"]
    assert run(["feps", "--perm", "(1 3)(2 4)", "--in-v"]) == 0
    assert out_of(capsys) == ["1 + 2*N*v + v^2"]
    assert run(["feps", "--perm", "(1 3)(2 4)", "--direct"]) == 0
    assert out_of(capsys)[0].startswith("1 + 4*N*eps")


def test_interlace_graph_example(capsys):
    assert run(["interlace", "--graph", "n=3; edges=1-2,1-3,2-3"]) == 0
    assert out_of(capsys) == ["4 + 4*x"]


def test_interlace_shifted(capsys):
    assert run(["interlace", "--graph", "n=3; edges=1-2,1-3,2-3", "--shifted"]) == 0
    assert out_of(capsys) == ["4*x"]
    # the shift makes no sense for the rational-function form
    assert run(["interlace", "--perm", "(1 3)(2 4)", "--shifted"]) == 2


def test_interlace_perm_and_dmat(capsys):
    assert run(["interlace", "--perm", "(1 4)(2 5)(3 6)"]) == 0
    assert out_of(capsys) == ["4*z^2"]
    assert run(["interlace", "--dmat", "E=2; phi={},{1,2}"]) == 0
    assert out_of(capsys) == ["2 + 2*x"]


def test_skewchar(capsys):
    from wsys.algebra import poly_to_string
    from wsys.graphs import graph_parse
    from wsys.invariants import refined_skew_char_graph

    assert run(["skewchar", "--graph", "n=2; edges=1-2"]) == 0
    assert out_of(capsys) == ["1 + u^2"]
    expected = poly_to_string(refined_skew_char_graph(graph_parse("n=2; edges=1-2")))
    assert run(["skewchar", "--graph", "n=2; edges=1-2", "--refined"]) == 0
    assert out_of(capsys) == [expected]
    # interlaced pair of chords: intersection graph is a single edge
    assert run(["skewchar", "--perm", "(1 3)(2 4)"]) == 0
    assert out_of(capsys) == ["1 + u^2"]


def test_dmat_verbs(capsys):
    assert run(["dmat", "--graph", "n=3; edges=1-2,1-3,2-3"]) == 0
    assert out_of(capsys) == ["E=3; phi={},{1,2},{1,3},{2,3}"]
    assert run(["dmat", "--graph", "n=2; edges=1-2", "--dual", "{1}"]) == 0
    assert out_of(capsys) == ["E=2; phi={1},{2}"]
    assert run(["dmat", "--perm", "(1 3)(2 4)", "--distance", "{1,2}"]) == 0
    assert out_of(capsys) == ["distance=0"]


def test_pivot_worked_example(capsys):
    assert run(
        ["pivot", "--perm", "3,5,6,7,2,8,4,9,1", "--a", "2,5", "--b", "4,7"]
    ) == 0
    assert out_of(capsys) == ["6,5,8,7,2,3,4,9,1"]


def test_pivot_graph(capsys):
    assert run(["pivot", "--graph", "n=2; edges=1-2", "--a", "1", "--b", "2"]) == 0
    assert out_of(capsys) == ["n=2; edges=1-2"]


def test_series_worked_examples(capsys):
    assert run(["series", "--perm", "(1,2,3)", "--order", "7"]) == 0
    lines = out_of(capsys)
    assert lines[-1] == "2z^2+5z^3+7z^4+7z^5+8z^6+9z^7"
    assert run(["series", "--perm", "(1,3,2)", "--order", "7"]) == 0
    assert out_of(capsys)[-1] == "4z^2+5z^3+6z^4+7z^5+8z^6+9z^7"
    assert run(["series", "--perm", "()", "--order", "5"]) == 0
    assert out_of(capsys)[-1] == "1"


def test_series_negative_coefficients(capsys):
    assert run(["series", "--perm", "1", "--order", "3"]) == 0
    assert out_of(capsys)[-1] == "-z"


def test_parse_error_exit_code(capsys):
    assert run(["wgl", "--perm", "1,1,2"]) == 1
    assert run(["wgl", "--perm", "(1 2"]) == 1
    assert run(["dmat", "--dmat", "E=x; phi={}"]) == 1
    # digits outside ASCII pass str.isdigit but are not integers
    assert run(["wgl", "--perm", "²,1"]) == 1
    assert run(["dmat", "--dmat", "E=2; phi={²}"]) == 1
    assert run(["pivot", "--graph", "n=3; edges=1-2", "--a", "²", "--b", "1"]) == 1
    assert run(["interlace", "--graph", "n=²; edges="]) == 1


def test_usage_error_exit_code(capsys):
    # argparse-level problems map onto the parse-error exit code
    assert run([]) == 1
    assert run(["wgl"]) == 1
    assert run(["no-such-verb"]) == 1


def test_domain_error_exit_code(capsys):
    # feps over a cap that the reduction cannot respect
    assert run(["wgl", "--perm", "(1 2 3 4)", "--cap", "3"]) == 2
    # unknown verification suite
    assert run(["verify", "no-such-suite"]) == 2
    # chord-diagram-only form requested for a non-diagram
    assert run(["feps", "--perm", "(1 2 3)", "--in-v"]) == 2


def test_negative_verify_bounds_are_domain_errors(capsys):
    # a negative count bound ends in one domain-error line, before any suite
    # reports anything on stdout
    for argv, key in (
        (["verify", "tgl-soundness", "--max-m", "-1"], "max_m"),
        (["verify", "dmat-axiom", "--max-vertices", "-3"], "max_vertices"),
        (["verify", "tfe", "--max-m", "3", "--samples", "-2"], "samples"),
        (["verify", "fourterm-diagrams", "--max-chords", "-1"], "max_chords"),
        (["verify", "positivity-experiment", "--order", "-4"], "order"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"domain error: bound {key} must be >= 0"), err


def test_verify_bounds_and_series_orders_past_their_budget_are_domain_errors(capsys):
    # refused in one domain-error line before any instance runs or any
    # coefficient list is allocated: --max-m 20 would enumerate 20! permutations
    for argv, line in (
        (["verify", "tgl-soundness", "--max-m", "20"], "bound max_m = 20 exceeds the budget of 9"),
        (["verify", "dmat-axiom", "--max-vertices", "7"], "bound max_vertices = 7 exceeds the budget of 6"),
        (["verify", "trsc", "--max-chords", "8"], "bound max_chords = 8 exceeds the budget of 7"),
        (["verify", "positivity-experiment", "--order", "1001"], "bound order = 1001 exceeds the budget of 1000"),
        (["series", "--perm", "(1 2)", "--order", str(10**15)], f"series order must be in 0..1000, got {10**15}"),
        (["series", "--perm", "(1 2)", "--order", "-1"], "series order must be in 0..1000, got -1"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.strip().splitlines() == [f"domain error: {line}"], argv
    assert run(["series", "--perm", "(1 2)", "--order", "1000"]) == 0
    assert capsys.readouterr().err == ""


def test_negative_cap_is_a_domain_error(capsys):
    assert run(["wgl", "--perm", "2,1", "--cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["domain error: cap must be >= 0, got -1"]


def test_huge_integer_options_are_quoted_shortened(capsys):
    # an integer int() converts but a domain check refuses is quoted with
    # its digits shortened: one short line, exit 2
    nines = "9" * 4000
    for argv, line in (
        (["series", "--perm", "(1 2)", "--order", nines], "series order must be in 0..1000, got 99999...99999 (4000 digits)"),
        (["series", "--perm", "(1 2)", "--order", "-" + nines], "series order must be in 0..1000, got -99999...99999 (4000 digits)"),
        (["verify", "tsr", "--max-m", nines], "bound max_m = 99999...99999 (4000 digits) exceeds the budget of 9"),
        (["verify", "tsr", "--max-m", "-" + nines], "bound max_m must be >= 0, got -99999...99999 (4000 digits)"),
        (["wgl", "--perm", "2,1", "--cap", "-" + nines], "cap must be >= 0, got -99999...99999 (4000 digits)"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.splitlines() == [f"domain error: {line}"], argv
        assert len(captured.err.encode()) < 200, argv
    # a cap past the point budget is legal: the budget applies
    assert run(["wgl", "--perm", "2,1", "--cap", nines]) == 0
    assert out_of(capsys) == ["C2"]


def test_integer_options_are_ascii_digits(capsys):
    # every integer option reads an optional "-" and ASCII digits, as the
    # text parsers do; int() alone would take Arabic-Indic digits,
    # underscores and surrounding blanks.  A run too long for int() is the
    # same one short parse-error line, quoting the value shortened
    huge = "9" * 5000
    for flags in (["wgl", "--perm", "2,1", "--cap"], ["series", "--perm", "(1 2)", "--order"]) + tuple(
        ["verify", "tgl-soundness", option]
        for option in ("--max-m", "--max-chords", "--max-vertices", "--samples", "--seed", "--order")
    ):
        for value, shown in (
            ("١٠", "'١٠'"), ("1_0", "'1_0'"), (" 5 ", "' 5 '"), ("5\n", "'5\\n'"), ("+5", "'+5'"),
            ("-", "'-'"), ("5-", "'5-'"), ("0x1", "'0x1'"), ("²", "'²'"),
            (huge, "'9999999999...9999999999 (5000 characters)'"),
        ):
            assert run([*flags, value]) == 1, (flags, value)
            captured = capsys.readouterr()
            assert captured.out == "", (flags, value)
            err = captured.err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("parse error: argument "), (flags, value, err)
            assert err[0].endswith(f": expected an integer, got {shown}"), (flags, value, err)
    # negative values still reach the domain checks, and leading zeros read
    # as the number
    assert run(["series", "--perm", "(1 2)", "--order", "-0001"]) == 2
    assert capsys.readouterr().err.strip() == "domain error: series order must be in 0..1000, got -1"
    assert run(["wgl", "--perm", "2,1", "--cap", "007"]) == 0
    assert out_of(capsys) == ["C2"]


def test_flags_that_do_not_apply_are_refused(capsys):
    # feps has one route per call: --direct and --in-v together do not parse
    assert run(["feps", "--perm", "(1 3)(2 4)", "--direct", "--in-v"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: "), err
    # the weight-system route of skewchar has no refined form
    assert run(["skewchar", "--perm", "2,1", "--refined"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["domain error: --refined applies to graph or set-system input only"]


def test_wgl_cap_defaults_to_the_engine_cap(capsys, monkeypatch):
    import wsys.cli
    from wsys.glws import DEFAULT_CAP

    over = ",".join(str(i) for i in range(1, DEFAULT_CAP + 2))
    assert run(["wgl", "--perm", over]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"domain error: permutation has {DEFAULT_CAP + 1} points, exceeding the cap {DEFAULT_CAP}"]
    at_cap = ",".join(str(i) for i in range(1, DEFAULT_CAP + 1))
    assert run(["wgl", "--perm", at_cap]) == 0
    assert out_of(capsys) == [f"C1^{DEFAULT_CAP}"]
    # the parser reads the engine's constant when it is built, not a copy
    monkeypatch.setattr(wsys.cli, "DEFAULT_CAP", 4)
    assert run(["wgl", "--perm", "2,3,4,5,1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["domain error: permutation has 5 points, exceeding the cap 4"]


def test_subset_budgets(capsys):
    # exponential subset enumerations refuse more than 20 vertices or points
    diagram21 = "".join(f"({i} {i + 21})" for i in range(1, 22))
    perm21 = ",".join(str(i % 21 + 1) for i in range(1, 22))
    for argv in (
        ["skewchar", "--graph", "n=21; edges=1-2"],
        ["interlace", "--graph", "n=21; edges=1-2"],
        ["dmat", "--perm", diagram21],
        ["feps", "--direct", "--perm", perm21],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("domain error: "), argv


def test_parse_budgets(capsys):
    # a huge point, vertex or element count is refused with one line, before
    # allocation; a huge value in one-line or set-system text is out of range,
    # and so is a huge vertex, pair member or element in an option, whose
    # message quotes the digits typed, shortened
    huge = "9" * 5000
    shown = "999...999 (5000 digits)"
    for argv, code, message in (
        (["wgl", "--perm", "(1 100000000)"], 2, "domain error: a point exceeds the budget of 1000 points"),
        (["faces", "--perm", "1," + huge], 1, f"parse error: not a permutation of 1..2: 1,{shown}"),
        (["pivot", "--graph", "n=100000000; edges=1-2", "--a", "1", "--b", "2"], 2,
         "domain error: n exceeds the budget of 1000 vertices"),
        (["dmat", "--dmat", f"E={huge}; phi={{}}"], 2, "domain error: E exceeds the budget of 1000 elements"),
        (["dmat", "--dmat", "E=1001; phi={}"], 2, "domain error: E exceeds the budget of 1000 elements"),
        (["dmat", "--dmat", f"E=3; phi={{}},{{1,{huge}}}"], 1, f"parse error: element {shown} out of range 1..3"),
        (["dmat", "--dmat", "E=3; phi={},{1}", "--dual", huge], 2, f"domain error: element {shown} out of range 1..3"),
        (["dmat", "--dmat", "E=3; phi={},{1}", "--distance", f"1,{huge}"], 2,
         f"domain error: element {shown} out of range 1..3"),
        (["pivot", "--graph", "n=3; edges=1-2", "--a", "1", "--b", huge], 2,
         f"domain error: vertex {shown} out of range 1..3"),
        (["pivot", "--perm", "(1 3)(2 4)", "--a", "1,3", "--b", f"2,{huge}"], 2,
         f"domain error: (2, {shown}) is not a 2-cycle of the permutation"),
    ):
        assert run(argv) == code, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [message], argv


def test_parse_errors_quote_a_bounded_excerpt(capsys):
    # every parser error that quotes input text shortens it, so a huge
    # malformed input still gets one short line
    junk = "x" * 3000
    nines = "9" * 5000
    for argv in (
        ["faces", "--perm", "1," + junk],
        ["faces", "--perm", f"(1 {junk})"],
        ["faces", "--perm", f"(1 2) {junk}"],
        ["interlace", "--graph", f"n=3 {junk}"],
        ["interlace", "--graph", f"n=3; edges=1-{junk}"],
        ["interlace", "--graph", f"n=3; edges=1-{nines}"],
        ["dmat", "--dmat", f"E=3 {junk}"],
        ["dmat", "--dmat", f"E=3; phi={{}},{{1,{junk}}}"],
        ["dmat", "--dmat", f"E=3; phi={{}},{{{'1,' * 3000}1}}"],
        ["dmat", "--dmat", f"E=3; phi={{}},{{1}},{{{' ' * 3000}1}}"],
        ["dmat", "--dmat", f"E=3; phi={{}},{junk}"],
        ["dmat", "--dmat", "E=3; phi={},{1}", "--dual", junk],
        ["pivot", "--perm", "(1 3)(2 4)", "--a", junk, "--b", "2,4"],
        ["pivot", "--graph", "n=3; edges=1-2", "--a", "1", "--b", junk],
    ):
        assert run(argv) == 1, argv[:2]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("parse error: "), err
        assert len(err[0]) < 200, err[0]


def test_pivot_vertex_out_of_range(capsys):
    # a vertex outside 1..n is a domain error, not an index into the rows
    for graph, a, b, bad in (
        ("n=3; edges=1-2", "7", "1", "7"),
        ("n=3; edges=1-2", "1", "12", "12"),  # longer than n's digits
        ("n=3; edges=1-2", "1", "0012", "12"),
        ("n=3; edges=1-2", "1", "0", "0"),
        ("n=3; edges=1-2", "0", "1", "0"),
        ("n=3; edges=1-3", "0", "1", "0"),
    ):
        assert run(["pivot", "--graph", graph, "--a", a, "--b", b]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"domain error: vertex {bad} out of range 1..3"], (graph, a, b)


def test_wgl_of_the_largest_admitted_identity(capsys):
    # every block is stripped in a loop, not a recursion, and C1's slot holds
    # the largest admitted exponent
    ident = ",".join(str(i) for i in range(1, 1001))
    assert run(["wgl", "--perm", ident, "--cap", "1000"]) == 0
    assert out_of(capsys) == ["C1^1000"]


def test_internal_error_exit_code(capsys, monkeypatch):
    # a failed consistency check is a bug: exit 4 with one line, no traceback
    import wsys.perm

    monkeypatch.setattr(wsys.perm, "face_count", lambda p: 99)
    assert run(["dmat", "--perm", "(1 3)(2 4)"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: ")


def test_verify_single_suite(capsys):
    assert run(["verify", "tsr", "--max-m", "4"]) == 0
    lines = out_of(capsys)
    assert lines[0].startswith("tsr: PASS (")
    assert lines[-1] == "1/1 suites passed"


def test_verify_json(capsys):
    assert run(["verify", "tsr", "casimir-N", "--max-m", "4", "--json"]) == 0
    payload = json.loads("\n".join(out_of(capsys)))
    assert payload["passed"] is True
    assert [r["suite"] for r in payload["reports"]] == ["tsr", "casimir-N"]
    assert all(r["passed"] for r in payload["reports"])


def test_verify_failure_exit_code(monkeypatch, capsys):
    # a failing suite must drive the battery exit code to 3
    import wsys.verify as verify_mod

    def always_fails():
        yield False, "counterexample"

    monkeypatch.setitem(verify_mod.SUITES, "always-fails", always_fails)
    assert run(["verify", "always-fails"]) == 3
    lines = out_of(capsys)
    assert lines[0].startswith("always-fails: FAIL")
    assert lines[-1] == "0/1 suites passed"


def test_verify_determinism(capsys):
    assert run(["verify", "tfe", "--max-m", "3", "--samples", "2", "--seed", "5"]) == 0
    first = out_of(capsys)
    assert run(["verify", "tfe", "--max-m", "3", "--samples", "2", "--seed", "5"]) == 0
    second = out_of(capsys)
    # wall-clock seconds differ between runs; compare everything else
    strip = lambda lines: [ln for ln in lines if not ln.startswith("tfe: PASS")]
    assert strip(first) == strip(second)
    assert first[0].startswith("tfe: PASS (12 instances")


def test_every_suite_bound_is_a_verify_option(monkeypatch):
    # the bounds are the verify options that default to None; every parameter
    # of every registered suite must be one, and the handler must pass it on
    import inspect

    import wsys.cli
    import wsys.verify
    from wsys.verify import SUITES

    defaults = vars(wsys.cli._build_parser().parse_args(["verify"]))
    bounds = sorted(name for name, value in defaults.items() if value is None)
    params = {p for fn in SUITES.values() for p in inspect.signature(fn).parameters}
    assert params <= set(bounds), params - set(bounds)
    seen = {}
    monkeypatch.setattr(wsys.verify, "run_suites", lambda names, **kw: seen.update(kw) or [])
    argv = ["verify"]
    for value, name in enumerate(bounds, start=1):
        argv += [f"--{name.replace('_', '-')}", str(value)]
    assert run(argv) == 0
    assert seen == {name: value for value, name in enumerate(bounds, start=1)}
