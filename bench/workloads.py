"""The four workloads: inputs made from a seed, one pipeline per input,
and checks of every output against bench/oracles.py or an identity of
the paper.

Each workload is a ``Workload`` of three functions:

* ``setup(seed, tracer)`` builds the inputs (spans ``perm.enumerate`` and
  ``graphs.build`` cover the calls into wsys it makes);
* ``run(x, api, counts)`` sends one input through the pipeline, calling
  wsys only through ``api`` so that a traced run records a span per call,
  and returns the outputs; it raises ``OperationFailed`` when an
  operation does not end as it should;
* ``check(inputs, outputs, seed)`` returns a list of failure messages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from random import Random
from types import SimpleNamespace
from typing import Callable

import oracles as orc
import wsys
from wsys import algebra, dmat, glws, hopf, invariants, verify


class OperationFailed(Exception):
    """An operation that did not end as the benchmark expects."""


@dataclass
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def bind(tracer) -> SimpleNamespace:
    """The wsys entry points the pipelines call, traced or not."""
    entries = {
        "wgl": (glws, "wgl"),
        "feps": (glws, "feps"),
        "interlace_perm": (glws, "interlace_perm"),
        "gl11_skewchar": (glws, "gl11_skewchar"),
        "primitive_eval_diagram": (hopf, "primitive_eval_diagram"),
        "dmat_from_graph": (dmat, "dmat_from_graph"),
        "skew_char": (invariants, "skew_char"),
        "refined_skew_char_graph": (invariants, "refined_skew_char_graph"),
        "interlace_dmat": (invariants, "interlace_dmat"),
        "two_var_interlace": (invariants, "two_var_interlace"),
        "interlace_graph_recursive": (invariants, "interlace_graph_recursive"),
    }
    api = {
        name: tracer.wrap(f"{module.__name__.split('.')[-1]}.{name}", getattr(module, attr))
        for name, (module, attr) in entries.items()
    }
    api["series"] = tracer.wrap("algebra.series", algebra.RatFunc.series)
    return SimpleNamespace(span=tracer.span, env=cli_env(), **api)


def _mono(**exps) -> frozenset:
    return frozenset((var, e) for var, e in exps.items() if e)


def _rational(rng: Random, avoid=()) -> Fraction:
    while True:
        value = Fraction(rng.choice([-7, -5, -3, -2, 2, 3, 5, 7]), rng.choice([1, 2, 3, 5]))
        if value not in avoid:
            return value


def collapse(terms, weight: Callable[[str], int]) -> dict[int, Fraction]:
    """Specialize every variable v to N^weight(v): {N exponent: coefficient}."""
    out: dict[int, Fraction] = {}
    for mono, coef in terms.items():
        e = sum(weight(var) * k for var, k in mono)
        out[e] = out.get(e, 0) + coef
    return {e: c for e, c in out.items() if c}


def _standard_weight(var: str) -> int:  # C_k -> N^(k-1)
    return 1 if var == "N" else int(var[1:]) - 1


def _cycle_weight(var: str) -> int:  # C_k -> N
    return 1


def check_wgl_collapses(img, terms) -> list[str]:
    """C_k -> N^(k-1) gives N^(f-1), and C_k -> N gives N^c."""
    out = []
    if collapse(terms, _standard_weight) != {orc.face_count(img) - 1: 1}:
        out.append("C_k -> N^(k-1) is not N^(f-1)")
    if collapse(terms, _cycle_weight) != {orc.cycle_count(img): 1}:
        out.append("C_k -> N is not N^c")
    return out


def casimir_values(n0: Fraction, e0: Fraction, m: int) -> dict[str, Fraction]:
    """N = n0 and C_k = ((N + eps)^k - (1 - N^2) eps^k) / N at eps = e0."""
    values = {"N": n0}
    for k in range(1, m + 1):
        values[f"C{k}"] = ((n0 + e0) ** k - (1 - n0 * n0) * e0**k) / n0
    return values


def _histogram_poly(n, rows, mono_of) -> dict:
    out: dict = {}
    for (size, corank), count in orc.corank_histogram(n, rows).items():
        mono = mono_of(size, corank)
        if mono is not None:
            out[mono] = out.get(mono, 0) + count
    return out


def digest_text(outputs) -> str:
    """Canonical text of a round's outputs, for comparing rounds."""
    return "\n".join(map(str, outputs))


# -- family ----------------------------------------------------------------------

# The 105 diagrams (25-60 ms each) are about a tenth of the inputs; 240 permutations at m = 7
# (12-21 ms) put the 90th percentile among them, not in the gap below the diagrams.
FAMILY_M7_SAMPLE = 240
FAMILY_SERIES_ORDER = 12
FAMILY_SUBSET_SUM_EVERY = 10  # every tenth permutation input is also checked by subset sum


def family_setup(seed: int, tracer) -> list:
    rng = Random(seed)
    with tracer.span("perm.enumerate"):
        perms = [p for m in range(7) for p in wsys.all_perms(m)]
        sample: set[tuple[int, ...]] = set()
        while len(sample) < FAMILY_M7_SAMPLE:
            img = list(range(1, 8))
            rng.shuffle(img)
            sample.add(tuple(img))
        perms += [wsys.Perm(img) for img in sorted(sample)]
        diagrams = list(wsys.all_chord_diagrams(4))
    return [("perm", p) for p in perms] + [("diagram", b) for b in diagrams]


def family_run(x, api, counts):
    kind, p = x
    if kind == "diagram":
        return api.primitive_eval_diagram(api.feps, p)
    w = api.wgl(p)
    f = api.feps(p)
    rf = api.interlace_perm(p)
    series = api.series(rf, FAMILY_SERIES_ORDER)
    return w, f, rf, series, api.gl11_skewchar(p)


def check_family_perm(img, outputs, rng: Random, subset_sum: bool) -> list[str]:
    w, f, rf, series, g = outputs
    m = len(img)
    out = []
    by_eps: dict[int, Fraction] = {}
    at_eps0: dict = {}
    for mono, coef in f.terms.items():
        exps = dict(mono)
        by_eps[exps.get("eps", 0)] = by_eps.get(exps.get("eps", 0), 0) + coef
        if "eps" not in exps:
            at_eps0[mono] = coef
    if {b: c for b, c in by_eps.items() if c} != {b: comb(m, b) for b in range(m + 1)}:
        out.append("feps at N = 1 is not (1+eps)^m")
    f_count = orc.face_count(img)
    if orc.normalize(at_eps0) != {_mono(N=f_count - 1): 1}:
        out.append("feps at eps = 0 is not N^(f-1)")
    n0, e0 = _rational(rng, avoid=(0,)), _rational(rng)
    if orc.evaluate(f.terms, {"N": n0, "eps": e0}) != orc.evaluate(w.terms, casimir_values(n0, e0, m)):
        out.append(f"feps differs from wgl with the C_k binding at N={n0}, eps={e0}")
    if subset_sum:
        expected = {_mono(N=a, eps=b): c for (a, b), c in orc.feps_subset_sum(img).items()}
        if orc.normalize(f.terms) != expected:
            out.append("feps differs from the subset sum")
    z0 = _rational(rng, avoid=(1,))
    lhs = orc.evaluate(rf.num.terms, {"z": z0}) / (1 - z0) ** rf.dpow
    if lhs != orc.evaluate(f.terms, {"N": z0 * z0 - 1, "eps": 1 / (1 - z0)}):
        out.append(f"interlace_perm differs from feps at z={z0}")
    if orc.is_chord_diagram(img) and (
        rf.dpow or any(e % 2 for mono in rf.num.terms for _, e in mono)
    ):
        out.append("interlace_perm of a chord diagram is not an even polynomial")
    num = [0] * (FAMILY_SERIES_ORDER + 1)
    for mono, coef in rf.num.terms.items():
        e = dict(mono).get("z", 0)
        if e <= FAMILY_SERIES_ORDER:
            num[e] = coef
    if orc.series_times_denominator(list(series), rf.dpow) != num:
        out.append("series times (1-z)^d is not the numerator")
    u0 = _rational(rng)
    gl_values = {"N": Fraction(0)}
    gl_values.update({f"C{k}": k * (u0 / 2) ** (k - 1) for k in range(1, m + 1)})
    if orc.evaluate(g.terms, {"u": u0}) != orc.evaluate(w.terms, gl_values):
        out.append(f"gl11_skewchar differs from wgl at N=0, C_k=k(u/2)^(k-1), u={u0}")
    return out


def check_family_diagram(img, h) -> list[str]:
    out = []
    if any(var == "eps" for mono in h.terms for var, _ in mono):
        out.append("Hopf projection of feps depends on eps")
    if not orc.connected(*orc.crossing_graph(img)) and h.terms:
        out.append("Hopf projection is nonzero on a disconnected diagram")
    return out


def family_check(inputs, outputs, seed: int) -> list[str]:
    rng = Random(f"family-check:{seed}")
    failures = []
    perm_index = 0
    for (kind, p), result in zip(inputs, outputs):
        if result is None:
            continue
        if kind == "diagram":
            msgs = check_family_diagram(p.img, result)
        else:
            msgs = check_family_perm(
                p.img, result, rng, perm_index % FAMILY_SUBSET_SUM_EVERY == 0 or p.m == 7
            )
            perm_index += 1
        failures += [f"{kind} {p.img}: {msg}" for msg in msgs]
    return failures


# -- recurrence ----------------------------------------------------------------

RECURRENCE_CAP = 12
RECURRENCE_RANDOM = ((8, 600), (9, 200), (10, 40))  # (points, how many)
RECURRENCE_CROSSINGS = range(2, 7)  # k chords, all interlaced: 4..12 points
RECURRENCE_CONCATS = ((5, 5), (5, 6), (6, 6))  # part sizes, four inputs each


def _random_img(rng: Random, m: int) -> tuple[int, ...]:
    img = list(range(1, m + 1))
    rng.shuffle(img)
    return tuple(img)


def recurrence_setup(seed: int, tracer) -> list:
    rng = Random(seed)
    with tracer.span("perm.enumerate"):
        inputs = [("random", wsys.Perm(_random_img(rng, m)), ()) for m, n in RECURRENCE_RANDOM for _ in range(n)]
        inputs += [("crossing", wsys.Perm(orc.full_crossing(k)), ()) for k in RECURRENCE_CROSSINGS]
        for a, b in RECURRENCE_CONCATS:
            for _ in range(4):
                parts = (wsys.Perm(_random_img(rng, a)), wsys.Perm(_random_img(rng, b)))
                inputs.append(("concat", wsys.concat(*parts), parts))
    return inputs


def recurrence_run(x, api, counts):
    _, p, _ = x
    memo: dict = {}
    w = api.wgl(p, cap=RECURRENCE_CAP, memo=memo)
    counts["glws.wgl.states"] += len(memo)
    return w


def recurrence_check(inputs, outputs, seed: int) -> list[str]:
    rng = Random(f"recurrence-check:{seed}")
    failures = []
    for (kind, p, parts), w in zip(inputs, outputs):
        if w is None:
            continue
        msgs = check_wgl_collapses(p.img, w.terms)
        if parts:
            values = {"N": _rational(rng)}
            values.update({f"C{k}": _rational(rng) for k in range(1, p.m + 1)})
            product = Fraction(1)
            for part in parts:
                product *= orc.evaluate(glws.wgl(part, memo={}).terms, values)
            if orc.evaluate(w.terms, values) != product:
                msgs.append("wgl of a concatenation is not the product of the parts")
        failures += [f"{kind} {p.img}: {msg}" for msg in msgs]
    return failures


# -- subsets -------------------------------------------------------------------

SUBSET_SIZES = ((8, 30), (9, 36), (10, 30), (11, 4), (12, 2))  # (vertices, how many)
SUBSET_DENSITIES = (0.4, 0.6, 0.8)


def subsets_setup(seed: int, tracer) -> list:
    rng = Random(seed)
    inputs = []
    with tracer.span("graphs.build"):
        for n, count in SUBSET_SIZES:
            for i in range(count):
                n, rows = orc.random_graph(rng, n, SUBSET_DENSITIES[i % len(SUBSET_DENSITIES)])
                inputs.append((n, rows, wsys.Graph.from_edges(n, orc.edges(n, rows))))
    return inputs


def subsets_run(x, api, counts):
    _, _, g = x
    d = api.dmat_from_graph(g)
    counts["dmat.phi_sets"] += len(d.phi)
    counts["invariants.subset_masks"] += 4 << g.n  # the four subset sums below
    return (
        d,
        api.skew_char(g),
        api.refined_skew_char_graph(g),
        api.interlace_dmat(d),
        api.two_var_interlace(d),
        api.interlace_graph_recursive(g),
    )


def check_subsets_graph(n, rows, outputs, dual_mask: int) -> list[str]:
    d, skew, refined, interlace, two_var, recursive = outputs
    sums = (  # name, output, monomial of a subset of size s and corank c (None: left out)
        ("skew_char", skew, lambda s, c: None if c else _mono(u=n - s)),
        ("refined_skew_char_graph", refined, lambda s, c: _mono(u=n - s, w=c)),
        ("interlace_dmat", interlace, lambda s, c: _mono(x=c)),
        ("two_var_interlace", two_var, lambda s, c: _mono(x=s, y=c)),
    )
    out = [] if d.phi == orc.nondegenerate_masks(n, rows) else ["dmat_from_graph differs from the nondegenerate subsets"]
    for name, poly, mono_of in sums:
        if orc.normalize(poly.terms) != _histogram_poly(n, rows, mono_of):
            out.append(f"{name} differs from the corank histogram")
        if name != "skew_char" and sum(poly.terms.values()) != 1 << n:
            out.append(f"coefficients of {name} do not sum to 2^n")
    if orc.normalize(recursive.terms) != orc.normalize(interlace.terms):
        out.append("interlace_dmat differs from interlace_graph_recursive")
    if sum(skew.terms.values()) != len(d.phi):
        out.append("skew_char at u = 1 is not |phi|")
    dual = invariants.interlace_dmat(dmat.partial_dual(d, dual_mask))
    if orc.normalize(dual.terms) != orc.normalize(interlace.terms):
        out.append(f"interlace_dmat changes under the partial dual {dual_mask:#x}")
    return out


def subsets_check(inputs, outputs, seed: int) -> list[str]:
    rng = Random(f"subsets-check:{seed}")
    failures = []
    for (n, rows, _), result in zip(inputs, outputs):
        mask = rng.randrange(1 << n)
        if result is not None:
            failures += [f"graph {orc.graph_text(n, rows)}: {msg}" for msg in check_subsets_graph(n, rows, result, mask)]
    return failures


# -- cli -------------------------------------------------------------------------

# Reduced bounds per suite, and the instance count the bounds predict.
_F, _D, _G = orc.factorial_sum, orc.double_factorial, orc.graph_count
SUITE_BOUNDS = {
    # one instance per permutation and position l = 1 .. m-1
    "tgl-soundness": ({"max-m": 5}, sum(factorial(m) * (m - 1) for m in range(1, 6))),
    "tfe": ({"max-m": 5, "samples": 5}, _F(5) + 5),
    "tsr": ({"max-m": 5}, _F(5)),
    "trsc": ({"max-chords": 3}, sum(_D(n) for n in range(1, 4))),
    "tis": ({"max-chords": 3}, sum(_D(n) for n in range(1, 4))),
    "fourterm-graphs": ({"max-vertices": 4}, sum(_G(n) * n * (n - 1) * 3 for n in range(5))),
    # one per diagram and end e whose chord does not join e to e+1: (2n-3)!! diagrams do
    "fourterm-diagrams": ({"max-chords": 3}, sum(2 * n * (_D(n) - _D(n - 1)) for n in range(1, 4))),
    # pairs of interlacing 2-cycles, by enumeration
    "pivot-invariance": ({"max-m": 5}, orc.interlacing_pair_count(5)),
    # ordered pairs of interlacing chords: a given pair interlaces in a third of all diagrams
    "perm-recurrence": ({"max-chords": 3}, sum(2 * comb(n, 2) * _D(n) // 3 for n in range(2, 4))),
    "hopf-eps": ({"max-chords": 3}, sum(_D(n) for n in range(2, 4))),
    "dmat-axiom": ({"max-vertices": 4}, sum(_G(n) for n in range(5))),
    "distance-corank": ({"max-vertices": 4}, sum(_G(n) << n for n in range(5))),
    "distance-faces": ({"max-chords": 3}, sum(_D(n) << n for n in range(1, 4))),
    "gl11-skewchar": ({"max-chords": 3}, sum(_D(n) for n in range(1, 4))),
    # three per graph, the diamond and K3, and paths and cycles at n = 5, 6
    "interlace-equivalence": ({"max-vertices": 4}, 3 * sum(_G(n) for n in range(5)) + 2 + 2 * 2),
    "abs04": ({"max-vertices": 4}, sum(_G(n) * (n + 1) for n in range(5))),
    "partial-dual-invariance": ({"max-vertices": 4}, sum(_G(n) << n for n in range(5))),
    "casimir-N": ({"max-m": 5}, _F(5)),
    "positivity-experiment": ({"max-m": 4, "order": 8}, _F(4)),
}
SEEDED_SUITES = {"tfe", "interlace-equivalence", "partial-dual-invariance"}

# Malformed text that must end in exit 1 with one "parse error:" line.
MALFORMED = (
    ("wgl", ["wgl", "--perm", "²,1"]),
    ("dmat", ["dmat", "--dmat", "E=2; phi={²}"]),
    ("pivot", ["pivot", "--graph", "n=3; edges=1-2", "--a", "²", "--b", "1"]),
)


def _one_line(img) -> str:
    return ",".join(map(str, img))


def _random_diagram(rng: Random, chords: int) -> tuple[int, ...]:
    points = list(range(1, 2 * chords + 1))
    rng.shuffle(points)
    img = [0] * (2 * chords)
    for a, b in zip(points[0::2], points[1::2]):
        img[a - 1], img[b - 1] = b, a
    return tuple(img)


def suite_argv(suite: str, seed: int) -> list[str]:
    flags, _ = SUITE_BOUNDS[suite]
    argv = ["verify", suite]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    if suite in SEEDED_SUITES:
        argv += ["--seed", str(seed)]
    return argv + ["--json"]


def cli_setup(seed: int, tracer) -> list:
    """(verb, argv, expected exit code, data for the checks) per process."""
    rng = Random(seed)
    p1, p2, p3 = _random_img(rng, 6), _random_img(rng, 6), _random_img(rng, 5)
    n, rows = 0, ()
    while not orc.edges(n, rows):
        n, rows = orc.random_graph(rng, 6, 0.5)
    a, b = rng.choice(orc.edges(n, rows))
    diagram = _random_diagram(rng, 4)
    while not orc.two_cycle_crossings(diagram):
        diagram = _random_diagram(rng, 4)
    chords = [(i, diagram[i - 1]) for i in range(1, 9) if i < diagram[i - 1]]
    x, y = rng.choice([(c, d) for c in chords for d in chords if c[0] < d[0] < c[1] < d[1]])
    gtext = orc.graph_text(n, rows)
    graph = (n, rows)
    return [
        ("wgl", ["wgl", "--perm", _one_line(p1)], 0, p1),
        ("faces", ["faces", "--perm", _one_line(p1)], 0, p1),
        ("feps", ["feps", "--perm", _one_line(p2)], 0, p2),
        ("feps", ["feps", "--direct", "--perm", _one_line(p2)], 0, p2),
        ("interlace", ["interlace", "--graph", gtext], 0, graph),
        ("interlace", ["interlace", "--dmat", orc.dmat_text(n, rows)], 0, graph),
        ("skewchar", ["skewchar", "--perm", _one_line(diagram)], 0, diagram),
        ("skewchar", ["skewchar", "--graph", orc.graph_text(*orc.crossing_graph(diagram))], 0, diagram),
        ("dmat", ["dmat", "--graph", gtext], 0, graph),
        ("pivot", ["pivot", "--perm", _one_line(diagram), "--a", _one_line(x), "--b", _one_line(y)], 0, diagram),
        ("pivot", ["pivot", "--graph", gtext, "--a", str(a), "--b", str(b)], 0, (n, rows, a, b)),
        ("series", ["series", "--perm", _one_line(p3), "--order", "7"], 0, p3),
    ] + [
        ("verify", suite_argv(suite, seed), 0, suite) for suite in SUITE_BOUNDS
    ] + [(verb, argv, 1, None) for verb, argv in MALFORMED]


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def process_failure(verb: str, expected_code: int, code: int, stderr: str) -> str | None:
    """Why a wsys process did not end as expected, or None if it did.
    Malformed text must end in exit 1 with a single "parse error:" line."""
    if code != expected_code:
        return f"wsys {verb} exited {code}: {stderr.strip()[-200:]}"
    lines = stderr.strip().splitlines()
    if expected_code == 1 and (len(lines) != 1 or not lines[0].startswith("parse error:")):
        return f"wsys {verb} did not end with one parse error line"
    return None


def cli_run(x, api, counts):
    verb, argv, expected_code, _ = x
    with api.span(f"cli.{verb}"):
        proc = subprocess.run(
            [sys.executable, "-m", "wsys.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=api.env,
        )
    problem = process_failure(verb, expected_code, proc.returncode, proc.stderr)
    if problem:
        raise OperationFailed(problem)
    if verb == "verify":  # the report minus its wall time, which differs between rounds
        payload = json.loads(proc.stdout)
        for report in payload["reports"]:
            del report["seconds"]
        return payload
    return proc.stdout


def check_cli_process(item, output) -> list[str]:
    """Check one process's output: its stdout, or for verify its report."""
    verb, argv, _, data = item
    if verb == "verify":
        return check_suite_report(data, output)
    text = output.strip()
    if verb == "wgl":
        return check_wgl_collapses(data, orc.parse_poly(text))
    if verb == "faces":
        if text != f"cycles={orc.cycle_count(data)} faces={orc.face_count(data)}":
            return ["cycle and face counts differ from the oracle"]
        return []
    if verb == "feps":
        expected = {_mono(N=a, eps=b): c for (a, b), c in orc.feps_subset_sum(data).items()}
        return [] if orc.normalize(orc.parse_poly(text)) == expected else ["feps differs from the subset sum"]
    if verb == "interlace":
        expected = _histogram_poly(*data, lambda size, corank: _mono(x=corank))
        return [] if orc.normalize(orc.parse_poly(text)) == expected else ["interlace differs from the corank histogram"]
    if verb == "skewchar":
        n, rows = orc.crossing_graph(data)
        expected = _histogram_poly(n, rows, lambda size, corank: None if corank else _mono(u=n - size))
        return [] if orc.normalize(orc.parse_poly(text)) == expected else ["skewchar differs from the corank histogram"]
    if verb == "dmat":
        return [] if text == orc.dmat_text(*data) else ["set system differs from the nondegenerate subsets"]
    if verb == "pivot" and "--perm" in argv:
        pivoted = tuple(int(v) for v in text.split(","))
        if not orc.is_chord_diagram(pivoted):
            return ["pivot of a chord diagram is not a chord diagram"]
        before, after = (
            _histogram_poly(*orc.crossing_graph(img), lambda size, corank: corank) for img in (data, pivoted)
        )
        return [] if before == after else ["pivoted diagram changes the interlace polynomial"]
    if verb == "pivot":
        n, rows, a, b = data
        return [] if text == orc.graph_text(n, orc.pivot(n, rows, a, b)) else ["graph pivot differs from the definition"]
    if verb == "series":
        lines = text.splitlines()
        num_terms, dpow = orc.parse_ratfunc(lines[0])
        series = orc.parse_series(lines[1], 7)
        out = []
        if series != orc.interlace_series(orc.feps_subset_sum(data), 7):
            out.append("series differs from the subset-sum family at N = z^2-1, eps = 1/(1-z)")
        num = [Fraction(0)] * 8
        for mono, coef in num_terms.items():
            e = dict(mono).get("z", 0)
            if e < 8:
                num[e] = coef
        if orc.series_times_denominator(series, dpow) != num:
            out.append("series times (1-z)^d is not the numerator")
        return out
    return []


def check_suite_report(suite: str, payload: dict) -> list[str]:
    flags, count = SUITE_BOUNDS[suite]
    (report,) = payload["reports"]
    out = []
    if not payload["passed"] or not report["passed"]:
        out.append("suite did not pass")
    if report["instances"] != count:
        out.append(f"{report['instances']} instances, the bounds predict {count}")
    notes = " | ".join(report["notes"])
    if suite == "perm-recurrence" and "delete-same validates" not in notes:
        out.append("the delete-same reading does not validate")
    if suite == "positivity-experiment":
        if f"all coefficients nonnegative for every fixed-point-free permutation with m <= {flags['max-m']}" not in notes:
            out.append("a fixed-point-free permutation has a negative coefficient")
        if "with a fixed point" not in notes:
            out.append("no negative coefficient reported for fixed points")
    return out


def cli_check(inputs, outputs, seed: int) -> list[str]:
    failures = []
    paired: dict[str, set[str]] = {"feps": set(), "interlace": set(), "skewchar": set()}
    for item, output in zip(inputs, outputs):
        if output is None or item[2] != 0:
            continue
        if item[0] in paired:
            paired[item[0]].add(output)
        failures += [f"wsys {' '.join(item[1][:2])}: {msg}" for msg in check_cli_process(item, output)]
    for verb, stdouts in paired.items():
        if len(stdouts) != 1:
            failures.append(f"wsys {verb}: the two routes disagree")
    return failures


WORKLOADS = {
    "family": Workload(family_setup, family_run, family_check),
    "recurrence": Workload(recurrence_setup, recurrence_run, recurrence_check),
    "subsets": Workload(subsets_setup, subsets_run, subsets_check),
    "cli": Workload(cli_setup, cli_run, cli_check),
}


def run_suites_in_process(tracer, seed: int) -> None:
    """Every suite at the cli workload's bounds, in this process, each in a
    span: the traced cli round adds these after its timed phase."""
    for suite, (flags, _) in SUITE_BOUNDS.items():
        bounds = {flag.replace("-", "_"): value for flag, value in flags.items()}
        if suite in SEEDED_SUITES:
            bounds["seed"] = seed
        with tracer.span(f"verify.{suite}"):
            verify.run_suite(suite, **bounds)
