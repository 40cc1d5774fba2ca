"""Property-based fuzzing of the text parsers and of every verb but verify:
malformed text ends in ParseError (exit 1), a violated precondition in
DomainError (exit 2), and neither shows a traceback.  Seeded properties
past the exhaustive ranges, at 9 to 11 points: wgl is multiplicative under
concat, and interlace_perm is unchanged by a pivot."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wsys.cli import run  # noqa: E402
from wsys.dmat import dmat_parse  # noqa: E402
from wsys.errors import DomainError, ParseError  # noqa: E402
from wsys.graphs import graph_parse  # noqa: E402
from wsys.glws import interlace_perm, wgl  # noqa: E402
from wsys.perm import Perm, concat, interlacing_two_cycle_pairs, perm_parse, perm_pivot  # noqa: E402

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The properties at 9 to 11 points, where each example costs milliseconds.
PROPERTIES = settings(FUZZ, max_examples=100)

# Permutation, graph and set-system text and the CLI's element, vertex and
# pair options also draw numbers past their parse budgets (MAX_POINTS,
# MAX_VERTICES), up to a digit run longer than int() converts.
NUMBER = st.integers(0, 999).map(str)
HUGE = st.one_of(st.integers(1000, 10**12).map(str), st.just("9" * 5000))
WIDE = st.one_of(NUMBER, HUGE)
# Through the command line, sizes from 13 to 20 are within the subset budget
# but cost seconds per call; 0-12 and 21-999 cover both sides of the budget.
CLI_NUMBER = st.one_of(st.integers(0, 12), st.integers(21, 999)).map(str)
CLI_WIDE = st.one_of(CLI_NUMBER, HUGE)
SMALL = st.integers(1, 8).map(str)  # in range for the well-formed texts below
PUNCT = st.sampled_from(
    [",", " ", "-", "(", ")", "{", "}", ";", "=", "n", "E", "edges", "phi", "x", "²", "\t"]
)


def token_text(number):
    return st.lists(st.one_of(number, PUNCT), max_size=10).map("".join)


def _diagram(points: list[int]) -> str:
    return "".join(f"({a} {b})" for a, b in zip(points[0::2], points[1::2]))


def perm_text(number):
    cycle = st.lists(number, min_size=1, max_size=4).map(lambda pts: "(" + " ".join(pts) + ")")
    one_line = st.integers(0, 8).flatmap(lambda m: st.permutations(range(1, m + 1)))
    diagram = st.integers(0, 4).flatmap(lambda k: st.permutations(range(1, 2 * k + 1)))
    return st.one_of(
        token_text(number),
        st.lists(number, max_size=8).map(",".join),
        st.lists(cycle, max_size=3).map("".join),
        one_line.map(lambda img: ",".join(map(str, img))),
        diagram.map(_diagram),
    )


def graph_text(number):
    edge = st.tuples(st.one_of(number, SMALL), st.one_of(number, SMALL)).map("-".join)
    body = st.lists(st.one_of(edge, token_text(number)), max_size=5).map(",".join)
    return st.one_of(
        token_text(number), st.builds("n={}; edges={}".format, st.one_of(number, SMALL), body)
    )


def dmat_text(number):
    members = st.lists(st.one_of(number, SMALL), max_size=3)
    block = members.map(lambda pts: "{" + ",".join(pts) + "}")
    body = st.lists(st.one_of(block, token_text(number)), max_size=4).map(",".join)
    return st.one_of(
        token_text(number), st.builds("E={}; phi={}".format, st.one_of(number, SMALL), body)
    )


@FUZZ
@given(perm_text(WIDE), graph_text(WIDE), dmat_text(WIDE))
def test_parsers_raise_only_typed_errors(ptext, gtext, dtext):
    for parse, text in ((perm_parse, ptext), (graph_parse, gtext), (dmat_parse, dtext)):
        try:
            parse(text)
        except (ParseError, DomainError):
            pass


def flag(*flags):
    return st.sampled_from([[]] + [[f] for f in flags])


def _argv():
    perm, graph, dmat = perm_text(CLI_WIDE), graph_text(CLI_WIDE), dmat_text(CLI_WIDE)
    text = st.one_of(token_text(CLI_WIDE), st.lists(st.one_of(SMALL, HUGE), max_size=3).map(",".join))
    return st.one_of(
        st.builds(lambda p: ["wgl", "--perm", p], perm),
        st.builds(lambda p: ["faces", "--perm", p], perm),
        st.builds(lambda p, f: ["feps", "--perm", p, *f], perm, flag("--direct", "--in-v")),
        st.builds(
            lambda src, f: ["interlace", *src, *f],
            st.one_of(
                st.tuples(st.just("--perm"), perm),
                st.tuples(st.just("--graph"), graph),
                st.tuples(st.just("--dmat"), dmat),
            ),
            flag("--shifted"),
        ),
        st.builds(
            lambda src, f: ["skewchar", *src, *f],
            st.one_of(
                st.tuples(st.just("--graph"), graph),
                st.tuples(st.just("--dmat"), dmat),
                st.tuples(st.just("--perm"), perm),
            ),
            flag("--refined"),
        ),
        st.builds(
            lambda src, dual, dist: ["dmat", *src, *dual, *dist],
            st.one_of(
                st.tuples(st.just("--graph"), graph),
                st.tuples(st.just("--perm"), perm),
                st.tuples(st.just("--dmat"), dmat),
            ),
            st.one_of(st.just([]), text.map(lambda t: ["--dual", t])),
            st.one_of(st.just([]), text.map(lambda t: ["--distance", t])),
        ),
        st.builds(lambda p, a, b: ["pivot", "--perm", p, "--a", a, "--b", b], perm, text, text),
        st.builds(lambda g, a, b: ["pivot", "--graph", g, "--a", a, "--b", b], graph, text, text),
        st.builds(
            lambda p, k: ["series", "--perm", p, "--order", str(k)], perm, st.integers(-3, 40)
        ),
    )


@FUZZ
@given(_argv())
def test_cli_exit_codes_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], argv
    else:
        prefix = {1: "parse error: ", 2: "domain error: "}.get(code)
        assert prefix is not None, (argv, code, lines)
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, lines)


def _factors(m: int):
    """Images of a and b with a.m + b.m = m, both nonempty."""
    return st.integers(1, m - 1).flatmap(
        lambda k: st.tuples(st.permutations(range(1, k + 1)), st.permutations(range(1, m - k + 1)))
    )


@PROPERTIES
@given(st.integers(9, 11).flatmap(_factors))
def test_wgl_is_multiplicative_under_concat_at_9_to_11_points(images):
    a, b = map(Perm, map(tuple, images))
    assert wgl(concat(a, b), cap=a.m + b.m) == wgl(a) * wgl(b)


def _interlaced(m: int):
    """A shuffle of 1..m, whose first four points carry the interlacing
    2-cycles, and the images of the other m - 4 points among themselves."""
    return st.tuples(st.permutations(range(1, m + 1)), st.permutations(range(m - 4)))


@PROPERTIES
@given(st.integers(9, 11).flatmap(_interlaced))
def test_pivot_keeps_interlace_perm_at_9_to_11_points(drawn):
    points, shuffle = drawn
    a1, b1, a2, b2 = sorted(points[:4])  # (a1 a2) and (b1 b2) cross
    others = sorted(points[4:])
    img = {x: others[i] for x, i in zip(others, shuffle)} | {a1: a2, a2: a1, b1: b2, b2: b1}
    p = Perm(tuple(img[x] for x in range(1, len(points) + 1)))
    a, b = (a1, a2), (b1, b2)
    assert (a, b) in interlacing_two_cycle_pairs(p)
    assert interlace_perm(perm_pivot(p, a, b), cap=p.m) == interlace_perm(p, cap=p.m)
