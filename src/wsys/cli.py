"""Command-line front end.

Subcommands: wgl, faces, feps, interlace, skewchar, dmat, pivot, series,
verify.  Polynomials print in the canonical text form of
:func:`wsys.algebra.poly_to_string`; all output is deterministic.

Exit codes: 0 success, 1 malformed input text, 2 precondition violation
on well-formed input, 3 verification suite failure, 4 internal
consistency check failure (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from .errors import DomainError, InternalError, ParseError, bounded_uint, is_uint, shorten, shorten_int
from .graphs import graph_format, graph_parse, graph_pivot
from .perm import DEFAULT_CAP, cycle_count, face_count, perm_format, perm_parse, perm_pivot

if TYPE_CHECKING:
    from fractions import Fraction

# Each verb handler imports the modules that only its verb runs, so a
# process loads (and, without bytecode caches, compiles) no other.


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors surface as ParseError (exit 1)."""

    def error(self, message: str):
        raise ParseError(message)


def _int_flag(text: str) -> int:
    """The value of an integer option: an optional "-" and ASCII digits, as
    the text parsers read numbers (``int`` alone also takes "١٠", "1_0"
    and " 5 ").  A negative value is returned for the domain checks to
    refuse; anything else, or a run too long for ``int``, is a parse error
    that quotes the text shortened."""
    if re.fullmatch(r"-?[0-9]+", text) is not None:
        try:
            return int(text)
        except ValueError:  # more digits than int converts
            pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {shorten(text)!r}")


# Each number is read with bounded_uint against the size of the object it
# indexes: a longer one reads as size + 1, out of range like any other.


def _parse_subset(text: str, ground: int) -> int:
    from .dmat import set_to_mask

    body = text.strip().strip("{}").strip()
    if not body:
        return 0
    members = [s.strip() for s in body.split(",")]
    if not all(is_uint(s) for s in members):
        raise ParseError(f"malformed element list {shorten(text)!r}")
    return set_to_mask((bounded_uint(s, ground) for s in members), ground)


def _parse_pair(text: str, m: int) -> tuple[int, int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2 or not all(is_uint(s) for s in parts):
        raise ParseError(f"expected a pair like \"2,5\", got {shorten(text)!r}")
    return bounded_uint(parts[0], m), bounded_uint(parts[1], m)


def _parse_vertex(text: str, n: int) -> int:
    if not is_uint(text.strip()):
        raise ParseError(f"expected a vertex number, got {shorten(text)!r}")
    return bounded_uint(text.strip(), n)


def _series_text(coeffs: list[Fraction]) -> str:
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            zpow = "z" if k == 1 else f"z^{k}"
            body = zpow if mag == 1 else f"{mag}{zpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts) if parts else "0"


# -- subcommand handlers -------------------------------------------------------


def _cmd_wgl(args) -> int:
    from .algebra import poly_to_string
    from .glws import wgl

    p = perm_parse(args.perm)
    print(poly_to_string(wgl(p, cap=args.cap)))
    return 0


def _cmd_faces(args) -> int:
    p = perm_parse(args.perm)
    print(f"cycles={cycle_count(p)} faces={face_count(p)}")
    return 0


def _cmd_feps(args) -> int:
    from .algebra import poly_to_string
    from .glws import feps, feps_direct, feps_in_v

    p = perm_parse(args.perm)
    if args.in_v:
        value = feps_in_v(p)
    elif args.direct:
        value = feps_direct(p)
    else:
        value = feps(p)
    print(poly_to_string(value))
    return 0


def _cmd_interlace(args) -> int:
    if args.perm is not None:
        if args.shifted:
            raise DomainError("--shifted applies to graph or set-system input only")
        from .glws import interlace_perm

        print(str(interlace_perm(perm_parse(args.perm))))
        return 0
    from .algebra import poly_to_string
    from .dmat import dmat_parse
    from .invariants import interlace_dmat, interlace_graph, shift_variable

    if args.graph is not None:
        value = interlace_graph(graph_parse(args.graph))
    else:
        value = interlace_dmat(dmat_parse(args.dmat))
    if args.shifted:
        value = shift_variable(value, "x")
    print(poly_to_string(value))
    return 0


def _cmd_skewchar(args) -> int:
    from .algebra import poly_to_string

    if args.graph is not None:
        from .invariants import refined_skew_char_graph, skew_char

        g = graph_parse(args.graph)
        value = refined_skew_char_graph(g) if args.refined else skew_char(g)
    elif args.dmat is not None:
        from .dmat import dmat_parse
        from .invariants import refined_skew_char_dmat

        value = refined_skew_char_dmat(dmat_parse(args.dmat))
    else:
        if args.refined:
            raise DomainError("--refined applies to graph or set-system input only")
        from .glws import gl11_skewchar

        value = gl11_skewchar(perm_parse(args.perm))
    print(poly_to_string(value))
    return 0


def _cmd_dmat(args) -> int:
    from .dmat import dmat_format, dmat_from_chord_diagram, dmat_from_graph, dmat_parse, distance, partial_dual

    if args.graph is not None:
        d = dmat_from_graph(graph_parse(args.graph))
    elif args.perm is not None:
        d = dmat_from_chord_diagram(perm_parse(args.perm))
    else:
        d = dmat_parse(args.dmat)
    if args.dual is not None:
        d = partial_dual(d, _parse_subset(args.dual, d.ground))
    if args.distance is not None:
        print(f"distance={distance(d, _parse_subset(args.distance, d.ground))}")
    else:
        print(dmat_format(d))
    return 0


def _cmd_pivot(args) -> int:
    if args.perm is not None:
        p = perm_parse(args.perm)
        result = perm_pivot(p, _parse_pair(args.a, p.m), _parse_pair(args.b, p.m))
        print(perm_format(result))
    else:
        g = graph_parse(args.graph)
        result = graph_pivot(g, _parse_vertex(args.a, g.n), _parse_vertex(args.b, g.n))
        print(graph_format(result))
    return 0


def _cmd_series(args) -> int:
    from .algebra import MAX_SERIES_ORDER
    from .glws import interlace_perm

    if not 0 <= args.order <= MAX_SERIES_ORDER:
        raise DomainError(f"series order must be in 0..{MAX_SERIES_ORDER}, got {shorten_int(args.order)}")
    rf = interlace_perm(perm_parse(args.perm))
    print(str(rf))
    print(_series_text(rf.series(args.order)))
    return 0


def _cmd_verify(args) -> int:
    import json

    from .verify import run_suites

    bounds = {
        "max_m": args.max_m,
        "max_chords": args.max_chords,
        "max_vertices": args.max_vertices,
        "samples": args.samples,
        "seed": args.seed,
        "order": args.order,
    }
    reports = run_suites(args.suites or None, **bounds)
    failed = [r for r in reports if not r.passed]
    if args.json:
        payload = {
            "reports": [r.to_json() for r in reports],
            "passed": not failed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            for line in r.lines():
                print(line)
        print(f"{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 3 if failed else 0


# -- parser ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="wsys", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_wgl = sub.add_parser("wgl", help="universal weight-system value of a permutation")
    p_wgl.add_argument("--perm", required=True, help="permutation (one-line or cycles)")
    p_wgl.add_argument("--cap", type=_int_flag, default=DEFAULT_CAP, help="largest admitted point count")
    p_wgl.set_defaults(handler=_cmd_wgl)

    p_faces = sub.add_parser("faces", help="cycle and face counts of a permutation")
    p_faces.add_argument("--perm", required=True)
    p_faces.set_defaults(handler=_cmd_faces)

    p_feps = sub.add_parser("feps", help="two-parameter family F(N, eps)")
    p_feps.add_argument("--perm", required=True)
    route = p_feps.add_mutually_exclusive_group()
    route.add_argument("--direct", action="store_true", help="subset-sum route")
    route.add_argument(
        "--in-v", dest="in_v", action="store_true", help="(v, N) form, chord diagrams only"
    )
    p_feps.set_defaults(handler=_cmd_feps)

    p_int = sub.add_parser("interlace", help="interlace polynomial / rational function")
    src = p_int.add_mutually_exclusive_group(required=True)
    src.add_argument("--perm")
    src.add_argument("--graph")
    src.add_argument("--dmat")
    p_int.add_argument(
        "--shifted", action="store_true", help="apply x -> x - 1 (graph/set-system only)"
    )
    p_int.set_defaults(handler=_cmd_interlace)

    p_skew = sub.add_parser("skewchar", help="skew characteristic polynomial")
    src = p_skew.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--dmat", help="set system (always the refined form)")
    src.add_argument("--perm", help="via the weight system at N = 0")
    p_skew.add_argument("--refined", action="store_true", help="track coranks in w")
    p_skew.set_defaults(handler=_cmd_skewchar)

    p_dmat = sub.add_parser("dmat", help="set system of a graph or chord diagram")
    src = p_dmat.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--perm", help="chord diagram")
    src.add_argument("--dmat", help="set system given directly")
    p_dmat.add_argument("--dual", help="apply partial duality to these elements, e.g. \"1,3\"")
    p_dmat.add_argument("--distance", help="print the distance of this subset instead")
    p_dmat.set_defaults(handler=_cmd_dmat)

    p_piv = sub.add_parser("pivot", help="pivot a permutation or a graph")
    src = p_piv.add_mutually_exclusive_group(required=True)
    src.add_argument("--perm")
    src.add_argument("--graph")
    p_piv.add_argument("--a", required=True, help="2-cycle \"i,j\" (perm) or vertex (graph)")
    p_piv.add_argument("--b", required=True, help="2-cycle \"k,l\" (perm) or vertex (graph)")
    p_piv.set_defaults(handler=_cmd_pivot)

    p_ser = sub.add_parser("series", help="series expansion of the interlace function")
    p_ser.add_argument("--perm", required=True)
    p_ser.add_argument("--order", type=_int_flag, default=7, help="highest power of z")
    p_ser.set_defaults(handler=_cmd_series)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("suites", nargs="*", help="suite names (default: all)")
    p_ver.add_argument("--max-m", type=_int_flag, default=None)
    p_ver.add_argument("--max-chords", type=_int_flag, default=None)
    p_ver.add_argument("--max-vertices", type=_int_flag, default=None)
    p_ver.add_argument("--samples", type=_int_flag, default=None)
    p_ver.add_argument("--seed", type=_int_flag, default=None)
    p_ver.add_argument("--order", type=_int_flag, default=None)
    p_ver.add_argument("--json", action="store_true", help="machine-readable reports")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, execute, print to stdout; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
