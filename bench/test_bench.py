"""Tests of the benchmark's oracles and checks.

    PYTHONPATH=src python3 -m unittest discover -s bench

Oracles are tested against values worked by hand in PAPER.md; checks are
tested to pass on wsys outputs and to report perturbed outputs.
"""

from __future__ import annotations

import os
import sys
import unittest
from fractions import Fraction
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from wsys import (  # noqa: E402
    Graph,
    Perm,
    Poly,
    dmat_from_graph,
    feps,
    gl11_skewchar,
    interlace_dmat,
    interlace_graph_recursive,
    interlace_perm,
    primitive_eval_diagram,
    refined_skew_char_graph,
    skew_char,
    two_var_interlace,
    wgl,
)

K3 = (3, (0b110, 0b101, 0b011))


def perturbed(p: Poly) -> Poly:
    """p with one coefficient raised by one."""
    terms = dict(p.terms)
    mono = next(iter(terms))
    terms[mono] += 1
    return Poly(terms)


class OracleValues(unittest.TestCase):
    def test_interlace_series_of_worked_examples(self):
        # L((1 2 3)) = 2z^2 + 5z^3 + 7z^4 + 7z^5 + ..., L((1 3 2)) = 4z^2 + 5z^3 + 6z^4 + 7z^5 + ...
        self.assertEqual(orc.interlace_series(orc.feps_subset_sum((2, 3, 1)), 5), [0, 0, 2, 5, 7, 7])
        self.assertEqual(orc.interlace_series(orc.feps_subset_sum((3, 1, 2)), 5), [0, 0, 4, 5, 6, 7])
        # a single chord gives z^2, the fully interlaced triple 4z^2
        self.assertEqual(orc.interlace_series(orc.feps_subset_sum((2, 1)), 4), [0, 0, 1, 0, 0])
        self.assertEqual(orc.interlace_series(orc.feps_subset_sum(orc.full_crossing(3)), 4), [0, 0, 4, 0, 0])

    def test_feps_closed_form(self):
        # feps((1 3 2)) = 1 + 3*N*eps + 3*eps^2 + N*eps^3
        self.assertEqual(orc.feps_subset_sum((3, 1, 2)), {(0, 0): 1, (1, 1): 3, (0, 2): 3, (1, 3): 1})
        self.assertEqual((orc.cycle_count((2, 3, 1)), orc.face_count((2, 3, 1))), (1, 3))
        self.assertEqual(orc.face_count(()), 1)

    def test_corank_histogram_of_k3(self):
        # K3 gives 4 + 4x
        hist = orc.corank_histogram(*K3)
        by_corank = {}
        for (_, corank), count in hist.items():
            by_corank[corank] = by_corank.get(corank, 0) + count
        self.assertEqual(by_corank, {0: 4, 1: 4})
        self.assertEqual(orc.dmat_text(*K3), "E=3; phi={},{1,2},{1,3},{2,3}")

    def test_evaluator_and_parser(self):
        terms = {(("N", 2), ("eps", 1)): 3, (): 1}
        self.assertEqual(orc.evaluate(terms, {"N": Fraction(1, 2), "eps": Fraction(2)}), Fraction(5, 2))
        self.assertEqual(
            orc.parse_poly("C3 + C1^2 - N*C2"),
            {(("C3", 1),): 1, (("C1", 2),): 1, (("N", 1), ("C2", 1)): -1},
        )
        self.assertEqual(orc.parse_poly("-3/4*u^2 + 1"), {(("u", 2),): Fraction(-3, 4), (): 1})
        self.assertEqual(orc.parse_ratfunc("(4*z^2 - 3*z^3) / (1-z)^2")[1], 2)

    def test_counts(self):
        self.assertEqual(orc.factorial_sum(3), 10)
        self.assertEqual(orc.double_factorial(3), 15)
        self.assertEqual(orc.graph_count(4), 64)
        self.assertEqual(orc.interlacing_pair_count(4), 1)  # only (1 3)(2 4)


class ChecksCatchPerturbations(unittest.TestCase):
    def family_outputs(self, p):
        rf = interlace_perm(p)
        return [wgl(p), feps(p), rf, rf.series(wl.FAMILY_SERIES_ORDER), gl11_skewchar(p)]

    def test_family_permutation(self):
        for img in ((3, 1, 2), (2, 1, 4, 3), (3, 5, 6, 1, 2, 4)):
            outputs = self.family_outputs(Perm(img))
            self.assertEqual(wl.check_family_perm(img, outputs, Random(1), True), [])
            for k in (0, 1, 4):
                bad = list(outputs)
                bad[k] = perturbed(bad[k])
                self.assertTrue(wl.check_family_perm(img, bad, Random(1), True), (img, k))
            bad = list(outputs)
            bad[3] = [c + 1 for c in bad[3]]
            self.assertTrue(wl.check_family_perm(img, bad, Random(1), True))

    def test_family_diagram(self):
        disconnected = Perm((2, 1, 4, 3))
        value = primitive_eval_diagram(feps, disconnected)
        self.assertEqual(wl.check_family_diagram(disconnected.img, value), [])
        self.assertTrue(wl.check_family_diagram(disconnected.img, Poly.var("N")))
        self.assertTrue(wl.check_family_diagram((3, 4, 1, 2), Poly.var("eps")))

    def test_recurrence(self):
        p = Perm(orc.full_crossing(3))
        w = wgl(p, memo={})
        self.assertEqual(wl.check_wgl_collapses(p.img, w.terms), [])
        self.assertTrue(wl.check_wgl_collapses(p.img, perturbed(w).terms))

    def test_subsets(self):
        n, rows = orc.random_graph(Random(3), 6, 0.5)
        g = Graph(n, rows)
        d = dmat_from_graph(g)
        outputs = [d, skew_char(g), refined_skew_char_graph(g), interlace_dmat(d), two_var_interlace(d),
                   interlace_graph_recursive(g, memo={})]
        self.assertEqual(wl.check_subsets_graph(n, rows, outputs, 0b101), [])
        for k in range(1, 6):
            bad = list(outputs)
            bad[k] = perturbed(bad[k])
            self.assertTrue(wl.check_subsets_graph(n, rows, bad, 0b101), k)

    def test_cli_outputs(self):
        item = ("faces", ["faces", "--perm", "2,3,1"], 0, (2, 3, 1))
        self.assertEqual(wl.check_cli_process(item, "cycles=1 faces=3\n"), [])
        self.assertTrue(wl.check_cli_process(item, "cycles=1 faces=2\n"))
        item = ("series", ["series", "--perm", "2,3,1", "--order", "7"], 0, (2, 3, 1))
        good = "(2*z^2 + z^3 - z^4 - 2*z^5 + z^6) / (1-z)^2\n2z^2+5z^3+7z^4+7z^5+8z^6+9z^7\n"
        self.assertEqual(wl.check_cli_process(item, good), [])
        self.assertTrue(wl.check_cli_process(item, good.replace("7z^4", "6z^4")))
        report = {"suite": "tsr", "passed": True, "instances": orc.factorial_sum(5), "notes": []}
        self.assertEqual(wl.check_suite_report("tsr", {"passed": True, "reports": [report]}), [])
        report["instances"] -= 1
        self.assertTrue(wl.check_suite_report("tsr", {"passed": True, "reports": [report]}))

    def test_malformed_input_must_end_in_one_parse_error_line(self):
        self.assertIsNone(wl.process_failure("wgl", 1, 1, "parse error: bad point\n"))
        traceback = "Traceback (most recent call last):\n  ...\nValueError: invalid literal\n"
        self.assertTrue(wl.process_failure("wgl", 1, 1, traceback))
        self.assertTrue(wl.process_failure("wgl", 0, 2, "domain error: cap\n"))


if __name__ == "__main__":
    unittest.main()
