"""Self-tests of the benchmark: wrong answers must count as failed operations.

Run from the checkout root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import random
import sys
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
gk = run.import_graphkt()


def failed_ops(workload, cases, corrupt=None, rounds=1):
    """Failed operations when every output passes through ``corrupt``."""
    if corrupt is not None:
        op = workload.op
        workload = replace(workload, op=lambda g, case: corrupt(op(g, case)))
    r = run.Run(gk, workload, cases)
    for _ in range(rounds):
        r.round()
    attempted, failed, problems = r.check()
    assert attempted == rounds * len(cases)
    return failed, problems


def graph_case(edges, family="random"):
    vertices = sorted({v for e in edges for v in e})
    graph = (tuple(vertices), dict(edges), [])
    return W.Case(family, W.graph_text(graph), graph)


def dense_case(n=12, seed=0):
    m = W.dense_matrix(random.Random(seed), n)
    return W.Case("dense", W.matrix_text(m), matrix=m)


class CheckerFlagsWrongAnswers(unittest.TestCase):
    sparse = W.WORKLOADS["large-sparse"]
    dense = W.WORKLOADS["dense-snf"]

    def test_correct_outputs_pass(self):
        cases = [graph_case({("a", "a"): 5}), graph_case({("a", "b"): 1, ("b", "a"): 2})]
        self.assertEqual(failed_ops(self.sparse, cases, rounds=2)[0], 0)
        self.assertEqual(failed_ops(self.dense, [dense_case()])[0], 0)

    def test_z2_in_place_of_z4(self):
        # One vertex with five loops: K0 = Ext = Z/4.
        case = graph_case({("a", "a"): 5})
        z2 = gk.AbelianGroup(0, (2,))

        def k0_only(out):
            k, e = out
            return replace(k, k0=z2), e

        def k0_and_ext(out):
            k, e = out
            return replace(k, k0=z2), replace(e, ext=z2)

        for corrupt in (k0_only, k0_and_ext):
            failed, problems = failed_ops(self.sparse, [case], corrupt, rounds=2)
            self.assertEqual(failed, 2)
            self.assertTrue(any("det" in p for p in problems[0]), problems)

    def test_dropped_kernel_vector(self):
        def drop(out):
            res, kernel, coker = out
            return res, kernel[:-1], coker

        failed, problems = failed_ops(self.dense, [dense_case()], drop)
        self.assertEqual(failed, 1)
        self.assertTrue(any("kernel vectors" in p for p in problems[0]), problems)

    def test_transform_with_det_2(self):
        def double_row(out):
            res, kernel, coker = out
            rows = res.u.to_rows()
            # A row of U that meets a zero row of S: doubling it keeps
            # U*M*V = S, so only the determinant can tell.
            rows[-1] = [2 * e for e in rows[-1]]
            return replace(res, u=gk.IntMatrix.from_rows(rows)), kernel, coker

        failed, problems = failed_ops(self.dense, [dense_case()], double_row)
        self.assertEqual(failed, 1)
        self.assertEqual(problems[0], ["|det U| = 2"])

    def test_wrong_ea_closed_form(self):
        case = replace(graph_case({("a", "b"): 1}), family="ea")
        self.assertEqual(failed_ops(self.sparse, [case])[0], 1)


class CheckerArithmetic(unittest.TestCase):
    def test_rank_and_det(self):
        m = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
        self.assertEqual(checker.rank_exact(m, 3), 2)
        self.assertEqual(checker.rank_mod_p(checker.sparse_rows(m), 2), 2)
        self.assertEqual(checker.rank_mod_p(checker.sparse_rows(m), 5), 1)
        self.assertEqual(checker.det_exact([[0, 2], [3, 1]]), -6)
        self.assertEqual(checker.det_exact(m), 0)
        self.assertEqual(checker.matmul([[1, 2]], [[3], [4]], 2), [[11]])


class TracerSpans(unittest.TestCase):
    def test_nested_calls_are_traced_and_restored(self):
        orig = gk.ktheory.block_decomposition
        tracer = Tracer()
        tracer.install(gk)
        try:
            gk.k_groups(gk.parse_graph("edge a a 5\n"))
        finally:
            tracer.uninstall()
        self.assertIs(gk.ktheory.block_decomposition, orig)
        names = [s[0] for s in tracer.spans]
        self.assertIn("graphs.block_decomposition", names)
        self.assertIn("intlinalg.invariant_factors", names)
        m = tracer.metrics(1)
        self.assertEqual(m["ktheory.k_groups.calls"], (1.0, "count"))
        for _name, start, end, _parent, _op, _family, child in tracer.spans:
            self.assertLessEqual(child, end - start)


if __name__ == "__main__":
    unittest.main()
