"""Spans around graphkt's public functions, recorded from outside the package.

``Tracer.install`` replaces each function in TRACED at every graphkt
module attribute that holds it, so calls the library makes to itself
(``ktheory.k_groups`` calling ``ktheory.block_decomposition``, the
harness calling ``harness.k_groups``) pass through the wrapper as well.
Each call becomes a span (name, start, end, parent, operation, family):
the spans of one benchmark operation share its number. A span's
self time is its duration minus the time of the spans it encloses.
Work counts are taken from the arguments and results, and the time they
take is charged to no span.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

import checker

TRACED = {
    "graphio": ("parse_graph", "parse_matrix"),
    "graphs": ("block_decomposition", "singular_vertices", "condition_l"),
    "ktheory": ("stacked_matrix", "row_matrix", "k_groups", "ext_group"),
    "intlinalg": ("invariant_factors", "snf", "kernel_basis", "cokernel"),
    "tails": ("desingularize",),
    "harness": ("run_properties", "random_graph", "truncation_scan"),
}

# Families whose elimination time large-sparse reports apart.
FAMILIES = ("random", "tails", "ea")

COUNTS = {
    "graphs.block_decomposition.vertices": "count",
    "intlinalg.invariant_factors.entries": "count",
    "intlinalg.invariant_factors.nnz": "count",
    "tails.vertices_added": "count",
    "harness.truncation_scan.lengths": "count",
    "harness.inconclusive": "count",
}
MAXIMA = {
    "intlinalg.snf.transform_max_bits": "bits",
    "intlinalg.kernel_basis.max_bits": "bits",
}


def _matrix_bits(m) -> int:
    return max((checker.max_bits(m.row(i)) for i in range(m.rows)), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op, family, child seconds)
        self.stack = []  # [span index, child seconds, name] of open spans
        self.op = -1  # number of the benchmark operation running now
        self.family = ""
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._restore = []

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items() if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for mod, names in TRACED.items():
            home = sys.modules[f"{package.__name__}.{mod}"]
            for fn in names:
                orig = getattr(home, fn)
                wrapped = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in self._restore:
            setattr(m, attr, orig)
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, self.family, frame[1])
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                h0 = time.perf_counter()
                hook(args, result)
                if stack:
                    stack[-1][1] += time.perf_counter() - h0
            return result

        return traced

    # Work counts, one hook per function that has any.

    def _hook_graphs_block_decomposition(self, args, result):
        self.counts["graphs.block_decomposition.vertices"] += len(args[0].vertices)

    def _hook_intlinalg_invariant_factors(self, args, result):
        m = args[0]
        self.counts["intlinalg.invariant_factors.entries"] += m.rows * m.cols
        self.counts["intlinalg.invariant_factors.nnz"] += sum(
            1 for i in range(m.rows) for e in m.row(i) if e
        )

    def _hook_intlinalg_snf(self, args, result):
        bits = max(_matrix_bits(result.u), _matrix_bits(result.v))
        key = "intlinalg.snf.transform_max_bits"
        self.maxima[key] = max(self.maxima[key], bits)

    def _hook_intlinalg_kernel_basis(self, args, result):
        bits = max((checker.max_bits(x) for x in result), default=0)
        key = "intlinalg.kernel_basis.max_bits"
        self.maxima[key] = max(self.maxima[key], bits)

    def _hook_tails_desingularize(self, args, result):
        self.counts["tails.vertices_added"] += len(result.vertices) - len(args[0].vertices)
        if self.stack and self.stack[-1][2] == "harness.truncation_scan":
            self.counts["harness.truncation_scan.lengths"] += 1

    def _hook_harness_run_properties(self, args, result):
        self.counts["harness.inconclusive"] += sum(
            len(st.inconclusive) for st in result.properties.values()
        )

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each time and count taken per round."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        family_s = defaultdict(float)
        harness_runs = []
        for name, start, end, _parent, _op, family, child in self.spans:
            own = end - start - child
            self_s[name] += own
            calls[name] += 1
            if name == "intlinalg.invariant_factors":
                family_s[family] += own
            elif name == "harness.run_properties":
                harness_runs.append(end - start)
        out = {}
        for mod, names in TRACED.items():
            for fn in names:
                name = f"{mod}.{fn}"
                out[name + ".self_s"] = (self_s[name] / rounds, "s")
                out[name + ".calls"] = (calls[name] / rounds, "count")
        for family in FAMILIES:
            out[f"intlinalg.invariant_factors.{family}.self_s"] = (family_s[family] / rounds, "s")
        for key, unit in COUNTS.items():
            out[key] = (self.counts[key] / rounds, unit)
        for key, unit in MAXIMA.items():
            out[key] = (self.maxima[key], unit)
        p95 = statistics.quantiles(harness_runs, n=20)[-1] * 1e3 if len(harness_runs) > 1 else 0.0
        out["harness.run_properties.p95_ms"] = (p95, "ms")
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, family, _child) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent, op, family]) + "\n")
