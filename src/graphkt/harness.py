"""Randomized property suite and the infinite-matrix truncation family.

The suite generates seeded random graphs and checks, per graph:

  P1  free rank of K0 equals free rank of K1 plus the singular count
  P2  K0 torsion equals the torsion of the transposed map's cokernel
  P3  all-singular graphs compute to (Z^n, 0, 0) at the matrix level
  P4  with no singular vertices the stacked map reduces to the full
      vertex matrix
  P5  tails from ``desingularize`` of every length in SCAN_LENGTHS
      (1 to 6) keep the original K-groups (``truncation_scan``)
  P6  so do tails built with permuted target orders

P5 and P6 cannot see how many edges a tail re-emits: each chain edge
puts the only +1 in its row, so the tail is eliminated by unit pivots
whatever it re-emits. ``tests/test_tails.py``
``test_equals_the_reference_tail_graph`` compares the tail graph edge for
edge and is the check that can.

Every failure embeds the seed that regenerates the exact graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .graphio import emit_graph
from .graphs import Graph, INF, singular_vertices
from .intlinalg import AbelianGroup, IntMatrix, cokernel, cokernel_of_factors, invariant_factors
from .ktheory import corollary_applies, k_groups
from .tails import desingularize

SCAN_LENGTHS = range(1, 7)


@dataclass(frozen=True)
class RandomGraphParams:
    """Knobs for the seeded graph generator; identical params give an
    identical graph."""

    seed: int = 1
    min_vertices: int = 1
    max_vertices: int = 8
    density: float = 0.3
    max_multiplicity: int = 4
    infinite_probability: float = 0.12
    sink_probability: float = 0.2


def random_graph(params: RandomGraphParams) -> Graph:
    """One deterministic graph from the given parameters."""
    if params.min_vertices < 1 or params.max_vertices < params.min_vertices:
        raise ValueError("vertex range must satisfy 1 <= min <= max")
    for knob in ("density", "infinite_probability", "sink_probability"):
        if not 0.0 <= getattr(params, knob) <= 1.0:
            raise ValueError(f"{knob} must lie in [0, 1]")
    if params.max_multiplicity < 1:
        raise ValueError("max_multiplicity must be >= 1")
    rng = random.Random(params.seed)
    n = rng.randint(params.min_vertices, params.max_vertices)
    vs = [f"v{i}" for i in range(n)]
    forced_sinks = {v for v in vs if rng.random() < params.sink_probability}
    edges = {}
    for s in vs:
        if s in forced_sinks:
            continue
        for t in vs:
            if rng.random() < params.density:
                if rng.random() < params.infinite_probability:
                    edges[(s, t)] = INF
                else:
                    edges[(s, t)] = rng.randint(1, params.max_multiplicity)
    return Graph(vs, edges)


def derive_seed(base: int, index: int) -> int:
    """Per-graph seed for position ``index`` in a run seeded with ``base``."""
    return (base + (index + 1) * 0x9E3779B97F4A7C15) % 2**64


def ea_family(n: int) -> Graph:
    """Finite truncation of the infinite {0,1} vertex matrix whose graph
    algebra and Exel-Laca algebra have different K-theory.

    Vertices 1..n. Vertices 1 and 2 each have a loop and an edge to every
    j >= 3; beyond any truncation their rows continue with 1s, so they are
    declared singular. Every i >= 3 has a loop and an edge to i-2.
    """
    if n < 5:
        raise ValueError("the truncated family needs at least 5 vertices")
    vs = [str(i) for i in range(1, n + 1)]
    edges = {("1", "1"): 1, ("2", "2"): 1}
    for j in range(3, n + 1):
        edges[("1", str(j))] = 1
        edges[("2", str(j))] = 1
    for i in range(3, n + 1):
        edges[(str(i), str(i))] = 1
        edges[(str(i), str(i - 2))] = 1
    return Graph(vs, edges, ("1", "2"))


def ea_table(max_n: int) -> list:
    """(n, K0, K1) for every truncation size 5..max_n."""
    if max_n < 5:
        raise ValueError("--max-n must be at least 5")
    rows = []
    for n in range(5, max_n + 1):
        r = k_groups(ea_family(n))
        rows.append((n, r.k0, r.k1))
    return rows


EA_LIMITS = {
    "graph_algebra": {"k0": AbelianGroup(0), "k1": AbelianGroup(0)},
    "exel_laca": {"k0": AbelianGroup(0), "k1": AbelianGroup(1)},
}

EA_NOTE = (
    "Every finite truncation reports K0 = Z^2 and K1 = 0. Column j of the "
    "stacked map hits exactly row j-2, so the two highest-numbered rows are "
    "hit only by the columns j = n+1 and j = n+2 that the truncation removes. "
    "The free rank 2 is therefore a boundary artifact of cutting the matrix; "
    "finite truncations need not converge to the known infinite values, and "
    "here they do not."
)


def truncation_scan(g: Graph, orderings=None) -> str | None:
    """Check that ``desingularize(g, n, orderings)`` has the K-groups of
    ``g`` at every tail length n in SCAN_LENGTHS, in that order. A tail of
    any length is eliminated by unit pivots, so each length must match.
    Returns None when all do, or else the first length that does not,
    with its groups. ``orderings`` are checked as ``desingularize`` checks
    them.

    >>> g = Graph(["w", "v"], {("w", "w"): 1, ("v", "w"): INF})
    >>> print(truncation_scan(g))
    None

    A faulty tail builder that adds an isolated vertex at length 2 puts
    one Z too many into K0 there:

    >>> from unittest import mock
    >>> import graphkt.harness as harness
    >>> def faulty(h, n, orderings=None):
    ...     out = desingularize(h, n, orderings)
    ...     return Graph([*out.vertices, "x"], out.edges) if n == 2 else out
    >>> with mock.patch.object(harness, "desingularize", faulty):
    ...     truncation_scan(g)
    'tail length 2 gave (Z^3, Z) instead of (Z^2, Z)'
    """
    target = k_groups(g)
    for n in SCAN_LENGTHS:
        r = k_groups(desingularize(g, n, orderings))
        if (r.k0, r.k1) != (target.k0, target.k1):
            return f"tail length {n} gave ({r.k0}, {r.k1}) instead of ({target.k0}, {target.k1})"
    return None


_PROPERTIES = (
    ("P1", "K0 free rank = K1 free rank + number of singular vertices"),
    ("P2", "K0 torsion matches the transposed map's cokernel torsion"),
    ("P3", "all-singular graphs compute to (Z^n, 0, 0)"),
    ("P4", "no singular vertices: reduces to the full vertex matrix"),
    ("P5", "truncated tails stabilize at the original K-groups"),
    ("P6", "tail target order does not change the stabilized K-groups"),
)


@dataclass
class PropertyStats:
    name: str
    description: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)


@dataclass
class HarnessReport:
    params: RandomGraphParams
    count: int
    properties: dict
    # verify_catalog's lines; run_properties leaves this empty
    catalog_problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.catalog_problems and all(
            st.failed == 0 for st in self.properties.values()
        )


def _check_p4(g: Graph, result) -> str | None:
    # The full transposed vertex matrix minus the identity, built from the
    # edge map alone, independently of block_decomposition.
    n = len(g.vertices)
    pos = {v: k for k, v in enumerate(g.vertices)}
    delta = [0] * (n * n)
    for k in range(n):
        delta[k * n + k] = -1
    for (v, w), m in g.edges.items():
        delta[pos[w] * n + pos[v]] += m
    d = invariant_factors(IntMatrix(n, n, delta))
    k0 = cokernel_of_factors(n, d)
    k1 = AbelianGroup(n - len(d))
    if result.k0 != k0 or result.k1 != k1:
        return f"direct vertex-matrix result ({k0}, {k1}) != ({result.k0}, {result.k1})"
    return None


def _check_graph(g: Graph, rng: random.Random) -> dict:
    """Run P1..P6 on one graph; returns property name -> None when it
    holds, or a failure detail. A property that does not apply to ``g``
    is left out, and counts as skipped."""
    result = k_groups(g)
    sing = singular_vertices(g)
    dual = cokernel(result.stacked_matrix.transpose())
    outcomes = {
        "P1": None if result.k0.free_rank == result.k1.free_rank + len(sing) else (
            f"K0 rank {result.k0.free_rank}, K1 rank {result.k1.free_rank}, "
            f"singular count {len(sing)}"
        ),
        "P2": None if result.k0.torsion == dual.torsion else (
            f"torsion {result.k0.torsion} vs transposed {dual.torsion}"
        ),
    }
    # P3: the row map is the transposed stacked map, whose cokernel P2 took
    if corollary_applies(g):
        n = len(g.vertices)
        expected = (AbelianGroup(n), AbelianGroup(0), AbelianGroup(0))
        outcomes["P3"] = None if (result.k0, result.k1, dual) == expected else (
            f"got ({result.k0}, {result.k1}, {dual}) for n = {n}"
        )
    if not sing:
        outcomes["P4"] = _check_p4(g, result)
        return outcomes
    outcomes["P5"] = truncation_scan(g)

    # P6
    permuted = {}
    for v in sing:
        targets = [w for w, _m in g.out_edges(v)]
        if len(targets) >= 2:
            shuffled = targets[:]
            rng.shuffle(shuffled)
            if shuffled != targets:
                permuted[v] = shuffled
    if permuted:
        outcomes["P6"] = truncation_scan(g, permuted)
    return outcomes


def run_properties(params: RandomGraphParams, count: int) -> HarnessReport:
    """Generate ``count`` graphs and evaluate P1..P6 on each. A property
    that ``_check_graph`` leaves out counts as skipped; a crash fails
    every property, with the exception as the detail."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    stats = {name: PropertyStats(name, desc) for name, desc in _PROPERTIES}
    for i in range(count):
        seed_i = derive_seed(params.seed, i)
        g = random_graph(replace(params, seed=seed_i))
        rng = random.Random(seed_i ^ 0x5DEECE66D)
        try:
            outcomes = _check_graph(g, rng)
        except Exception as exc:  # a crash is itself a failure worth a seed
            outcomes = dict.fromkeys(stats, f"crash: {exc!r}")
        for name, st in stats.items():
            if name not in outcomes:
                st.skipped += 1
            elif outcomes[name] is None:
                st.passed += 1
            else:
                st.failed += 1
                st.failures.append(
                    {"seed": seed_i, "graph": emit_graph(g), "detail": outcomes[name]}
                )
    return HarnessReport(params, count, stats)


def report_json(report: HarnessReport) -> dict:
    props = {}
    for name, st in report.properties.items():
        entry = {
            "description": st.description,
            "pass": st.passed,
            "fail": st.failed,
            "skip": st.skipped,
            "failures": st.failures,
        }
        if name == "P5":
            entry["inconclusive"] = st.inconclusive
        props[name] = entry
    return {
        "seed": report.params.seed,
        "count": report.count,
        "max_vertices": report.params.max_vertices,
        "catalog": {"ok": not report.catalog_problems, "problems": list(report.catalog_problems)},
        "properties": props,
        "ok": report.ok,
    }


def format_report(report: HarnessReport) -> str:
    lines = []
    if report.catalog_problems:
        lines.append(f"catalog: {len(report.catalog_problems)} problem(s)")
        lines.extend(f"  {p}" for p in report.catalog_problems)
    else:
        lines.append("catalog: ok")
    for name, st in report.properties.items():
        line = (
            f"{name} {st.description:<62s} "
            f"pass={st.passed} fail={st.failed} skip={st.skipped}"
        )
        if name == "P5":
            line += f" inconclusive={len(st.inconclusive)}"
        lines.append(line)
        for f in st.failures:
            lines.append(f"  FAIL seed={f['seed']}: {f['detail']}")
            lines.extend("    " + l for l in f["graph"].rstrip().splitlines())
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines)
