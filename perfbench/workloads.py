"""The benchmark's workloads: seeded inputs, one operation each, and checks.

A workload is a list of cases made from the seed. One operation runs one
case through graphkt's public API, the way the CLI command named in the
README does; a summary of plain Python values is kept, and the checks
compare it with computations from ``checker`` (which shares no code with
graphkt) or with properties the method must have. The program itself
only ever sees the generated text or parameters.

Graphs handed to the checks use the benchmark's own form: a vertex list,
an edge dict {(source, target): multiplicity or "inf"} and a list of
declared-singular vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import prod

import checker

INF = "inf"

# harness-small: one graph per vertex count 1..16 per stratum, so every
# round holds the vertex counts of `graphkt harness --max-vertices 16` in
# exact proportion instead of sampling them.
HARNESS_MAX_VERTICES = 16
HARNESS_STRATA = 16

# large-sparse: sizes chosen so that one operation costs 0.05-0.8 s on the
# dense elimination. Tail graphs of one size differ in cost by a third
# from seed to seed and random graphs by a sixth, so a round holds many of
# them; the Exel-Laca truncations are the same for every seed. Sizes are
# spread evenly, not clustered, so the median operation moves little
# when a new seed redraws the graphs.
RANDOM_SIZES = tuple(range(200, 301, 11))
RANDOM_OUT_DEGREE = 3
TAIL_BASE_VERTICES = 8
TAIL_BASE_SINKS = 2
TAIL_BASE_INFINITE = 1
TAIL_LENGTHS = (50, 60, 70, 80, 90, 100)
EA_SIZES = (400, 650)

# dense-snf: square matrices with entries in [-3, 3], a few rows replaced
# by sums of three others so that the kernel is not trivial.
DENSE_SIZES = (40, 45, 50, 55, 60)
DENSE_PER_SIZE = 2
DENSE_DEFICIT = (2, 5)


@dataclass(frozen=True)
class Case:
    """One input. ``family`` names the generator, ``text`` is what the
    program parses, ``graph`` is the benchmark's own copy for checks and
    ``base`` the graph before desingularizing (tails only)."""

    family: str
    text: str = ""
    graph: tuple = ()
    base: tuple = ()
    params: object = None
    matrix: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: object  # (graphkt, seed) -> list[Case]
    op: object  # (graphkt, Case) -> program output
    summarise: object  # (Case, output) -> plain, comparable value
    check: object  # (graphkt, Case, summary) -> list of problems
    # Whether the reference loop scans a matrix larger than a core's own
    # cache, as this workload's elimination does (see refclock).
    ref_scan: bool = False


# --- the benchmark's own graph form -------------------------------------


def graph_text(graph) -> str:
    """Graph DSL text for an own-form graph."""
    vertices, edges, declared = graph
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {s} {t} {m}" for (s, t), m in edges.items()]
    lines += [f"singular {v}" for v in declared]
    return "\n".join(lines) + "\n"


def own_form(g) -> tuple:
    """Own-form copy of a graphkt Graph, read through its public fields."""
    edges = {k: (m if isinstance(m, int) else INF) for k, m in g.edges.items()}
    declared = [v for v in g.vertices if v in g.declared_singular]
    return tuple(g.vertices), edges, declared


def singular_of(graph) -> list:
    """Sinks, infinite emitters and declared-singular vertices."""
    vertices, edges, declared = graph
    emits: dict = {}
    for (s, _t), m in edges.items():
        emits[s] = INF if m == INF or emits.get(s) == INF else emits.get(s, 0) + m
    dec = set(declared)
    return [v for v in vertices if v in dec or emits.get(v, 0) in (0, INF)]


def stacked_rows(graph):
    """Sparse rows of the stacked map (B^t - I over C^t) and its column
    count, built straight from the edge list."""
    vertices, edges, _declared = graph
    sing = singular_of(graph)
    sset = set(sing)
    reg = [v for v in vertices if v not in sset]
    col = {v: i for i, v in enumerate(reg)}
    row = dict(col)
    row.update((v, len(reg) + i) for i, v in enumerate(sing))
    rows = [{} for _ in range(len(reg) + len(sing))]
    for v in reg:
        rows[col[v]][col[v]] = -1
    for (s, t), m in edges.items():
        if s in col:
            r = rows[row[t]]
            r[col[s]] = r.get(col[s], 0) + m
    return [{j: e for j, e in r.items() if e} for r in rows], len(reg)


def group_summary(g) -> tuple:
    return g.free_rank, tuple(g.torsion)


def groups_of(gk, g) -> tuple:
    """K0, K1 and Ext of a graphkt Graph, for a check's reference."""
    r, e = gk.k_groups(g), gk.ext_group(g, force=True)
    return group_summary(r.k0), group_summary(r.k1), group_summary(e.ext)


def graph_problems(graph, k0, k1, ext) -> list:
    """Checks 1-3 for one graph; groups are (free rank, torsion) pairs."""
    rows, ncols = stacked_rows(graph)
    rank = ncols - k1[0]
    problems = []
    if k1[1]:
        problems.append(f"K1 has torsion {k1[1]}")
    if k0[0] != len(rows) - rank or ext[0] != ncols - rank:
        problems.append(f"free ranks K0={k0[0]} Ext={ext[0]} disagree with rank {rank}")
    problems += checker.torsion_rank_problems(rows, rank, {"K0": k0[1], "Ext": ext[1]})
    if k0[1] != ext[1]:
        problems.append(f"K0 torsion {k0[1]} != Ext torsion {ext[1]}")
    nsing = len(singular_of(graph))
    if k0[0] - k1[0] != nsing:
        problems.append(f"rank K0 - rank K1 = {k0[0] - k1[0]}, {nsing} singular vertices")
    return problems


# --- harness-small -------------------------------------------------------


def harness_cases(gk, seed: int) -> list:
    rng = random.Random(seed)
    return [
        Case(
            "harness",
            params=gk.RandomGraphParams(
                seed=rng.getrandbits(63), min_vertices=n, max_vertices=n
            ),
        )
        for _ in range(HARNESS_STRATA)
        for n in range(1, HARNESS_MAX_VERTICES + 1)
    ]


def harness_op(gk, case):
    return gk.run_properties(case.params, 1)


def harness_summary(case, report) -> tuple:
    return tuple(
        (name, st.passed, st.failed, st.skipped, len(st.inconclusive))
        for name, st in report.properties.items()
    )


def harness_check(gk, case, summary) -> list:
    problems = []
    for name, passed, failed, skipped, inconclusive in summary:
        if failed:
            problems.append(f"{name} failed")
        if passed + failed + skipped + inconclusive != 1:
            problems.append(f"{name} has no single outcome")
    # Rebuild the graph run_properties drew and certify its invariants.
    seed = gk.harness.derive_seed(case.params.seed, 0)
    g = gk.random_graph(replace(case.params, seed=seed))
    return problems + graph_problems(own_form(g), *groups_of(gk, g))


# --- large-sparse --------------------------------------------------------


def random_sparse(rng, n: int, singular: bool) -> tuple:
    """Every vertex sends one edge to each of RANDOM_OUT_DEGREE distinct
    targets; with ``singular``, about 3% of vertices are sinks and 2%
    send one of their edges infinitely often (at least one of each)."""
    vertices = [f"v{i}" for i in range(n)]
    sinks: set = set()
    emitters: set = set()
    if singular:
        sinks = set(rng.sample(vertices, max(1, n * 3 // 100)))
        rest = [v for v in vertices if v not in sinks]
        emitters = set(rng.sample(rest, max(1, n // 50)))
    edges = {}
    for v in vertices:
        if v in sinks:
            continue
        for k, t in enumerate(rng.sample(vertices, RANDOM_OUT_DEGREE)):
            edges[(v, t)] = INF if (v in emitters and k == 0) else 1
    return tuple(vertices), edges, []


def tail_base(rng) -> tuple:
    """A small graph with sinks and infinite emitters to desingularize."""
    vertices = [f"b{i}" for i in range(TAIL_BASE_VERTICES)]
    picked = rng.sample(vertices, TAIL_BASE_SINKS + TAIL_BASE_INFINITE)
    sinks = set(picked[:TAIL_BASE_SINKS])
    emitters = set(picked[TAIL_BASE_SINKS:])
    edges = {}
    for v in vertices:
        if v in sinks:
            continue
        if v in emitters:
            edges[(v, rng.choice(vertices))] = INF
        else:
            for t in rng.sample(vertices, 3):
                edges[(v, t)] = rng.randint(1, 3)
    return tuple(vertices), edges, []


def sparse_cases(gk, seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for k, n in enumerate(RANDOM_SIZES):
        graph = random_sparse(rng, n, singular=k % 2 == 0)
        cases.append(Case("random", graph_text(graph), graph))
    for length in TAIL_LENGTHS:
        base = tail_base(rng)
        tailed = own_form(gk.desingularize(gk.parse_graph(graph_text(base)), length))
        cases.append(Case("tails", graph_text(tailed), tailed, base))
    for n in EA_SIZES:
        graph = own_form(gk.ea_family(n))
        cases.append(Case("ea", graph_text(graph), graph))
    return cases


def graph_op(gk, case):
    g = gk.parse_graph(case.text)
    return gk.k_groups(g), gk.ext_group(g, force=True)


def graph_summary(case, out) -> tuple:
    k, e = out
    return group_summary(k.k0), group_summary(k.k1), group_summary(e.ext)


def sparse_check(gk, case, summary) -> list:
    k0, k1, ext = summary
    problems = graph_problems(case.graph, k0, k1, ext)
    if case.family == "random" and not singular_of(case.graph):
        # Check 4: a square stacked map; its determinant is the order of K0.
        rows, n = stacked_rows(case.graph)
        dense = [[r.get(j, 0) for j in range(n)] for r in rows]
        det = checker.det_exact(dense)
        if det and (k0[0] or prod(k0[1]) != abs(det)):
            problems.append(f"K0 = {k0} but |det| = {abs(det)}")
        if not det and not k0[0]:
            problems.append("singular square map but K0 is finite")
    elif case.family == "ea":
        # Check 5: the closed form of every Exel-Laca truncation.
        if (k0, k1) != ((2, ()), (0, ())):
            problems.append(f"EA truncation gave K0={k0}, K1={k1}, expected Z^2, 0")
    elif case.family == "tails":
        # Check 6: the tail must not change the K-groups; the reference
        # is itself certified by checks 1-3 on the small graph.
        b0, b1, bx = groups_of(gk, gk.parse_graph(graph_text(case.base)))
        problems += [f"base graph: {p}" for p in graph_problems(case.base, b0, b1, bx)]
        if (k0, k1) != (b0, b1):
            problems.append(f"tail gave K0={k0}, K1={k1}; base graph has {b0}, {b1}")
    return problems


# --- dense-snf -----------------------------------------------------------


def dense_matrix(rng, n: int) -> tuple:
    rank = n - rng.randint(*DENSE_DEFICIT)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    for _ in range(n - rank):
        picks = rng.sample(rows[:rank], 3)
        signs = [rng.choice((-1, 1)) for _ in picks]
        rows.append([sum(s * r[j] for s, r in zip(signs, picks)) for j in range(n)])
    rng.shuffle(rows)
    return tuple(tuple(r) for r in rows)


def matrix_text(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in rows
    )


def dense_cases(gk, seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for n in DENSE_SIZES:
        for _ in range(DENSE_PER_SIZE):
            m = dense_matrix(rng, n)
            cases.append(Case("dense", matrix_text(m), matrix=m))
    return cases


def dense_op(gk, case):
    m = gk.parse_matrix(case.text)
    return gk.snf(m), gk.kernel_basis(m), gk.cokernel(m)


def dense_summary(case, out) -> tuple:
    res, kernel, coker = out
    rows = (tuple(map(tuple, x.to_rows())) for x in (res.u, res.s, res.v))
    return (*rows, res.rank, tuple(map(tuple, kernel)), group_summary(coker))


def dense_check(gk, case, summary) -> list:
    u, s, v, rank, kernel, coker = summary
    m = case.matrix
    nr, nc = len(m), len(m[0])
    problems = []
    true_rank = checker.rank_exact(m, nc)
    if rank != true_rank:
        problems.append(f"SNF rank {rank}, exact rank {true_rank}")
    if checker.matmul(checker.matmul(u, m, nr), v, nc) != [list(r) for r in s]:
        problems.append("U*M*V != S")
    diag = [s[i][i] for i in range(min(nr, nc))]
    if any(s[i][j] for i in range(nr) for j in range(nc) if i != j):
        problems.append("S is not diagonal")
    nonzero = diag[:rank]
    if any(d <= 0 for d in nonzero) or any(diag[rank:]):
        problems.append(f"diagonal is not {rank} positive entries then zeros")
    elif any(b % a for a, b in zip(nonzero, nonzero[1:])):
        problems.append("diagonal is not a divisibility chain")
    for name, t in (("U", u), ("V", v)):
        d = checker.det_exact(t)
        if abs(d) != 1:
            problems.append(f"|det {name}| = {abs(d)}")
    if len(kernel) != nc - true_rank:
        problems.append(f"{len(kernel)} kernel vectors, nullity {nc - true_rank}")
    if kernel:
        columns = [list(c) for c in zip(*kernel)]
        if any(any(row) for row in checker.matmul(m, columns, nc)):
            problems.append("M*x != 0 for a kernel vector")
        # A basis of a direct summand stays independent modulo every prime.
        basis = checker.sparse_rows(kernel)
        if any(checker.rank_mod_p(basis, p) != len(kernel) for p in checker.PRIMES):
            problems.append("kernel vectors do not span a direct summand")
    torsion = tuple(d for d in nonzero if d >= 2)
    if coker != (nr - true_rank, torsion):
        problems.append(f"cokernel {coker}, expected {(nr - true_rank, torsion)}")
    problems += checker.torsion_rank_problems(
        checker.sparse_rows(m), true_rank, {"cokernel": coker[1]}
    )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("harness-small", harness_cases, harness_op, harness_summary, harness_check),
        Workload("large-sparse", sparse_cases, graph_op, graph_summary, sparse_check,
                 ref_scan=True),
        Workload("dense-snf", dense_cases, dense_op, dense_summary, dense_check),
    )
}
