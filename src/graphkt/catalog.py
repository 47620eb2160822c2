"""Worked-example graphs stored as .graph files with locked invariant values.

Every harness run re-verifies these; a mismatch means the engine moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .graphio import emit_graph, parse_graph
from .graphs import Graph, condition_l
from .intlinalg import AbelianGroup
from .ktheory import ext_group, k_groups


@dataclass(frozen=True)
class CatalogEntry:
    """Locked expectations: K0, K1, the Ext formula value and the witness
    cycle of a condition (L) failure. With no witness, (L) holds and the
    formula value is Ext itself."""

    name: str
    k0: AbelianGroup
    k1: AbelianGroup
    ext: AbelianGroup
    witness: tuple = ()


CATALOG = (
    CatalogEntry("o2", AbelianGroup(0), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("o3", AbelianGroup(0, (2,)), AbelianGroup(0), AbelianGroup(0, (2,))),
    CatalogEntry("o4", AbelianGroup(0, (3,)), AbelianGroup(0), AbelianGroup(0, (3,))),
    CatalogEntry("o5", AbelianGroup(0, (4,)), AbelianGroup(0), AbelianGroup(0, (4,))),
    CatalogEntry("oinf", AbelianGroup(1), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("sink1", AbelianGroup(1), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("sink2", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("sink3", AbelianGroup(3), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("inf_to_loop", AbelianGroup(2), AbelianGroup(1), AbelianGroup(1), ("w",)),
    CatalogEntry("ea5", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("ea6", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("ea7", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("ea8", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("ea9", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
    CatalogEntry("ea10", AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
)


def catalog_path(name: str):
    return resources.files(__package__) / "catalog" / f"{name}.graph"


def catalog_text(name: str) -> str:
    return catalog_path(name).read_text()


def load(name: str) -> Graph:
    return parse_graph(catalog_text(name))


def verify_catalog() -> list:
    """Recompute every catalog entry; returns one line per stored file that
    is not canonical and per locked value that moved (empty = ok)."""
    problems = []
    for entry in CATALOG:
        text = catalog_text(entry.name)
        g = parse_graph(text)
        if emit_graph(g) != text:
            problems.append(f"{entry.name}: stored file is not canonical")
        r = k_groups(g)
        got = (r.k0, r.k1, ext_group(g, force=True).ext, tuple(condition_l(g)[1] or ()))
        want = (entry.k0, entry.k1, entry.ext, entry.witness)
        for field, value, expected in zip(("K0", "K1", "Ext", "witness"), got, want):
            if value != expected:
                problems.append(f"{entry.name}: {field} = {value}, expected {expected}")
    return problems
