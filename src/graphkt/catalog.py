"""Worked-example graphs stored as .graph files with locked invariant values.

Every harness run re-verifies these; a mismatch means the engine moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import ConditionLViolation
from .graphio import emit_graph, parse_graph
from .graphs import Graph
from .intlinalg import AbelianGroup
from .ktheory import ext_group, k_groups

TRIVIAL = AbelianGroup(0)


def _free(rank: int) -> AbelianGroup:
    return AbelianGroup(rank)


def _cyclic(n: int) -> AbelianGroup:
    return AbelianGroup(0, (n,))


@dataclass(frozen=True)
class CatalogEntry:
    """Locked expectations: K0, K1, and either an Ext value (condition (L)
    holds) or a witness cycle plus the forced formula value."""

    name: str
    k0: AbelianGroup
    k1: AbelianGroup
    ext: AbelianGroup | None
    ext_witness: tuple = ()
    forced_ext: AbelianGroup | None = None


CATALOG = (
    CatalogEntry("o2", TRIVIAL, TRIVIAL, TRIVIAL),
    CatalogEntry("o3", _cyclic(2), TRIVIAL, _cyclic(2)),
    CatalogEntry("o4", _cyclic(3), TRIVIAL, _cyclic(3)),
    CatalogEntry("o5", _cyclic(4), TRIVIAL, _cyclic(4)),
    CatalogEntry("oinf", _free(1), TRIVIAL, TRIVIAL),
    CatalogEntry("sink1", _free(1), TRIVIAL, TRIVIAL),
    CatalogEntry("sink2", _free(2), TRIVIAL, TRIVIAL),
    CatalogEntry("sink3", _free(3), TRIVIAL, TRIVIAL),
    CatalogEntry(
        "inf_to_loop", _free(2), _free(1), None, ext_witness=("w",), forced_ext=_free(1)
    ),
    CatalogEntry("ea5", _free(2), TRIVIAL, TRIVIAL),
    CatalogEntry("ea6", _free(2), TRIVIAL, TRIVIAL),
    CatalogEntry("ea7", _free(2), TRIVIAL, TRIVIAL),
    CatalogEntry("ea8", _free(2), TRIVIAL, TRIVIAL),
    CatalogEntry("ea9", _free(2), TRIVIAL, TRIVIAL),
    CatalogEntry("ea10", _free(2), TRIVIAL, TRIVIAL),
)


def catalog_dir():
    return resources.files(__package__) / "catalog"


def catalog_path(name: str):
    return catalog_dir() / f"{name}.graph"


def catalog_text(name: str) -> str:
    return catalog_path(name).read_text()


def load(name: str) -> Graph:
    return parse_graph(catalog_text(name))


def verify_catalog() -> list:
    """Recompute every catalog entry; returns a list of problems (empty = ok)."""
    problems = []
    for entry in CATALOG:
        text = catalog_text(entry.name)
        g = parse_graph(text)
        if emit_graph(g) != text:
            problems.append(f"{entry.name}: stored file is not canonical")
        r = k_groups(g)
        if r.k0 != entry.k0:
            problems.append(f"{entry.name}: K0 = {r.k0}, expected {entry.k0}")
        if r.k1 != entry.k1:
            problems.append(f"{entry.name}: K1 = {r.k1}, expected {entry.k1}")
        try:
            res, witness = ext_group(g), None
        except ConditionLViolation as e:
            res, witness = None, e.witness
        if entry.ext is not None:
            if witness is not None:
                problems.append(
                    f"{entry.name}: condition (L) fails with witness {witness}, "
                    f"expected Ext = {entry.ext}"
                )
            elif res.ext != entry.ext or not res.condition_l_holds:
                problems.append(f"{entry.name}: Ext = {res.ext}, expected {entry.ext}")
        elif witness is None:
            problems.append(f"{entry.name}: expected a condition (L) violation")
        else:
            if witness != entry.ext_witness:
                problems.append(f"{entry.name}: witness {witness}, expected {entry.ext_witness}")
            forced = ext_group(g, force=True)
            if forced.ext != entry.forced_ext or forced.condition_l_holds:
                problems.append(
                    f"{entry.name}: forced Ext = {forced.ext}, expected {entry.forced_ext}"
                )
    return problems
