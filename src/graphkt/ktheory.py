"""K-theory and Ext of graph C*-algebras, from vertex-matrix block data.

For a finite graph with regular part of size r and singular part of size s,
K0 and K1 are the cokernel and kernel of the stacked (r+s) x r map built
from the transposed blocks, and Ext (under condition (L)) is the cokernel
of the r x (r+s) row map, the transpose of the stacked map.

A matrix and its transpose have the same invariant factors, so all three
groups come from one elimination of the stacked map; Ext is read off it
without building the row map. The elimination runs at most once per
:class:`~graphkt.graphs.Graph` instance: the first of :func:`k_groups`
and :func:`ext_group` to need it fills the graph's ``_stacked`` slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConditionLViolation
from .graphs import BlockDecomposition, Graph, block_decomposition, condition_l, singular_vertices
from .intlinalg import AbelianGroup, IntMatrix, cokernel_of_factors, invariant_factors


@dataclass(frozen=True)
class KTheoryResult:
    """K0, K1 and the stacked matrix they were read from.

    K1 is the kernel of a map between free groups, so it is free: only its
    rank is part of the group identity. A concrete basis comes from
    :func:`graphkt.intlinalg.kernel_basis` on ``stacked_matrix``, which runs
    :func:`~graphkt.intlinalg.snf` and keeps the result on that matrix.
    """

    k0: AbelianGroup
    k1: AbelianGroup
    stacked_matrix: IntMatrix


@dataclass(frozen=True)
class ExtResult:
    """Ext, the cokernel of the row map, and whether condition (L) holds.
    The row map is not kept; :func:`row_matrix` builds it."""

    ext: AbelianGroup
    condition_l_holds: bool


def stacked_matrix(dec: BlockDecomposition) -> IntMatrix:
    """The (r+s) x r map: transposed regular block minus identity over
    transposed regular-to-singular block. Rows are ordered regular then
    singular, matching the graph's vertex order within each class.
    :func:`~graphkt.graphs.block_decomposition` builds it."""
    return dec.stacked


def row_matrix(dec: BlockDecomposition) -> IntMatrix:
    """The r x (r+s) map (regular block minus identity | regular-to-singular
    block), columns ordered regular then singular: the transpose of
    :func:`stacked_matrix`. Its cokernel is Ext."""
    return stacked_matrix(dec).transpose()


def _stacked_factors(g: Graph) -> tuple:
    """The stacked map of g and its invariant factors, computed on first
    use and kept in ``g._stacked``."""
    if g._stacked is None:
        mat = stacked_matrix(block_decomposition(g))
        g._stacked = (mat, invariant_factors(mat))
    return g._stacked


def k_groups(g: Graph) -> KTheoryResult:
    """K0 and K1 of the graph algebra of g."""
    mat, d = _stacked_factors(g)
    return KTheoryResult(cokernel_of_factors(mat.rows, d), AbelianGroup(mat.cols - len(d)), mat)


def ext_group(g: Graph, force: bool = False) -> ExtResult:
    """Ext of the graph algebra of g.

    The formula is only asserted when every cycle has an exit. Without
    ``force`` a violation raises :class:`ConditionLViolation` carrying a
    witness cycle; with ``force`` the matrix cokernel is still computed and
    ``condition_l_holds`` records that the hypothesis was unmet.
    """
    holds, witness = condition_l(g)
    if not holds and not force:
        raise ConditionLViolation(witness)
    stacked, d = _stacked_factors(g)
    return ExtResult(cokernel_of_factors(stacked.cols, d), holds)


def corollary_applies(g: Graph) -> bool:
    """True when every vertex is singular.

    In that case K0 is free of rank |vertices| and K1 and Ext vanish; the
    matrix computation reproduces this, so callers can use it as a
    cross-check rather than a shortcut.
    """
    return len(singular_vertices(g)) == len(g.vertices)
