"""Spectral-sequence pages over GF(2) for a rational fan.

Complex side: the orbit filtration of the complex points gives an E page
whose first-page rows are chain complexes of exterior powers of orbit
lattices; the second page is their homology.

Real side: the closed-support homology of the real points is computed by
a cellular complex whose degree-p term is the direct sum of the group
algebras F_2[V(sigma)] over codimension-p cones.  Filtering each group
algebra by powers of the augmentation ideal yields G pages indexed in
the second quadrant; the first G page is expected to match the second E
page under reindexing, and the match is tested rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .fan import Fan, _per_fan
from .gf2 import (
    ChainComplex, CrossCheckFailed, Mat2, assemble_blocks, exterior_power, subset_masks,
)
from .orbitalg import group_algebra_map, induced_projection_mod2, y_basis_change

__all__ = [
    "PageTable",
    "RealComplex",
    "e1_page",
    "e2_dims",
    "real_complex",
    "betti_real",
    "g_pages",
    "rightmost_column_split",
    "real_position_of_complex",
    "complex_position_of_real",
]


@dataclass
class PageTable:
    """Dimensions of one spectral-sequence page.

    entries maps (p, q) to a dimension; structural zeros are stored so
    table lookups never need support bookkeeping.  E pages live in the
    triangle 0 <= q <= p <= rank; G pages in the second quadrant with
    -rank <= p <= 0.  For a G0 table, complexes holds the graded
    complexes (one per filtration level) whose homology is G1.
    """

    label: str
    entries: Dict[Tuple[int, int], int]
    complexes: Optional[Dict[int, ChainComplex]] = None

    def get(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def triples(self) -> List[Tuple[int, int, int]]:
        """Flat [(p, q, dim)] listing, sorted by position."""
        return [(p, q, d) for (p, q), d in sorted(self.entries.items())]

    def nonzero(self) -> List[Tuple[int, int, int]]:
        return [(p, q, d) for (p, q), d in sorted(self.entries.items()) if d]


def real_position_of_complex(p: int, q: int) -> Tuple[int, int]:
    """E-page position (p, q) viewed on the G side: (-q, p + q)."""
    return (-q, p + q)


def complex_position_of_real(p: int, q: int) -> Tuple[int, int]:
    """G-page position (p, q) viewed on the E side: (p + q, -p)."""
    return (p + q, -p)


@_per_fan
def _projection_groups(fan: Fan) -> List[Dict[Mat2, List[Tuple[int, int]]]]:
    """For each degree p, the facet pairs (si, ti) with si of codimension
    p grouped by their induced projection, as (row block, column block)
    positions: the block of ti in stratum p - 1, of si in stratum p."""
    pos = {ci: j for stratum in fan.strata for j, ci in enumerate(stratum)}
    groups: List[Dict[Mat2, List[Tuple[int, int]]]] = [{} for _ in fan.strata]
    for si, ti in fan.facet_pairs():
        m = induced_projection_mod2(fan, si, ti)
        groups[fan.rank - fan.cones[si].dim].setdefault(m, []).append((pos[ti], pos[si]))
    return groups


def _boundary(
    fan: Fan, p: int, row_size: int, col_size: int, block: Callable[[Mat2], Mat2]
) -> Mat2:
    """Degree-p boundary whose block for each facet pair is block(m) of its
    induced projection m, evaluated once per distinct m."""
    blocks = {}
    for m, where in _projection_groups(fan)[p].items():
        b = block(m)
        blocks.update((rc, b) for rc in where)
    return assemble_blocks(
        [row_size] * len(fan.strata[p - 1]), [col_size] * len(fan.strata[p]), blocks
    )


@_per_fan
def e1_page(fan: Fan) -> Tuple[PageTable, Dict[int, ChainComplex]]:
    """First page of the complex orbit spectral sequence.

    Returns the dimension table and, for each q, the row complex whose
    degree-p term is the sum of q-th exterior powers of the orbit spaces
    of codimension-p cones; boundary blocks are exterior powers of the
    induced projections over facet pairs.
    """
    n = fan.rank
    entries: Dict[Tuple[int, int], int] = {}
    complexes: Dict[int, ChainComplex] = {}
    for q in range(n + 1):
        dims = [len(fan.strata[p]) * comb(p, q) for p in range(n + 1)]
        boundaries = [
            _boundary(fan, p, comb(p - 1, q), comb(p, q), lambda m: exterior_power(m, q))
            for p in range(1, n + 1)
        ]
        complexes[q] = ChainComplex(dims, boundaries)
        for p in range(q, n + 1):
            entries[(p, q)] = dims[p]
    return PageTable("E1", entries), complexes


@_per_fan
def e2_dims(fan: Fan) -> PageTable:
    """Second page: homology of each E1 row complex."""
    _, complexes = e1_page(fan)
    entries: Dict[Tuple[int, int], int] = {}
    for q, cc in complexes.items():
        h = cc.homology_dims()
        for p in range(q, fan.rank + 1):
            entries[(p, q)] = h[p]
    return PageTable("E2", entries)


@dataclass
class RealComplex:
    """Cellular complex of the real points.

    chain.dims[p] = |Delta^p| * 2^p; block_index maps (degree, cone
    index) to the (offset, size) coordinate range of that cone's group
    algebra inside the degree-p term.
    """

    chain: ChainComplex
    block_index: Dict[Tuple[int, int], Tuple[int, int]] = field(repr=False)


@_per_fan
def _group_algebra_block(fan: Fan, m: Mat2) -> Mat2:
    """The real-complex block of every facet pair with induced projection
    m, shared by the real complex and its y-basis block."""
    return group_algebra_map(m)


@_per_fan
def real_complex(fan: Fan) -> RealComplex:
    """Chain complex of 2-torsion group algebras computing the
    closed-support mod-2 homology of the real points."""
    n = fan.rank
    dims = [len(fan.strata[p]) << p for p in range(n + 1)]
    block_index: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for p in range(n + 1):
        for j, ci in enumerate(fan.strata[p]):
            block_index[(p, ci)] = (j << p, 1 << p)
    boundaries = [
        _boundary(fan, p, 1 << (p - 1), 1 << p, lambda m: _group_algebra_block(fan, m))
        for p in range(1, n + 1)
    ]
    return RealComplex(ChainComplex(dims, boundaries), block_index)


@_per_fan
def betti_real(fan: Fan) -> List[int]:
    """Closed-support mod-2 Betti numbers b_0..b_n of the real points."""
    return real_complex(fan).chain.homology_dims()


@_per_fan
def _y_blocks(fan: Fan) -> Dict[Mat2, Mat2]:
    """Each distinct induced projection m mapped to its real-complex block
    in the y basis, y_basis_change(p - 1) @ G @ y_basis_change(p) for the
    shared block G of degree p.  Coordinate i of a block is y^S for the
    subset S with bitmask i, so its filtration level is i.bit_count()."""
    zetas = [y_basis_change(p) for p in range(fan.rank + 1)]
    return {
        m: zetas[p - 1] @ _group_algebra_block(fan, m) @ zetas[p]
        for p, groups in enumerate(_projection_groups(fan))
        for m in groups
    }


def _entry_levels(fan: Fan) -> Iterator[Tuple[int, int]]:
    """(row level, column level) of every non-zero entry of every distinct
    y-basis block; these are the levels of every entry of the y-basis
    boundaries, since a level depends only on the position in a block."""
    for b in _y_blocks(fan).values():
        for r, bits in enumerate(b.rows):
            while bits:
                low = bits & -bits
                yield r.bit_count(), (low.bit_length() - 1).bit_count()
                bits ^= low


@_per_fan
def g_pages(fan: Fan) -> Tuple[PageTable, PageTable]:
    """G0 and G1 pages of the augmentation-ideal filtration on the real
    cellular complex, indexed at (-k, m + k) for filtration level k and
    chain degree m.

    The graded complexes are built directly from the filtered complex,
    so the identity with the complex-side second page stays an
    independent cross-check.  The filtration gate and every level-k
    boundary read the distinct y-basis blocks: each block is checked to
    respect the filtration, and its level-k slice is placed at every
    facet pair sharing its projection.  No y-basis boundary is assembled.
    """
    n = fan.rank
    if not all(row >= col for row, col in _entry_levels(fan)):
        raise CrossCheckFailed("boundary does not respect the augmentation filtration")
    y_blocks = _y_blocks(fan)
    masks = [[subset_masks(p, k) for k in range(n + 1)] for p in range(n + 1)]

    def level(p: int, k: int) -> Mat2:
        rows, cols = masks[p - 1][k], masks[p][k]
        if not rows:  # k >= p: degree p - 1 has no level-k coordinates
            return Mat2(0, len(fan.strata[p]) * len(cols))
        return _boundary(
            fan, p, len(rows), len(cols), lambda m: y_blocks[m].submatrix(rows, cols)
        )

    complexes = {
        k: ChainComplex(
            [len(fan.strata[p]) * comb(p, k) for p in range(n + 1)],
            [level(p, k) for p in range(1, n + 1)],
        )
        for k in range(n + 1)
    }
    g0_entries: Dict[Tuple[int, int], int] = {}
    g1_entries: Dict[Tuple[int, int], int] = {}
    for k, cc in complexes.items():
        h = cc.homology_dims()
        for m in range(k, n + 1):
            g0_entries[(-k, m + k)] = cc.dims[m]
            g1_entries[(-k, m + k)] = h[m]
    return (
        PageTable("G0", g0_entries, complexes=complexes),
        PageTable("G1", g1_entries),
    )


def rightmost_column_split(fan: Fan) -> bool:
    """Whether the real cellular complex splits off the span of the unit
    group elements as a direct summand.

    In the y basis the unit of each group algebra is the level-0
    coordinate, so the split holds exactly when every boundary entry
    couples a level-0 column to level-0 rows only and a positive-level
    column to positive-level rows only.  This makes every differential
    leaving the rightmost G column vanish on all pages.  The entries are
    read from the distinct y-basis blocks; no y-basis boundary is
    assembled.
    """
    return all((row == 0) == (col == 0) for row, col in _entry_levels(fan))
