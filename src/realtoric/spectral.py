"""Spectral-sequence pages over GF(2) for a rational fan.

Complex side: the orbit filtration of the complex points gives an E page
whose first-page rows are chain complexes of exterior powers of orbit
lattices; the second page is their homology.

Real side: the closed-support homology of the real points is computed by
a cellular complex whose degree-p term is the direct sum of the group
algebras F_2[V(sigma)] over codimension-p cones.  Filtering each group
algebra by powers of the augmentation ideal yields G pages indexed in
the second quadrant.  The complex is assembled once, in the y basis, and
reduced once in increasing degree, skipping the rows that the previous
degree's pivots show to reduce to zero (clearing; Chen & Kerber 2011):
that one reduction gives the Betti numbers of the real points and the
rank of every graded piece, hence G1 (Edelsbrunner, Letscher &
Zomorodian 2002).  The first G page is expected to match the second E
page under reindexing, and the match is tested rather than assumed.

Both sides are built from the distinct induced projections m of the facet
pairs, each checked for surjectivity once.  The E side takes every
exterior power of m from one Laplace pass over m's rows; the real side
takes the group-algebra map of m to the y basis by subset transforms.  The
E side never reads the y blocks, although their diagonal blocks are the
exterior powers, so that E2 = G1 stays an independent cross-check.  One
function places the blocks of both sides, each row once for all the facet
pairs that share it, slot by slot and then cone by cone.  A real slot is a
y^S, by level |S| from p down to 0 and then in subset_masks order (the
pivot pairing does not depend on the order within a level); an E1 slot is
a q-subset in that order, the order of exterior_powers, so each E1 row is
laid out like its level of the real complex.  On both sides d o d = 0 is
checked from those blocks, not from the assembled boundaries.  Each block
of d_p o d_{p+1} is a sum of products of two blocks along its chains; its
signature, the products that occur an odd number of times, is computed
once per fan, and each distinct signature is summed once.
"""
from __future__ import annotations

from collections import Counter
from math import comb
from typing import AbstractSet, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .fan import Fan, _bits, _per_fan
from .gf2 import (
    ChainComplex, CrossCheckFailed, Mat2, _mul_rows, _rank, _right_inverse, exterior_powers,
    subset_masks, subset_shift_masks,
)
from .orbitalg import augmentation_filtration_dims, group_algebra_map

__all__ = [
    "PageTable",
    "RealComplex",
    "e1_page",
    "e2_dims",
    "real_complex",
    "betti_real",
    "g_pages",
    "real_position_of_complex",
    "complex_position_of_real",
]


class PageTable(NamedTuple):
    """Dimensions of one spectral-sequence page.

    entries maps (p, q) to a dimension; structural zeros are stored so
    table lookups never need support bookkeeping.  E pages live in the
    triangle 0 <= q <= p <= rank; G pages in the second quadrant with
    -rank <= p <= 0.
    """

    label: str
    entries: Dict[Tuple[int, int], int]

    def get(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def triples(self) -> List[Tuple[int, int, int]]:
        """Flat [(p, q, dim)] listing, sorted by position."""
        return [(p, q, d) for (p, q), d in sorted(self.entries.items())]


def real_position_of_complex(p: int, q: int) -> Tuple[int, int]:
    """E-page position (p, q) viewed on the G side: (-q, p + q)."""
    return (-q, p + q)


def complex_position_of_real(p: int, q: int) -> Tuple[int, int]:
    """G-page position (p, q) viewed on the E side: (p + q, -p)."""
    return (p + q, -p)


@_per_fan
def _projection_groups(fan: Fan) -> List[List[Tuple[Mat2, List[Tuple[int, int]]]]]:
    """For each degree p, the distinct induced projections m of the facet
    pairs (si, ti) with si of codimension p, in order of first appearance,
    each as (m, its pairs' (row block, column block) positions): the block
    of ti in stratum p - 1, of si in stratum p.

    Each cone's P (`Fan.orbit_projection`) is packed mod 2 and interned once,
    and each distinct P gets one mod-2 section R (`_right_inverse`; any choice
    gives the same m).  A pair's m, the bit product of ti's P and si's R rows,
    is made once per distinct (P of ti, R of si), grouped by its rows.  The face
    check runs on every pair, the surjectivity check once per distinct m."""
    pos = {ci: j for stratum in fan.strata for j, ci in enumerate(stratum)}
    ids: Dict[Tuple[int, ...], int] = {}
    packed = (tuple(Mat2.from_rows(fan.orbit_projection(ci)).rows) for ci in range(len(fan.cones)))
    cone_ids = [ids.setdefault(rows, len(ids)) for rows in packed]
    mod2 = list(ids)
    sections = [_right_inverse(rows, fan.rank) for rows in mod2]
    bases: Dict[Tuple[int, ...], int] = {}  # each distinct R, as its id times len(mod2)
    keys = [bases.setdefault(sections[i], len(bases) * len(mod2)) for i in cone_ids]
    masks = fan.ray_masks
    by_rows: List[Dict[Tuple[int, ...], List[Tuple[int, int]]]] = [{} for _ in fan.strata]
    by_key: Dict[int, List[Tuple[int, int]]] = {}
    for si, ti in fan.facet_pairs():
        if masks[si] & ~masks[ti]:
            raise CrossCheckFailed(f"cone {si} is not a face of cone {ti}")
        key = keys[si] + cone_ids[ti]
        where = by_key.get(key)
        if where is None:
            rows = _mul_rows(mod2[cone_ids[ti]], sections[cone_ids[si]])
            seen = by_rows[len(mod2[cone_ids[si]])]
            where = seen.get(rows)
            if where is None:
                if _rank(rows) != len(rows):
                    raise CrossCheckFailed(f"induced projection {si} -> {ti} is not surjective")
                where = seen[rows] = []
            by_key[key] = where
        where.append((pos[ti], pos[si]))
    return [
        [(Mat2(p - 1, p, rows), where) for rows, where in groups.items()]
        for p, groups in enumerate(by_rows)
    ]


def _place(
    fan: Fan, p: int, blocks: Sequence[Mat2], row_slots: Sequence[int], col_slots: Sequence[int]
) -> Mat2:
    """Degree-p boundary whose block for each facet pair is blocks[i], i the
    position of its induced projection in _projection_groups(fan)[p]: row t
    and column j of a block go to slots row_slots[t] and col_slots[j], slot s
    of the cone at stratum position c to coordinate s * |stratum| + c."""
    rows, cols = len(fan.strata[p - 1]), len(fan.strata[p])
    b = Mat2(len(row_slots) * rows, len(col_slots) * cols)
    for block, (_, where) in zip(blocks, _projection_groups(fan)[p]):
        for t, r in enumerate(block.rows):
            placed = 0
            while r:
                low = r & -r
                placed |= 1 << col_slots[low.bit_length() - 1] * cols
                r ^= low
            row = row_slots[t] * rows
            for a, c in where:
                b.rows[row + a] |= placed << c
    return b


@_per_fan
def _composition_signatures(fan: Fan) -> List[List[Tuple[Tuple[int, int], ...]]]:
    """For each p in 1 .. rank - 1, the distinct non-empty signatures of the
    blocks of d_p o d_{p+1}, each as a tuple of codes (i, j).

    Block (a, c) of d_p o d_{p+1} is the sum, over the chains a > b > c of
    facet pairs, of B_p[i] B_{p+1}[j], with i and j the positions of the
    pairs' projections in _projection_groups(fan)[p] and [p + 1].  Over
    GF(2) a code that occurs twice cancels, so the block is the sum over its
    signature, the codes that occur an odd number of times: blocks with one
    signature are one matrix, and an empty signature is a zero block."""
    groups = _projection_groups(fan)
    out: List[List[Tuple[Tuple[int, int], ...]]] = [[]]
    for p in range(1, fan.rank):
        width = len(groups[p + 1])
        count = len(fan.strata[p + 1])
        # each b's pairs with the cones a above it; a chain a > b > c is the
        # key a * count + c and the bit of code (i, j), i * width + j
        up: List[List[Tuple[int, int]]] = [[] for _ in fan.strata[p]]
        for i, (_, where) in enumerate(groups[p]):
            bit = 1 << i * width
            for a, b in where:
                up[b].append((a * count, bit))
        signatures: Dict[int, int] = {}
        for j, (_, where) in enumerate(groups[p + 1]):
            for b, c in where:
                for a, bit in up[b]:
                    signatures[a + c] = signatures.get(a + c, 0) ^ bit << j
        distinct = set(signatures.values())
        distinct.discard(0)
        out.append([tuple(divmod(code, width) for code in _bits(s)) for s in distinct])
    return out


def _composition_sums(
    fan: Fan, blocks: List[List[Sequence[int]]]
) -> Iterator[Tuple[int, List[int]]]:
    """(p, the rows of its sum) for each distinct signature of d_p o d_{p+1},
    p = 1 .. rank - 1, where d_p has the block with rows blocks[p][i] for
    each facet pair whose projection is at position i of
    _projection_groups(fan)[p].  Each sum is made from one product per code
    (i, j), and every block of every composition is one of the sums: they
    are all zero iff d o d = 0, as a dense product would show."""
    signatures = _composition_signatures(fan)
    for p in range(1, fan.rank):
        left, right = blocks[p], blocks[p + 1]
        products: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for signature in signatures[p]:
            total = [0] * len(left[0])
            for code in signature:
                rows = products.get(code)
                if rows is None:
                    i, j = code
                    rows = products[code] = _mul_rows(left[i], right[j])
                total = [x ^ y for x, y in zip(total, rows)]
            yield p, total


def _d_o_d_error(p: int) -> CrossCheckFailed:
    return CrossCheckFailed(f"d o d != 0 between degrees {p + 1} and {p - 1}")


def _direct_sum(powers: List[Mat2]) -> List[int]:
    """The rows of the block-diagonal matrix of powers, in order: the direct
    sum over q of a projection's exterior powers is its block in the direct
    sum over q of the E1 row complexes."""
    rows: List[int] = []
    shift = 0
    for pw in powers:
        rows += [r << shift for r in pw.rows]
        shift += pw.ncols
    return rows


@_per_fan
def e1_page(fan: Fan) -> Tuple[PageTable, Dict[int, ChainComplex]]:
    """First page of the complex orbit spectral sequence.

    Returns the dimension table and, for each q, the row complex whose
    degree-p term is the sum of q-th exterior powers of the orbit spaces
    of codimension-p cones; boundary blocks are exterior powers of the
    induced projections over facet pairs, all of them from one pass of
    exterior_powers per distinct projection m.  Only m's rows are read.
    Degree p lists its q-subsets in subset_masks order, each with its cones
    in stratum order, as real_complex lists its level-q coordinates.
    Gate: d o d = 0 on every row complex, checked block by block once per
    distinct signature (_composition_sums).
    """
    n = fan.rank
    powers = [[exterior_powers(m) for m, _ in groups] for groups in _projection_groups(fan)]
    # d o d of all row complexes at once, on their direct sum over q
    for p, total in _composition_sums(fan, [list(map(_direct_sum, pws)) for pws in powers]):
        if any(total):
            raise _d_o_d_error(p)
    entries: Dict[Tuple[int, int], int] = {}
    complexes: Dict[int, ChainComplex] = {}
    for q in range(n + 1):
        dims = [len(fan.strata[p]) * comb(p, q) for p in range(n + 1)]
        boundaries = [
            _place(fan, p, [pw[q] for pw in powers[p]], range(comb(p - 1, q)), range(comb(p, q)))
            if q <= p else Mat2(0, 0)
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


class RealComplex(NamedTuple):
    """Cellular complex of the real points in the y basis, reduced once.
    Degree p lists the y^S of its cones by level |S| from p down to 0, then
    by S in subset_masks order, then by cone; levels[p][i] is the level of
    coordinate i.  pivot_levels[p - 1] counts the degree-p boundary's pivots
    by (row level, column level): they sum to its rank, and the (k, k)
    pivots to the rank of its level-k diagonal block."""

    chain: ChainComplex
    levels: List[List[int]]
    pivot_levels: List[Counter[Tuple[int, int]]]

    def __repr__(self) -> str:
        return f"RealComplex(chain={self.chain!r})"


def _y_block(m: Mat2) -> Mat2:
    """The block of m in the y basis, coordinate i being y^S for the subset S
    with bitmask i, of level i.bit_count(): Z(m.nrows) @ group_algebra_map(m)
    @ Z(m.ncols), Z(n) the 2^n x 2^n subset containment matrix (column S is
    y^S in the point basis; the dense reference is y_basis_change in
    tests/oracles.py), as subset transforms of group_algebra_map(m) in
    place.  On the column side each row becomes its subset sums (m.ncols
    shift-and-mask steps); on the row side row T becomes the sum of the
    rows of its supersets (m.nrows butterfly passes)."""
    block = group_algebra_map(m)
    rows = block.rows
    moves = [(keep, 1 << c) for c, keep in enumerate(subset_shift_masks(m.ncols))]
    for t, r in enumerate(rows):
        for keep, step in moves:
            r ^= (r & keep) << step
        rows[t] = r
    for c in range(m.nrows):
        bit = 1 << c
        for t in range(len(rows)):
            if not t & bit:
                rows[t] ^= rows[t | bit]
    return block


def _reduce(
    b: Mat2,
    row_levels: List[int],
    col_levels: List[int],
    cleared: AbstractSet[int] = frozenset(),
    found: Optional[Set[int]] = None,
) -> Counter[Tuple[int, int]]:
    """Reduce the rows of b from the last to the first, each against the
    pivot rows found so far, keyed by their lowest set bit; count the
    pivots by (row level, column level).  The rows in cleared are skipped,
    and the column of each pivot is added to found.

    Read as columns, the rows of the degree-p boundary are the coboundary
    from degree p - 1 to p, and this is its standard column reduction with
    the columns in reversed coordinate order; degree p has one coordinate
    order, for the columns here and for the rows of the degree-(p + 1)
    boundary.  Clearing (Chen & Kerber 2011) skips, in that next boundary,
    each row i that is a pivot column here, and changes no count: a reduced
    row r with lowest bit i is a coboundary e_i + (a sum of e_k, k > i),
    which the next coboundary kills, so row i of the next boundary is the
    sum of its rows k over the other bits k of r, all reduced before row i.
    Row i lies in the span of the pivots found by then, would reduce to
    zero, and adds none."""
    pivots: Dict[int, int] = {}
    out: Counter[Tuple[int, int]] = Counter()
    for i in range(b.nrows - 1, -1, -1):
        if i in cleared:
            continue
        r = b.rows[i]
        while r:
            low = (r & -r).bit_length()
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = r
                out[row_levels[i], col_levels[low - 1]] += 1
                break
            r ^= pivot
    if found is not None:
        found.update(low - 1 for low in pivots)
    return out


@_per_fan
def real_complex(fan: Fan) -> RealComplex:
    """Chain complex of 2-torsion group algebras computing the closed-support
    mod-2 homology of the real points, filtered by the augmentation ideal.
    Each boundary is placed from the distinct y-basis blocks (_place) and
    reduced once.  Gates: a row of level k has no entry in a column of level
    above k, and d o d = 0, which implies it in the point basis (the y basis
    is a conjugate by an involution) and on every graded piece (each
    boundary is block-triangular).  d o d is checked block by block from
    the y blocks, once per distinct signature (_composition_sums).  The
    boundaries are reduced in increasing degree, each skipping the rows that
    the previous one's pivot columns clear (_reduce)."""
    sizes = [len(stratum) for stratum in fan.strata]
    levels = [
        [k for k in range(p, -1, -1) for _ in range(n * comb(p, k))] for p, n in enumerate(sizes)
    ]
    # y^S is in slot slots[p][S]: after the levels above |S|, in subset_masks order
    starts = [augmentation_filtration_dims(p)[1:] for p in range(fan.rank + 1)]
    slots = [
        {s: d + i for k, d in enumerate(starts[p]) for i, s in enumerate(subset_masks(p, k))}
        for p in range(fan.rank + 1)
    ]
    y_blocks = [[_y_block(m) for m, _ in groups] for groups in _projection_groups(fan)]
    boundaries = []
    for p in range(1, fan.rank + 1):
        b = _place(fan, p, y_blocks[p], slots[p - 1], slots[p])
        above = [(1 << sizes[p] * start) - 1 for start in starts[p]]  # columns of level above k
        if any(r & above[k] for r, k in zip(b.rows, levels[p - 1])):
            raise CrossCheckFailed("boundary does not respect the augmentation filtration")
        boundaries.append(b)
    for p, total in _composition_sums(fan, [[y.rows for y in ys] for ys in y_blocks]):
        if any(total):
            raise _d_o_d_error(p)
    pivot_levels = []
    cleared: Set[int] = set()
    for b, row_levels, col_levels in zip(boundaries, levels, levels[1:]):
        found: Set[int] = set()
        pivot_levels.append(_reduce(b, row_levels, col_levels, cleared, found))
        cleared = found
    return RealComplex(ChainComplex([len(lv) for lv in levels], boundaries), levels, pivot_levels)


@_per_fan
def betti_real(fan: Fan) -> List[int]:
    """Closed-support mod-2 Betti numbers b_0..b_n of the real points."""
    rc = real_complex(fan)
    ranks = [0] + [sum(c.values()) for c in rc.pivot_levels] + [0]
    return [d - ranks[m] - ranks[m + 1] for m, d in enumerate(rc.chain.dims)]


@_per_fan
def g_pages(fan: Fan) -> Tuple[PageTable, PageTable]:
    """G0 and G1 pages of the augmentation-ideal filtration on the real
    cellular complex at (-k, m + k) for level k and chain degree m: the cells,
    and those less the (k, k) pivots of the boundaries on either side.  They
    come from the filtered complex, not the E1 rows, so E2 = G1 stays an
    independent cross-check."""
    rc = real_complex(fan)
    g0_entries: Dict[Tuple[int, int], int] = {}
    g1_entries: Dict[Tuple[int, int], int] = {}
    for k in range(fan.rank + 1):
        same = [0] + [c[k, k] for c in rc.pivot_levels] + [0]
        for m in range(k, fan.rank + 1):
            g0_entries[(-k, m + k)] = cells = len(fan.strata[m]) * comb(m, k)
            g1_entries[(-k, m + k)] = cells - same[m] - same[m + 1]
    return PageTable("G0", g0_entries), PageTable("G1", g1_entries)

