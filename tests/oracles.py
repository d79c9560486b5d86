"""The point-basis reference model that the y-basis code is tested against.

The real side of the calculator works in the y basis of the mod-2 group
algebra of each orbit's 2-torsion torus, one block per distinct induced
projection.  The definitions here are the model it was first written in:
group-algebra elements in the point basis, the change to the y basis, the
graded pieces of the augmentation filtration, and the plain `Mat2`
helpers (entries, matrix-vector products, transposes, matrices from
columns, identities, submatrices) that the tests build their references
from.  The dense d o d gate, one product of whole consecutive boundaries,
is the reference that the blockwise gate of the spectral module is tested
against.  One exterior power at a time, block matrices from a dict of
blocks, the induced projection of one facet pair and the dense y-basis
change are the references for `gf2.exterior_powers`, `spectral._place`,
`spectral._projection_groups` and `spectral._y_block`.  A scan of every
triple of points is the reference for `constructions._hull3_facets`.
The fraction-free Bareiss `determinant` is the integer reference for
minors, cofactors and exterior powers.  A sympy `lin_rank` and the
elimination that also tracks U^-1 (`column_step_with_inverse`, folded by
`echelon_with_inverse`; `quotient_with_section` reads (P, R) off it) are
the references for each cone's dimension, its P and an integer section R,
and `orbit_lattice` reduces a cone's P and that R mod 2 for
`induced_projection_mod2`: the integer product, which the package's mod-2
sections must reproduce.  Fourier-Motzkin elimination
(`fourier_motzkin`), which refuses a step before building it if the step
would hold too many rows, is the generator-side reference for the pair
check, which decides by double description.  The questions the
calculator never asks of a `Fan` (`cone_index`, `cone_vectors`, `faces_of`,
`is_simplicial`, `is_nonsingular`, `f_vector`, `h_vector`), of a `Mat2`
(`is_zero`) and of a `PageTable` (`nonzero`) are answered here for the
tests.

The checkers of the paper's lemmas, which the calculator does not run,
read its pages and pivot counts, and the boundaries that
`spectral._e1_boundaries` and `spectral._real_boundaries` place, and test
what each lemma says of them:
`betti_complex_nonsingular_complete` (the h-vector gives the complex Betti
numbers of a complete nonsingular fan), `isolated_singularities_shape` (E2
lies on two diagonals when every non-maximal cone is mod-2 regular),
`dim3_kernel_analysis` (the one potentially dangerous higher differential
in rank 3) and `rightmost_column_split` (the level-0 columns of the real
complex split off).  `realtoric` never imports this module.
"""
from __future__ import annotations

from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from sympy import Matrix

from realtoric.analysis import AnalysisError, WrongRank
from realtoric.fan import Fan, _mask
from realtoric.gf2 import (
    CrossCheckFailed,
    Mat2,
    _mul_rows,
    _rank,
    exterior_powers,
    subset_masks,
    subset_shift_masks,
)
from realtoric.intlin import IntMatrix, identity as int_identity, span_elimination
from realtoric.spectral import PageTable, _e1_boundaries, _real_boundaries, e2_dims, real_complex


def entry(m: Mat2, i: int, j: int) -> int:
    return m.rows[i] >> j & 1


def mul_vec(m: Mat2, v: int) -> int:
    """Matrix times column vector (v a bitset over ncols)."""
    acc = 0
    for i, r in enumerate(m.rows):
        if (r & v).bit_count() & 1:
            acc |= 1 << i
    return acc


def transpose(m: Mat2) -> Mat2:
    out = [0] * m.ncols
    for i, r in enumerate(m.rows):
        rr = r
        while rr:
            low = rr & -rr
            out[low.bit_length() - 1] |= 1 << i
            rr ^= low
    return Mat2(m.ncols, m.nrows, out)


def from_cols(nrows: int, col_masks: Sequence[int]) -> Mat2:
    m = Mat2(nrows, len(col_masks))
    for j, mask in enumerate(col_masks):
        for i in range(nrows):
            if mask >> i & 1:
                m.rows[i] |= 1 << j
    return m


def identity(n: int) -> Mat2:
    return Mat2(n, n, [1 << i for i in range(n)])


def is_zero(m: Mat2) -> bool:
    return not any(m.rows)


def submatrix(m: Mat2, row_idx: Sequence[int], col_idx: Sequence[int]) -> Mat2:
    # spread[j]: the output bits that copy column j (several if j repeats)
    spread: Dict[int, int] = {}
    mask = 0
    for jj, j in enumerate(col_idx):
        spread[j] = spread.get(j, 0) | 1 << jj
        mask |= 1 << j
    out = []
    for i in row_idx:
        r = m.rows[i] & mask
        acc = 0
        while r:
            low = r & -r
            acc |= spread[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return Mat2(len(row_idx), len(col_idx), out)


def exterior_power(m: Mat2, q: int) -> Mat2:
    """q-th exterior power: rows and columns are indexed by the q-element
    subsets of the row and column indices in lexicographic order; each
    entry is the corresponding q x q minor over GF(2)."""
    if q < 0:
        raise ValueError(f"exterior power of negative degree {q}")
    if q > max(m.nrows, m.ncols):
        return Mat2(0, 0)
    return exterior_powers(m)[q]


def assemble_blocks(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    blocks: Dict[Tuple[int, int], Mat2],
) -> Mat2:
    """Assemble a block matrix; missing blocks are zero."""
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    out = Mat2(row_off[-1], col_off[-1])
    for (bi, bj), blk in blocks.items():
        assert blk.nrows == row_dims[bi] and blk.ncols == col_dims[bj]
        shift = col_off[bj]
        base = row_off[bi]
        for i, r in enumerate(blk.rows):
            out.rows[base + i] |= r << shift
    return out


def dense_d_o_d(boundaries: Sequence[Mat2]) -> None:
    """Raise CrossCheckFailed at the first k with boundaries[k] @
    boundaries[k + 1] != 0, boundaries[k] mapping degree k + 1 to degree k."""
    for k in range(len(boundaries) - 1):
        if not is_zero(boundaries[k] @ boundaries[k + 1]):
            raise CrossCheckFailed(f"d o d != 0 between degrees {k + 2} and {k}")


def torus_homology_dims(p: int) -> List[int]:
    """Mod-2 Betti numbers of a rank-p real torus: binomial coefficients."""
    return [comb(p, k) for k in range(p + 1)]


class GroupAlgebraElement:
    """Element of F_2[(Z/2)^rank], coefficients bit-packed by group element."""

    __slots__ = ("rank", "bits")

    def __init__(self, rank: int, bits: int = 0):
        self.rank = rank
        self.bits = bits & ((1 << (1 << rank)) - 1)

    @classmethod
    def point(cls, rank: int, g: int) -> "GroupAlgebraElement":
        return cls(rank, 1 << g)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        assert self.rank == other.rank
        return GroupAlgebraElement(self.rank, self.bits ^ other.bits)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution product over the group (XOR on indices)."""
        assert self.rank == other.rank
        out = 0
        rest = self.bits
        while rest:
            low = rest & -rest
            g = low.bit_length() - 1
            bb = other.bits
            while bb:
                lo2 = bb & -bb
                h = lo2.bit_length() - 1
                out ^= 1 << (g ^ h)
                bb ^= lo2
            rest ^= low
        return GroupAlgebraElement(self.rank, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.rank == other.rank
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.bits))

    def augmentation(self) -> int:
        """Sum of coefficients: parity of the support size."""
        return self.bits.bit_count() & 1

    def y_support(self) -> int:
        """Support bitmask of the element written in the y basis."""
        return y_coords(self.rank, self.bits)

    def filtration_level(self) -> int:
        """Largest k with the element in the k-th power of the augmentation
        ideal (rank + 1 for the zero element)."""
        if self.bits == 0:
            return self.rank + 1
        ys = self.y_support()
        level = self.rank
        while ys:
            low = ys & -ys
            level = min(level, (low.bit_length() - 1).bit_count())
            ys ^= low
        return level

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(rank={self.rank}, bits={self.bits:#x})"


def orbit_lattice(fan: Fan, ci: int) -> Tuple[Mat2, Mat2]:
    """The projection of cone ci's orbit lattice, `Fan.orbit_projection`,
    and the integer section R of the reference elimination of its rays,
    both reduced mod 2.  The reference's P is the build's, so R is a right
    inverse of the build's P."""
    proj, sect = quotient_with_section(fan.rank, cone_vectors(fan, ci))
    assert proj == fan.orbit_projection(ci), (fan, ci)
    return Mat2.from_rows(proj, ncols=fan.rank), Mat2.from_rows(sect, ncols=len(proj))


def induced_projection_mod2(fan: Fan, si: int, ti: int) -> Mat2:
    """Mod-2 matrix of the surjection from the orbit space of cone si onto
    that of cone ti, for si a face of ti.

    The projection of ti composed with the section of si, both reduced
    mod 2: reduction is a ring map, so this is the integral product
    reduced, independent of any mod-2 lift choice.
    """
    if fan.ray_masks[si] & ~fan.ray_masks[ti]:
        raise CrossCheckFailed(f"cone {si} is not a face of cone {ti}")
    (target, _), (_, source) = orbit_lattice(fan, ti), orbit_lattice(fan, si)
    rows = _mul_rows(target.rows, source.rows)
    if _rank(rows) != len(rows):
        raise CrossCheckFailed(f"induced projection {si} -> {ti} is not surjective")
    return Mat2(target.nrows, source.ncols, rows)


def y_basis_change(rank: int) -> Mat2:
    """Matrix whose column S is the y-basis element y^S written in the
    point basis: the subset containment matrix, an involution mod 2."""
    size = 1 << rank
    rows = []
    for t in range(size):
        acc = 0
        for s in range(size):
            if s & t == t:
                acc |= 1 << s
        rows.append(acc)
    return Mat2(size, size, rows)


def y_coords(rank: int, bits: int) -> int:
    """Coordinates in the y basis of a point-basis coefficient vector.

    The change of basis is the subset zeta transform mod 2, which is an
    involution, so this function is its own inverse.
    """
    bits &= (1 << (1 << rank)) - 1
    # coordinate S gains that of S | {c}, for each c not in S
    for c, keep in enumerate(subset_shift_masks(rank)):
        bits ^= (bits >> (1 << c)) & keep
    return bits


def graded_piece_basis(rank: int, k: int) -> Mat2:
    """Point-basis coordinates of the y-basis elements y^S with |S| = k,
    as columns in lexicographic order of the subsets."""
    cols = []
    for s_mask in subset_masks(rank, k):
        acc = 0
        sub = s_mask
        while True:
            acc |= 1 << sub
            if sub == 0:
                break
            sub = (sub - 1) & s_mask
        cols.append(acc)
    return from_cols(1 << rank, cols)


def diagonal_class_check() -> bool:
    """The rank-2 diagonal subgroup identity: the fundamental class of the
    diagonal equals y^{1} + y^{2} + y^{1,2} in the y basis."""
    diag = GroupAlgebraElement(2, (1 << 0) | (1 << 3))
    y1 = GroupAlgebraElement(2, (1 << 0) | (1 << 1))
    y2 = GroupAlgebraElement(2, (1 << 0) | (1 << 2))
    y12 = y1 * y2
    assert y12.bits == (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
    return diag == y1 + y2 + y12


def hull3_facets(rays: Sequence[Tuple[int, ...]]) -> Optional[List[Tuple[int, ...]]]:
    """Facet triangles of the convex hull of the given points in rank 3,
    or None when the origin is not strictly interior or some supporting
    plane holds more than 3 of the points (kept simplicial by rejection)."""
    n = len(rays)
    facets = []
    for sub in combinations(range(n), 3):
        a, b, c = (rays[i] for i in sub)
        nrm = (
            (b[1] - a[1]) * (c[2] - a[2]) - (b[2] - a[2]) * (c[1] - a[1]),
            (b[2] - a[2]) * (c[0] - a[0]) - (b[0] - a[0]) * (c[2] - a[2]),
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]),
        )
        if nrm == (0, 0, 0):
            continue
        off = sum(x * y for x, y in zip(nrm, a))
        vals = [
            sum(x * y for x, y in zip(nrm, rays[i]))
            for i in range(n)
            if i not in sub
        ]
        if all(v < off for v in vals):
            pass
        elif all(v > off for v in vals):
            nrm = tuple(-x for x in nrm)
            off = -off
        else:
            continue
        if off <= 0:
            return None  # origin not strictly inside
        facets.append(sub)
    # a simplicial hull of n points in general position has 2n-4 triangles
    if len(facets) != 2 * n - 4:
        return None
    return facets


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a), "matrix must be square"
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lin_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer vectors, by sympy."""
    return Matrix(vectors).rank()


def column_step_with_inverse(
    u: IntMatrix, w: IntMatrix, r: int, vec: Sequence[int]
) -> Tuple[List[int], IntMatrix, IntMatrix, int]:
    """`intlin._column_step` that also tracks W, the transpose of U^-1:
    returns (col, U', W', r').  Each row operation on U is applied to W,
    so row i of W stays column i of U^-1.  The given lists are not
    changed."""
    col = [sum(map(mul, row, vec)) for row in u]
    u, w = u[:], w[:]
    nrows = len(u)
    while True:
        piv, val = -1, 0
        for i in range(r, nrows):
            x = col[i]
            if x and (not val or abs(x) < abs(val)):
                piv, val = i, x
        if piv < 0:
            return col, u, w, r
        if piv != r:
            # move the pivot row up, keeping the order of the others, as
            # the package's step does
            col.insert(r, col.pop(piv))
            u.insert(r, u.pop(piv))
            w.insert(r, w.pop(piv))
        ur = u[r]
        done = True
        for i in range(r + 1, nrows):
            q = col[i] // val
            if q:
                # row i -= q * row r, so column r of U^-1 += q * column i
                col[i] -= q * val
                u[i] = [x - q * y for x, y in zip(u[i], ur)]
                w[r] = [x + q * y for x, y in zip(w[r], w[i])]
            if col[i]:
                done = False
        if done:
            return col, u, w, r + 1


def echelon_with_inverse(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix, int]:
    """(H, U, W, r): `intlin._echelon` of the matrix a, one
    `column_step_with_inverse` per column, with W the transpose of U^-1."""
    u = int_identity(len(a))
    w = int_identity(len(a))
    r = 0
    cols = []
    for vec in zip(*a):
        col, u, w, r = column_step_with_inverse(u, w, r, vec)
        cols.append(col)
    h = [list(row) for row in zip(*cols)] if cols else [[] for _ in a]
    return h, u, w, r


def quotient_with_section(
    rank: int, vectors: Sequence[Sequence[int]]
) -> Tuple[IntMatrix, IntMatrix]:
    """(P, R) of a fresh elimination of the vectors in Z^rank: P is rows
    r.. of U, as `intlin.span_elimination` gives it, and R is columns r..
    of U^-1, read off W, an integer right inverse of P."""
    assert all(len(vec) == rank for vec in vectors)
    _, u, w, r = echelon_with_inverse(list(zip(*vectors)) or [()] * rank)
    return u[r:], [list(col) for col in zip(*w[r:])] or [[] for _ in u]


# The default row limit of `fourier_motzkin`.
FM_ROW_LIMIT = 200000


class TooManyRows(Exception):
    """A Fourier-Motzkin step would hold more rows than its limit."""


def fourier_motzkin(
    nvars: int, constraints: List[Tuple[Tuple[int, ...], int]], limit: int = FM_ROW_LIMIT
) -> bool:
    """Whether the integer constraints a.x >= c in nvars unknowns have a
    rational solution, by Fourier-Motzkin elimination.  Each step
    eliminates the unknown with the fewest pairs of a positive and a
    negative coefficient; TooManyRows is raised before a step whose rows,
    len(pos) * len(neg) + len(keep), would be more than limit."""
    rows = constraints
    while True:
        if any(c > 0 for a, c in rows if not any(a)):
            return False
        live = [v for v in range(nvars) if any(a[v] for a, _ in rows)]
        if not live:
            return True
        v = min(live, key=lambda u: sum(a[u] > 0 for a, _ in rows) * sum(a[u] < 0 for a, _ in rows))
        pos = [(a, c) for a, c in rows if a[v] > 0]
        neg = [(a, c) for a, c in rows if a[v] < 0]
        keep = [(a, c) for a, c in rows if a[v] == 0]
        if len(pos) * len(neg) + len(keep) > limit:
            raise TooManyRows(f"a Fourier-Motzkin step would hold more than {limit} rows")
        new_rows = dict.fromkeys(keep)
        for ap, cp in pos:
            for an, cn in neg:
                s, t = -an[v], ap[v]
                b = tuple(s * x + t * y for x, y in zip(ap, an))
                d = s * cp + t * cn
                g = gcd(d, *b)
                if g > 1:
                    b, d = tuple(x // g for x in b), d // g
                new_rows[(b, d)] = None
        rows = list(new_rows)


def cone_index(fan: Fan, ray_indices: Sequence[int]) -> int:
    return fan.ray_masks.index(_mask(ray_indices))


def cone_vectors(fan: Fan, ci: int) -> List[Tuple[int, ...]]:
    return [fan.rays[i] for i in fan.cones[ci].rays]


def faces_of(fan: Fan, ci: int) -> Tuple[int, ...]:
    """Cone ci and all its faces, in cone order: its facets, theirs,
    and so on down to the zero cone."""
    faces, frontier = {ci}, {ci}
    while frontier:
        frontier = {si for ti in frontier for si in fan._facets[ti]} - faces
        faces |= frontier
    return tuple(sorted(faces))


def is_simplicial(fan: Fan) -> bool:
    return all(len(c.rays) == c.dim for c in fan.cones)


def is_nonsingular(fan: Fan) -> bool:
    """True iff every cone's rays form part of a lattice basis.

    A subset of a basis is part of a basis, so only the maximal cones
    are checked.  Independent rays span a lattice of index
    |prod of the pivots| in its saturation, read off the diagonal of H
    in their `span_elimination` U @ A = [H; 0].
    """
    for ci in fan.maximal_cones():
        c = fan.cones[ci]
        if len(c.rays) != c.dim:
            return False
        h = span_elimination(fan.rank, cone_vectors(fan, ci))[0]
        if any(abs(h[i][i]) != 1 for i in range(c.dim)):
            return False
    return True


def f_vector(fan: Fan) -> List[int]:
    """[f_{-1}, f_0, ..., f_{n-1}] where f_{k} counts (k+1)-dimensional cones."""
    counts = [0] * (fan.rank + 1)
    for c in fan.cones:
        counts[c.dim] += 1
    return counts


def h_vector(fan: Fan) -> List[int]:
    """Binomial transform of the f-vector.

    Meaningful as a Betti vector only for complete simplicial fans;
    computed unconditionally.
    """
    f = f_vector(fan)
    n = fan.rank
    return [
        sum(
            (-1) ** (k - i) * comb(n - i, k - i) * f[i]
            for i in range(k + 1)
        )
        for k in range(n + 1)
    ]


def nonzero(table: PageTable) -> List[Tuple[int, int, int]]:
    return [(p, q, d) for (p, q), d in sorted(table.entries.items()) if d]


class Inapplicable(AnalysisError):
    pass


class PreconditionFailed(AnalysisError):
    def __init__(self, message: str, offenders: Sequence[int] = ()):
        super().__init__(message)
        self.offenders = tuple(offenders)


def betti_complex_nonsingular_complete(fan: Fan) -> List[int]:
    """Mod-2 Betti numbers b_0..b_{2n} of the complex points of a
    complete nonsingular toric variety: even degrees carry the fan's
    h-vector, odd degrees vanish."""
    if not fan.is_complete():
        raise Inapplicable("fan is not complete")
    if not is_nonsingular(fan):
        raise Inapplicable("fan is not nonsingular")
    h = h_vector(fan)
    out = [0] * (2 * fan.rank + 1)
    for k, v in enumerate(h):
        out[2 * k] = v
    return out


def _mod2_regular(fan: Fan, ci: int) -> bool:
    """A cone is mod-2 regular when its rays are independent in N/2N (so
    they extend to a basis of the mod-2 lattice)."""
    cone = fan.cones[ci]
    if len(cone.rays) != cone.dim:
        return False
    rows = [[c & 1 for c in fan.rays[i]] for i in cone.rays]
    return Mat2.from_rows(rows, ncols=fan.rank).rank() == cone.dim


def isolated_singularities_shape(fan: Fan) -> bool:
    """For a complete fan all of whose non-maximal cones are mod-2
    regular (singularities confined to the deepest orbits), the second
    complex page must be supported on the two diagonals p = q and
    p = q + 1; returns whether it is."""
    if not fan.is_complete():
        raise PreconditionFailed("fan is not complete")
    maximal = set(fan.maximal_cones())
    offenders = [
        ci
        for ci in range(len(fan.cones))
        if ci not in maximal
        and fan.cones[ci].dim > 0
        and not _mod2_regular(fan, ci)
    ]
    if offenders:
        raise PreconditionFailed(
            "non-maximal cones are not mod-2 regular: "
            + ", ".join(str(fan.cones[ci].rays) for ci in offenders),
            offenders,
        )
    e2 = e2_dims(fan)
    return all(d == 0 or p - q in (0, 1) for (p, q), d in e2.entries.items())


class Dim3KernelReport(NamedTuple):
    has_codim2_cones: bool
    injective: Optional[bool]
    kernel_dim: int
    all_same_image: Optional[bool]
    common_image: Optional[Tuple[int, ...]]
    top_chain_kernel_dim: int
    top_graded_kernel_dim: int
    top_degeneration: bool
    note: str


def dim3_kernel_analysis(fan: Fan) -> Dim3KernelReport:
    """Diagnostic for the one potentially dangerous higher differential
    in rank 3.

    Reports whether the q = 1 first-page differential out of the deepest
    column is injective; when it is not, all codimension-2 cones must
    share one mod-2 image (the kernel is the common line they span), and
    degeneration at the top chain degree is confirmed by comparing the
    kernel of the unfiltered top boundary with the summed kernels of its
    graded pieces, both read from the pivots of its one reduction.
    """
    if fan.rank != 3:
        raise WrongRank(f"kernel analysis needs rank 3, got {fan.rank}")
    # the q=1 row's boundary from chain degree 3 to 2
    d_top = next(b for p, q, b in _e1_boundaries(fan) if (p, q) == (3, 1))
    kernel_dim = d_top.ncols - d_top.rank()

    rc = real_complex(fan)
    top = rc.pivot_levels[2]  # the pivots of the boundary out of chain degree 3
    top_chain_kernel = rc.dims[3] - sum(top.values())
    top_graded_kernel = rc.dims[3] - sum(c for (r, k), c in top.items() if r == k)

    codim2 = fan.strata[2]
    images = {
        tuple(c & 1 for c in fan.rays[fan.cones[ci].rays[0]]) for ci in codim2
    }
    top_degeneration = top_chain_kernel == top_graded_kernel
    if not codim2:
        injective = all_same_image = common_image = None
        note = "no codimension-2 cones: the target vanishes and injectivity is moot"
    elif kernel_dim == 0:
        injective, all_same_image = True, len(images) == 1
        common_image = next(iter(images)) if all_same_image else None
        note = (
            "q=1 differential out of the deepest column is injective; "
            "no dangerous higher differential"
        )
    elif len(images) != 1:
        raise CrossCheckFailed(
            "non-injective q=1 differential but codimension-2 cones carry "
            "distinct mod-2 images; kernel reasoning is broken"
        )
    else:
        injective, all_same_image, common_image = False, True, next(iter(images))
        note = (
            "all codimension-2 cones share one mod-2 image; the graded "
            "and unfiltered top kernels agree, so the dangerous "
            "differential vanishes"
            if top_degeneration
            else "graded and unfiltered top kernels differ"
        )
    return Dim3KernelReport(
        has_codim2_cones=bool(codim2),
        injective=injective,
        kernel_dim=kernel_dim,
        all_same_image=all_same_image,
        common_image=common_image,
        top_chain_kernel_dim=top_chain_kernel,
        top_graded_kernel_dim=top_graded_kernel,
        top_degeneration=top_degeneration,
        note=note,
    )


def rightmost_column_split(fan: Fan) -> bool:
    """Whether the real cellular complex splits off the span of the unit group
    elements, the level-0 y-basis coordinates (the last |Delta^p| of degree p),
    as a direct summand: the filtration gate keeps the other columns off
    level-0 rows, so it does when level-0 columns meet level-0 rows only.
    Then every differential leaving the rightmost G column vanishes."""
    boundaries = [b for b, _, _ in _real_boundaries(fan)]  # every gate passed
    return all(
        not r >> (b.ncols - len(fan.strata[p]))
        for p, b in enumerate(boundaries, 1)
        for r in b.rows[: b.nrows - len(fan.strata[p - 1])]
    )
