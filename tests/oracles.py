"""The point-basis reference model that the y-basis code is tested against.

The real side of the calculator works in the y basis of the mod-2 group
algebra of each orbit's 2-torsion torus, one block per distinct induced
projection.  The definitions here are the model it was first written in:
group-algebra elements in the point basis, the change to the y basis, the
graded pieces of the augmentation filtration, and the plain `Mat2`
helpers (entries, matrix-vector products, transposes, matrices from
columns, identities) that the tests build their references from.  The
dense d o d gate, one product of whole consecutive boundaries, is the
reference that the blockwise gate of the spectral module is tested against.
`realtoric` never imports this module.
"""
from __future__ import annotations

from math import comb
from typing import List, Sequence

from realtoric.gf2 import ChainComplex, CrossCheckFailed, Mat2, subset_masks, subset_shift_masks


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


def total_dim(cc: ChainComplex) -> int:
    return sum(cc.dims)


def dense_d_o_d(boundaries: Sequence[Mat2]) -> None:
    """Raise CrossCheckFailed at the first k with boundaries[k] @
    boundaries[k + 1] != 0, boundaries[k] mapping degree k + 1 to degree k."""
    for k in range(len(boundaries) - 1):
        if not (boundaries[k] @ boundaries[k + 1]).is_zero():
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
