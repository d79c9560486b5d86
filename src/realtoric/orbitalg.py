"""Orbit lattices and the mod-2 group algebra of 2-torsion tori.

For a cone of codimension p the quotient lattice has rank p; its mod-2
reduction V is an F_2 vector space of dimension p, and the 2-torsion
subgroup of the quotient torus is canonically V.  The homology of that
finite group is the group algebra F_2[V], with elements bit-packed over
the 2^p group elements.

The induced projection of a facet pair is the bit product of the mod-2
rows of the two cones' lattice data, and the group-algebra map of a
linear map m fills its image table one low bit at a time: the image of
g is that of g without its low bit, plus the column of m at that bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Tuple

from .fan import Fan, _per_fan
from .gf2 import CrossCheckFailed, Mat2, _mul_rows, _rank, subset_masks, subset_shift_masks

__all__ = [
    "OrbitLattice",
    "orbit_lattice",
    "induced_projection_mod2",
    "torus_homology_dims",
    "group_algebra_map",
    "GroupAlgebraElement",
    "y_basis_change",
    "y_coords",
    "augmentation_filtration_dims",
    "graded_piece_basis",
    "diagonal_class_check",
]


@dataclass(frozen=True)
class OrbitLattice:
    """Quotient lattice data for one cone.

    projection maps the ambient lattice onto Z^codim with kernel the
    saturated span of the cone's rays; section is an integer right inverse.
    mod2 and section_mod2 are the two reduced mod 2.
    """

    cone: int
    codim: int
    projection: Tuple[Tuple[int, ...], ...]
    section: Tuple[Tuple[int, ...], ...]
    mod2: Mat2
    section_mod2: Mat2


@_per_fan
def orbit_lattice(fan: Fan, ci: int) -> OrbitLattice:
    """Projection of the ambient lattice onto the orbit lattice of cone ci:
    the cone's projection and section from the fan build, reduced mod 2."""
    proj, sect = fan.orbit_quotient(ci)
    codim = fan.rank - fan.cones[ci].dim
    return OrbitLattice(
        cone=ci,
        codim=codim,
        projection=proj,
        section=sect,
        mod2=Mat2.from_rows(proj, ncols=fan.rank),
        section_mod2=Mat2.from_rows(sect, ncols=codim),
    )


def induced_projection_mod2(fan: Fan, si: int, ti: int) -> Mat2:
    """Mod-2 matrix of the surjection from the orbit space of cone si onto
    that of cone ti, for si a face of ti.

    The projection of ti composed with the section of si, both reduced
    mod 2: reduction is a ring map, so this is the integral product
    reduced, independent of any mod-2 lift choice.
    """
    if fan.ray_masks[si] & ~fan.ray_masks[ti]:
        raise CrossCheckFailed(f"cone {si} is not a face of cone {ti}")
    source, target = orbit_lattice(fan, si), orbit_lattice(fan, ti)
    rows = _mul_rows(target.mod2.rows, source.section_mod2.rows)
    if _rank(rows) != len(rows):
        raise CrossCheckFailed(f"induced projection {si} -> {ti} is not surjective")
    return Mat2(target.codim, source.codim, rows)


def torus_homology_dims(p: int) -> List[int]:
    """Mod-2 Betti numbers of a rank-p real torus: binomial coefficients."""
    return [comb(p, k) for k in range(p + 1)]


def group_algebra_map(m: Mat2) -> Mat2:
    """Functorial map F_2[source group] -> F_2[target group] induced by a
    linear map m of F_2 vector spaces: the basis point g goes to m(g).

    Shape 2^m.nrows x 2^m.ncols, columns indexed by source group elements
    as bitmasks.
    """
    a, b = m.ncols, m.nrows
    cols = [m.col(j) for j in range(a)]
    image = [0] * (1 << a)
    rows = [0] * (1 << b)
    rows[0] = 1
    for g in range(1, 1 << a):
        low = g & -g
        image[g] = h = image[g ^ low] ^ cols[low.bit_length() - 1]
        rows[h] |= 1 << g
    return Mat2(1 << b, 1 << a, rows)


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


def augmentation_filtration_dims(rank: int) -> List[int]:
    """Dimensions of the powers of the augmentation ideal, I^0 through
    I^{rank+1}; dim I^k counts the subsets of size at least k."""
    return [
        sum(comb(rank, j) for j in range(k, rank + 1)) for k in range(rank + 1)
    ] + [0]


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
    return Mat2.from_cols(1 << rank, cols)


def diagonal_class_check() -> bool:
    """The rank-2 diagonal subgroup identity: the fundamental class of the
    diagonal equals y^{1} + y^{2} + y^{1,2} in the y basis."""
    diag = GroupAlgebraElement(2, (1 << 0) | (1 << 3))
    y1 = GroupAlgebraElement(2, (1 << 0) | (1 << 1))
    y2 = GroupAlgebraElement(2, (1 << 0) | (1 << 2))
    y12 = y1 * y2
    assert y12.bits == (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
    return diag == y1 + y2 + y12
