"""Orbit lattices and the mod-2 group algebra of 2-torsion tori.

For a cone of codimension p the quotient lattice has rank p; its mod-2
reduction V is an F_2 vector space of dimension p, and the 2-torsion
subgroup of the quotient torus is canonically V.  The homology of that
finite group is the group algebra F_2[V], with elements bit-packed over
the 2^p group elements.

The induced projections of the facet pairs, bit products of the two
cones' mod-2 lattice data, are grouped by `spectral._projection_groups`.
The group-algebra map of a linear map m fills its image table one low
bit at a time: the image of g is that of g without its low bit, plus the
column of m at that bit.
"""
from __future__ import annotations

from math import comb
from typing import List, NamedTuple, Tuple

from .fan import Fan, _per_fan
from .gf2 import Mat2

__all__ = [
    "OrbitLattice",
    "orbit_lattice",
    "group_algebra_map",
    "augmentation_filtration_dims",
]


class OrbitLattice(NamedTuple):
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


def augmentation_filtration_dims(rank: int) -> List[int]:
    """Dimensions of the powers of the augmentation ideal, I^0 through
    I^{rank+1}; dim I^k counts the subsets of size at least k."""
    return [
        sum(comb(rank, j) for j in range(k, rank + 1)) for k in range(rank + 1)
    ] + [0]
