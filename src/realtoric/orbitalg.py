"""The mod-2 group algebra of the 2-torsion tori of the orbits.

For a cone of codimension p the quotient lattice has rank p; its mod-2
reduction V is an F_2 vector space of dimension p, and the 2-torsion
subgroup of the quotient torus is canonically V.  The homology of that
finite group is the group algebra F_2[V], with elements bit-packed over
the 2^p group elements.

The induced projections of the facet pairs, bit products of one cone's
projection and the other's mod-2 section, are made by
`spectral._projection_groups`.
The group-algebra map of a linear map m fills its image table one low
bit at a time: the image of g is that of g without its low bit, plus the
column of m at that bit.
"""
from __future__ import annotations

from math import comb
from typing import List

from .gf2 import Mat2

__all__ = [
    "group_algebra_map",
    "augmentation_filtration_dims",
]


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
