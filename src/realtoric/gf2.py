"""Linear algebra over GF(2) with bit-packed rows.

A matrix row is a single Python int used as a bitset: bit j of row i is
the entry (i, j).  This keeps Gaussian elimination at word speed without
any external dependencies.

A set of subsets of range(n) is also a bitset, over range(2**n): bit S
stands for the subset with bitmask S.  On that layout, moving every S
without c to S | {c} is one shift and mask (`subset_shift_masks`), which
the exterior powers' Laplace expansion and the y-basis subset transforms
of the real complex are built from.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["CrossCheckFailed", "Mat2", "subset_masks", "subset_shift_masks", "exterior_powers"]


class CrossCheckFailed(AssertionError):
    """A load-bearing invariant does not hold: raised explicitly, so that
    `python -O` cannot strip the check."""


class Mat2:
    """Dense matrix over GF(2); rows are int bitsets."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [0] * nrows
        else:
            assert len(rows) == nrows
            mask = (1 << ncols) - 1
            self.rows = [r & mask for r in rows]

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], ncols: int | None = None) -> "Mat2":
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        rows, top = [], 0
        for row in entries:
            acc = 0
            for j, x in enumerate(row):
                if x & 1:
                    acc |= 1 << j
            rows.append(acc)
            top |= acc
        if top >> ncols:  # a row longer than ncols
            return cls(len(rows), ncols, rows)
        m = cls.__new__(cls)  # packed once, not masked again
        m.nrows, m.ncols, m.rows = len(rows), ncols, rows
        return m

    def col(self, j: int) -> int:
        mask = 0
        for i in range(self.nrows):
            if self.rows[i] >> j & 1:
                mask |= 1 << i
        return mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat2)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, tuple(self.rows)))

    def __repr__(self) -> str:
        body = ";".join(format(r, f"0{self.ncols}b")[::-1] for r in self.rows)
        return f"Mat2({self.nrows}x{self.ncols}:{body})"

    def __add__(self, other: "Mat2") -> "Mat2":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return Mat2(self.nrows, self.ncols, [a ^ b for a, b in zip(self.rows, other.rows)])

    def __matmul__(self, other: "Mat2") -> "Mat2":
        assert self.ncols == other.nrows, "inner dimensions must agree"
        return Mat2(self.nrows, other.ncols, _mul_rows(self.rows, other.rows))

    def rank(self) -> int:
        return _rank(self.rows)


def _mul_rows(a: Iterable[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Rows of the product of the matrices with rows a and b: row i is the
    XOR of the rows of b picked by the bits of a's row i."""
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def _right_inverse(rows: Sequence[int], n: int) -> Tuple[int, ...]:
    """Rows of an n x c right inverse R of the full-rank c x n matrix P with
    the given rows.  Gauss-Jordan on P's rows, row i with the unit bit n + i,
    gives E P = I on pivot columns J; R is E at the rows J, else 0: P R = I.

    For a face sigma of tau, any R gives the same P_tau R_sigma mod 2: the
    span N_sigma is saturated, so 0 -> N_sigma -> N -> Z^c -> 0 is split
    exact, and ker P_sigma mod 2 = N_sigma (x) F_2, inside ker P_tau mod 2,
    holds the difference of any two R, an integer section's reduction too."""
    aug = [r | 1 << n + i for i, r in enumerate(rows)]
    for i, r in enumerate(aug):
        pivot = r & -r
        for k, other in enumerate(aug):
            if k != i and other & pivot:
                aug[k] = other ^ r
    out = [0] * n
    for r in aug:
        out[(r & -r).bit_length() - 1] = r >> n
    return tuple(out)


def _rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of row bitsets: each row is reduced by the pivot
    rows found so far, keyed by their leading bit, until it vanishes or
    its leading bit is new."""
    pivots: Dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = r
                break
            r ^= pivot
    return len(pivots)


@lru_cache(maxsize=None)
def subset_masks(n: int, k: int) -> Tuple[int, ...]:
    """Bitmasks of the k-subsets of range(n), in the lexicographic order of
    combinations(range(n), k): the row and column order of exterior
    powers and of the level-k coordinates of a y basis."""
    return tuple(sum(1 << i for i in c) for c in combinations(range(n), k))


@lru_cache(maxsize=None)
def subset_shift_masks(n: int) -> Tuple[int, ...]:
    """For each c < n, the bitset over range(2**n) of the subsets of range(n)
    without c: (x & masks[c]) << (1 << c) moves each such subset S of the
    bitset x to S | {c}, and drops the subsets holding c."""
    return tuple(
        int(("0" * (1 << c) + "1" * (1 << c)) * (1 << (n - c - 1)), 2) for c in range(n)
    )


@lru_cache(maxsize=None)
def _subset_index_bits(n: int) -> Tuple[int, ...]:
    """1 << (the position of S among the subsets of its size in
    subset_masks order), for every bitmask S over range(n)."""
    out = [0] * (1 << n)
    for k in range(n + 1):
        for j, s in enumerate(subset_masks(n, k)):
            out[s] = 1 << j
    return tuple(out)


def exterior_powers(m: Mat2) -> List[Mat2]:
    """The exterior powers of m for q = 0 .. max(nrows, ncols), from one
    Laplace pass: rows and columns of out[q] are indexed by the q-element
    subsets of the row and column indices in subset_masks order, and each
    entry is the corresponding q x q minor over GF(2).

    The minors of a row subset R are a bitset over the column subsets C.
    That of the empty R holds the empty C only; otherwise R is expanded
    along its last row r: over GF(2) the minor (R, C) is the XOR, over the
    columns c of C with entry (r, c) set, of the minor (R - r, C - c), so the
    minors of R are the XOR, over the set entries c of row r, of those of
    R - r moved from C - c to C."""
    shift = subset_shift_masks(m.ncols)
    minors = [1] + [0] * ((1 << m.nrows) - 1)  # indexed by the bitmask of R
    for r, row in enumerate(m.rows):
        moves = [(shift[c], 1 << c) for c in range(m.ncols) if row >> c & 1]
        top = 1 << r
        for below in range(top):
            lower = minors[below]
            acc = 0
            for keep, step in moves:
                acc ^= (lower & keep) << step
            minors[below | top] = acc
    index = _subset_index_bits(m.ncols)
    out = []
    for q in range(max(m.nrows, m.ncols) + 1):
        rows = []
        for rmask in subset_masks(m.nrows, q):
            x, acc = minors[rmask], 0
            while x:
                low = x & -x
                acc |= index[low.bit_length() - 1]
                x ^= low
            rows.append(acc)
        out.append(Mat2(len(rows), comb(m.ncols, q), rows))
    return out

