"""Linear algebra over GF(2) with bit-packed rows.

A matrix row is a single Python int used as a bitset: bit j of row i is
the entry (i, j).  This keeps Gaussian elimination at word speed without
any external dependencies.
"""
from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "CrossCheckFailed", "Mat2", "subset_masks", "exterior_power", "assemble_blocks", "ChainComplex",
]


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
        rows = []
        for row in entries:
            acc = 0
            for j, x in enumerate(row):
                if x & 1:
                    acc |= 1 << j
            rows.append(acc)
        return cls(len(entries), ncols, rows)

    @classmethod
    def from_cols(cls, nrows: int, col_masks: Sequence[int]) -> "Mat2":
        m = cls(nrows, len(col_masks))
        for j, mask in enumerate(col_masks):
            for i in range(nrows):
                if mask >> i & 1:
                    m.rows[i] |= 1 << j
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat2":
        return cls(n, n, [1 << i for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def col(self, j: int) -> int:
        mask = 0
        for i in range(self.nrows):
            if self.rows[i] >> j & 1:
                mask |= 1 << i
        return mask

    def is_zero(self) -> bool:
        return not any(self.rows)

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
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.rows[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return Mat2(self.nrows, other.ncols, out)

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector (v a bitset over ncols)."""
        acc = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                acc |= 1 << i
        return acc

    def transpose(self) -> "Mat2":
        out = [0] * self.ncols
        for i, r in enumerate(self.rows):
            rr = r
            while rr:
                low = rr & -rr
                out[low.bit_length() - 1] |= 1 << i
                rr ^= low
        return Mat2(self.ncols, self.nrows, out)

    def rank(self) -> int:
        return _rank(self.rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat2":
        # spread[j]: the output bits that copy column j (several if j repeats)
        spread: Dict[int, int] = {}
        mask = 0
        for jj, j in enumerate(col_idx):
            spread[j] = spread.get(j, 0) | 1 << jj
            mask |= 1 << j
        out = []
        for i in row_idx:
            r = self.rows[i] & mask
            acc = 0
            while r:
                low = r & -r
                acc |= spread[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return Mat2(len(row_idx), len(col_idx), out)


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


def subset_masks(n: int, k: int) -> List[int]:
    """Bitmasks of the k-subsets of range(n), in the lexicographic order of
    combinations(range(n), k): the row and column order of exterior
    powers and of the level-k coordinates of a y basis."""
    return [sum(1 << i for i in c) for c in combinations(range(n), k)]


def exterior_power(m: Mat2, q: int) -> Mat2:
    """q-th exterior power: rows and columns are indexed by the q-element
    subsets of the row and column indices in lexicographic order; each
    entry is the corresponding q x q minor over GF(2)."""
    assert q >= 0
    col_masks = subset_masks(m.ncols, q)
    out = []
    for picked in combinations(m.rows, q):
        # a minor is 1 exactly when the picked rows, cut down to the
        # column subset, are independent
        acc = 0
        for j, cm in enumerate(col_masks):
            if _rank([r & cm for r in picked]) == q:
                acc |= 1 << j
        out.append(acc)
    return Mat2(len(out), len(col_masks), out)


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


class ChainComplex:
    """Chain complex over GF(2).

    dims[k] is the dimension of the degree-k term; boundaries[k] maps
    degree k+1 to degree k.  Composition of consecutive boundaries is
    checked to vanish at construction time.
    """

    def __init__(self, dims: Sequence[int], boundaries: Sequence[Mat2]):
        assert len(boundaries) == max(len(dims) - 1, 0)
        for k, b in enumerate(boundaries):
            assert b.nrows == dims[k] and b.ncols == dims[k + 1], (
                f"boundary {k} has shape {b.nrows}x{b.ncols}, "
                f"expected {dims[k]}x{dims[k + 1]}"
            )
        for k in range(len(boundaries) - 1):
            if not (boundaries[k] @ boundaries[k + 1]).is_zero():
                raise CrossCheckFailed(f"d o d != 0 between degrees {k + 2} and {k}")
        self.dims = list(dims)
        self.boundaries = list(boundaries)

    def homology_dims(self) -> List[int]:
        n = len(self.dims)
        ranks = [b.rank() for b in self.boundaries]
        out = []
        for k in range(n):
            kernel = self.dims[k] - (ranks[k - 1] if k > 0 else 0)
            image = ranks[k] if k < len(ranks) else 0
            out.append(kernel - image)
        return out

    def total_dim(self) -> int:
        return sum(self.dims)
