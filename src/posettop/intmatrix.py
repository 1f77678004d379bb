"""Exact integer linear algebra: sparse matrices, Smith normal form,
and independent field-rank elimination.

All arithmetic is arbitrary-precision; nothing here overflows silently.
The Smith normal form routine prefers small pivots (unit pivots with
least fill first, then smallest nonzero magnitude) to limit coefficient
growth.  It draws them from a lazy heap that the row and column
operations feed with the entries they create or change, so no pivot
choice scans the matrix.  The pivots it clears form a diagonal matrix
equivalent to the input; a final pass merges that diagonal with
diag(a, b) ~ diag(gcd(a, b), lcm(a, b)) into the divisibility chain of
invariant factors, which are unique.  Field ranks are computed by
genuinely separate code paths, fraction-free elimination for the
rationals and modular elimination for prime fields.  They are the reference the Smith normal form and the
homology engine are checked against and are on no homology path: the
engine derives every field answer from the integral groups.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence


class MatrixError(ValueError):
    pass


class IntegerMatrix:
    """Sparse integer matrix with exact entries.

    ``entries`` maps ``(row, col)`` to a nonzero int.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int,
                 entries: Mapping[tuple[int, int], int] | None = None):
        if nrows < 0 or ncols < 0:
            raise MatrixError("negative dimensions")
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise MatrixError(f"entry ({r},{c}) out of range")
                if v:
                    self.entries[(r, c)] = int(v)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: int | None = None):
        """
        >>> IntegerMatrix.from_rows([[1, 0], [0, 2]]).to_rows()
        [[1, 0], [0, 2]]
        """
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise MatrixError("ragged rows")
        entries = {(i, j): v for i, r in enumerate(rows)
                   for j, v in enumerate(r) if v}
        return cls(len(rows), ncols, entries)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.ncols, self.nrows,
                             {(c, r): v for (r, c), v in self.entries.items()})

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise MatrixError("shape mismatch")
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], int] = {}
        for (r, k), v in self.entries.items():
            for (c, w) in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + v * w
        return IntegerMatrix(self.nrows, other.ncols,
                             {k: v for k, v in acc.items() if v})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == \
            (other.nrows, other.ncols, other.entries)

    def __repr__(self):
        return f"IntegerMatrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


@dataclass(frozen=True)
class SNFDecomposition:
    """Diagonal of a Smith normal form: d_1 | d_2 | ... , zeros trailing."""

    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def nontrivial(self) -> tuple[int, ...]:
        """Elementary divisors greater than one, ascending."""
        return tuple(d for d in self.diagonal if d > 1)


def _snf_divisors(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> list[int]:
    """Destructively reduce a sparse matrix, returning the nonzero
    diagonal of its Smith normal form in divisibility order.

    ``rows[r][c]`` holds nonzero entries; ``cols[c]`` indexes the rows
    meeting column ``c``.

    Pivots come from a lazy heap keyed like a full scan would rank them:
    unit entries first by Markowitz cost ``(rdeg-1)(cdeg-1)``, then the
    smallest magnitude, ties by position.  Every entry an elimination
    creates or changes is pushed; a popped entry whose key no longer
    matches is re-keyed or, if gone, dropped, so no pivot choice rescans
    the matrix.  A key may lag when only a degree elsewhere changed; that
    steers the choice, never the answer.  Each pivot is shrunk until it
    divides its row and column, which are then cleared, so the pivots
    form a diagonal matrix equivalent to the input.
    ``_divisibility_chain`` turns that diagonal into the invariant
    factors.
    """

    def key(r, c):
        a = abs(rows[r][c])
        if a == 1:
            return (0, (len(rows[r]) - 1) * (len(cols[c]) - 1), r, c)
        return (1, a, r, c)

    heap = [key(r, c) for r, rdata in rows.items() for c in rdata]
    heapq.heapify(heap)

    def row_op(dst, src, alpha):
        # row dst += alpha * row src
        rdst = rows.setdefault(dst, {})
        for c, v in rows[src].items():
            new = rdst.get(c, 0) + alpha * v
            if new:
                rdst[c] = new
                cols.setdefault(c, set()).add(dst)
                heapq.heappush(heap, key(dst, c))
            elif c in rdst:
                del rdst[c]
                cols[c].discard(dst)
                if not cols[c]:
                    del cols[c]
        if not rdst:
            del rows[dst]

    def col_op(dst, src, alpha):
        # col dst += alpha * col src
        for r in list(cols.get(src, ())):
            v = rows[r][src]
            new = rows[r].get(dst, 0) + alpha * v
            if new:
                rows[r][dst] = new
                cols.setdefault(dst, set()).add(r)
                heapq.heappush(heap, key(r, dst))
            elif dst in rows[r]:
                del rows[r][dst]
                cols[dst].discard(r)
                if not cols[dst]:
                    del cols[dst]

    def negate_row(r):
        for c in rows[r]:
            rows[r][c] = -rows[r][c]

    def pop_pivot():
        while True:
            stored = heapq.heappop(heap)
            r, c = stored[2], stored[3]
            if c not in rows.get(r, ()):
                continue
            current = key(r, c)
            if current == stored:
                return r, c
            heapq.heappush(heap, current)

    divisors = []
    while rows:
        r0, c0 = r, c = pop_pivot()
        if rows[r][c] < 0:
            negate_row(r)

        # shrink the pivot until it divides everything in its row and column
        while True:
            v = rows[r][c]
            moved = False
            for r2 in list(cols[c]):
                if r2 == r:
                    continue
                v2 = rows[r2][c]
                q, rem = divmod(v2, v)
                row_op(r2, r, -q)
                if rem:
                    r = r2
                    if rows[r][c] < 0:
                        negate_row(r)
                    moved = True
                    break
            if moved:
                continue
            v = rows[r][c]
            for c2 in list(rows[r]):
                if c2 == c:
                    continue
                v2 = rows[r][c2]
                q, rem = divmod(v2, v)
                col_op(c2, c, -q)
                if rem:
                    c = c2
                    moved = True
                    break
            if moved:
                continue
            break
        if c0 in rows.get(r0, ()) and (r0, c0) != (r, c):
            # the pivot moved away; the popped entry is live but unqueued
            heapq.heappush(heap, key(r0, c0))

        divisors.append(rows[r][c])
        # remove pivot row and column (both are singletons now)
        del rows[r]
        cols[c].discard(r)
        if c in cols and not cols[c]:
            del cols[c]
    return _divisibility_chain(divisors)


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """Invariant factors of a positive diagonal, in divisibility order.

    Each entry x is merged into the chain c_1 | c_2 | ... from the top
    down with diag(c, x) ~ diag(gcd, lcm).  The entries that x divides
    form a suffix of what is left and stay as they are, so a bisection
    skips them; the merge stops once x is a unit or divisible by the
    entry below.

    >>> _divisibility_chain([2, 3, 4, 1])
    [1, 1, 2, 12]
    """
    units = 0
    chain: list[int] = []
    for x in diagonal:
        j = len(chain)
        while x != 1:
            j = bisect.bisect_left(range(j), True,
                                   key=lambda i: chain[i] % x == 0)
            if not j or x % chain[j - 1] == 0:
                chain.insert(j, x)
                break
            c = chain[j - 1]
            g = math.gcd(c, x)
            chain[j - 1] = c // g * x
            x = g
            j -= 1
        else:
            units += 1
    return [1] * units + chain


def smith_normal_form(M: IntegerMatrix) -> SNFDecomposition:
    """Smith normal form diagonal of ``M``.

    Deterministic for a fixed input; the diagonal satisfies the
    divisibility chain and is padded with zeros to ``min(nrows, ncols)``.

    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    divisors = _snf_divisors(rows, cols)
    pad = min(M.nrows, M.ncols) - len(divisors)
    return SNFDecomposition(tuple(divisors) + (0,) * pad)


def rank_over_rationals(M: IntegerMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = M.to_rows()
    nrows, ncols = M.nrows, M.ncols
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pv = a[rank][col]
        for i in range(rank + 1, nrows):
            ai = a[i]
            ar = a[rank]
            f = ai[col]
            # every lower row is rescaled, the exact division needs it
            for j in range(col + 1, ncols):
                ai[j] = (pv * ai[j] - f * ar[j]) // prev
            ai[col] = 0
        prev = pv
        rank += 1
    return rank


def rank_mod_p(M: IntegerMatrix, p: int) -> int:
    """Rank over GF(p) by modular Gaussian elimination (p prime)."""
    if not is_prime(p):
        raise MatrixError(f"{p} is not prime")
    if p == 2:
        return _rank_mod_2(M)
    rows = []
    for r in M.to_rows():
        rr = [v % p for v in r]
        if any(rr):
            rows.append(rr)
    rank = 0
    ncols = M.ncols
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = [(v * inv) % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _rank_mod_2(M: IntegerMatrix) -> int:
    """GF(2) rank with rows packed into Python ints."""
    packed: dict[int, int] = {}
    for (r, c), v in M.entries.items():
        if v & 1:
            packed[r] = packed.get(r, 0) ^ (1 << c)
    rows = [m for m in packed.values() if m]
    pivots: dict[int, int] = {}
    rank = 0
    for m in rows:
        while m:
            top = m.bit_length() - 1
            if top in pivots:
                m ^= pivots[top]
            else:
                pivots[top] = m
                rank += 1
                break
    return rank


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    # deterministic Miller-Rabin for 64-bit inputs, fine far beyond our use
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True
