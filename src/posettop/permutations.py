"""Permutation statistics and the enumerative identities around the
Segre square of the subset lattice.

Counts here are deliberately brute force within documented bounds; they
serve as independent oracles for the Moebius and homology computations
elsewhere in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence, Union

Word = Union[str, Sequence[int]]


def _letters(w: Word) -> tuple[int, ...]:
    if isinstance(w, str):
        out = tuple(int(ch) for ch in w)
    else:
        out = tuple(int(x) for x in w)
    if len(set(out)) != len(out):
        raise ValueError(f"repeated entry in {w!r}")
    if not out:
        raise ValueError("empty word")
    return out


def descent_set(w: Word) -> frozenset[int]:
    """1-based positions t with w[t] > w[t+1].

    >>> sorted(descent_set("321"))
    [1, 2]
    >>> descent_set((1, 3, 2)) == frozenset({2})
    True
    """
    a = _letters(w)
    return frozenset(t + 1 for t in range(len(a) - 1) if a[t] > a[t + 1])


def ascent_set(w: Word) -> frozenset[int]:
    """1-based positions t with w[t] < w[t+1]."""
    a = _letters(w)
    return frozenset(t + 1 for t in range(len(a) - 1) if a[t] < a[t + 1])


@lru_cache(maxsize=None)
def derangements(n: int) -> int:
    """Number of fixed-point-free permutations of 1..n.

    Computed by the recurrence D_n = (n-1)(D_{n-1} + D_{n-2}); for
    n <= 9 the value is cross-checked by direct enumeration.

    >>> [derangements(n) for n in range(1, 7)]
    [0, 1, 2, 9, 44, 265]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    values = [1, 0]  # D_0, D_1
    while len(values) <= n:
        m = len(values)
        values.append((m - 1) * (values[m - 1] + values[m - 2]))
    result = values[n]
    if n <= 9:
        brute = sum(1 for p in itertools.permutations(range(n))
                    if all(p[i] != i for i in range(n)))
        if brute != result:
            raise AssertionError(
                f"derangement recurrence disagrees with enumeration at n={n}")
    return result


@lru_cache(maxsize=None)
def no_common_ascent_pairs(n: int) -> int:
    """Pairs of permutations of 1..n without a common ascent position.

    Brute force over all pairs; bounded to n <= 6.

    >>> [no_common_ascent_pairs(n) for n in (1, 2, 3)]
    [1, 3, 19]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 6:
        raise ValueError("brute-force bound is n <= 6")
    perms = list(itertools.permutations(range(1, n + 1)))
    masks = []
    for p in perms:
        m = 0
        for t in range(n - 1):
            if p[t] < p[t + 1]:
                m |= 1 << t
        masks.append(m)
    return sum(1 for a in masks for b in masks if not (a & b))


@dataclass(frozen=True)
class FlagVector:
    """Rank-selected chain counts of the subset lattice of 1..n.

    ``beta[J]`` counts the maximal chains whose label descent set equals
    ``J``; ``alpha[J]`` those whose descent set is contained in ``J``
    (labels are the single elements added along a maximal chain, so
    maximal chains are permutations).
    """

    n: int
    alpha: Mapping[frozenset, int]
    beta: Mapping[frozenset, int]

    def alpha_beta_sum(self) -> int:
        return sum(self.alpha[J] * self.beta[J] for J in self.alpha)


def flag_vector_boolean(n: int) -> FlagVector:
    """Flag invariants of the subset lattice, by enumerating maximal
    chains as permutations; the inclusion-exclusion consistency between
    alpha and beta is asserted.  Bounded to n <= 9: n = 9 takes 1-2 s on
    a 2-core Xeon (Python 3.11), and each step up multiplies that by ten.

    >>> fv = flag_vector_boolean(3)
    >>> fv.alpha[frozenset({1})], fv.beta[frozenset({1})]
    (3, 2)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 9:
        raise ValueError("enumeration bound is n <= 9")
    positions = list(range(1, n))
    descent_counts: dict[frozenset, int] = {}
    for p in itertools.permutations(range(1, n + 1)):
        D = descent_set(p) if n > 1 else frozenset()
        descent_counts[D] = descent_counts.get(D, 0) + 1
    alpha = {}
    beta = {}
    for r in range(len(positions) + 1):
        for J in itertools.combinations(positions, r):
            J = frozenset(J)
            beta[J] = descent_counts.get(J, 0)
            alpha[J] = sum(c for D, c in descent_counts.items() if D <= J)
    # inclusion-exclusion consistency
    for J in alpha:
        total = sum(beta[T] for T in beta if T <= J)
        if total != alpha[J]:
            raise AssertionError("alpha/beta inclusion-exclusion failed")
        signed = sum((-1) ** (len(J) - len(T)) * alpha[T] for T in alpha if T <= J)
        if signed != beta[J]:
            raise AssertionError("beta inclusion-exclusion failed")
    return FlagVector(n, alpha, beta)


def falling_chains_segre_square(n: int) -> int:
    """Maximal chains of the submatrix poset whose consecutive cover
    labels never rise in both coordinates at once.

    Cover labels are the pair of new elements added in each coordinate;
    brute force over all maximal chains, bounded to n <= 6.

    >>> falling_chains_segre_square(2)
    3
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 6:
        raise ValueError("chain enumeration bound is n <= 6")
    from .constructions import minors
    M = minors(n)
    up = {x: M.upper_covers(x) for x in M.labels}
    bottom = ((), ())
    total = 0
    # iterative DFS carrying the previous cover label
    stack = [(bottom, None)]
    while stack:
        (x, prev) = stack.pop()
        ups = up[x]
        if not ups:
            total += 1
            continue
        (a1, b1) = x
        for y in ups:
            (a2, b2) = y
            label = (next(iter(set(a2) - set(a1))), next(iter(set(b2) - set(b1))))
            if prev is not None and label[0] > prev[0] and label[1] > prev[1]:
                continue  # a common rise: the chain is not falling
            stack.append((y, label))
    return total

