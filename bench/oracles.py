"""Expected answers computed apart from posettop, and the checks that use them.

Nothing here imports posettop.  Posets arrive as an element count and a
list of cover pairs ``(i, j)`` meaning ``i`` is covered by ``j``; homology
arrives as a plain ``{dimension: (betti, torsion)}`` dict.  Every check
returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import itertools

# Nonzero cells of the table of reduced integral homology of the word
# ideals I(n, i), 1 <= i <= n <= 6, from the source paper (Bjorner-Welker,
# arXiv math/0312516) as the project's `verify-paper` word-ideal block
# lists it: {(n, i): {dimension: betti}}.  Every other cell is zero and
# no cell has torsion.
PUBLISHED_WORD_IDEAL_TABLE = {
    (3, 2): {1: 1, 2: 1},
    (5, 2): {3: 1, 4: 1},
    (5, 3): {3: 6, 4: 6},
    (5, 4): {3: 1, 4: 1},
    (6, 3): {4: 13, 5: 13},
    (6, 4): {4: 13, 5: 13},
}


def derangements(n: int) -> int:
    """D(n) by the recurrence D(n) = (n - 1)(D(n - 1) + D(n - 2))."""
    a, b = 1, 0  # D(0), D(1)
    if n == 0:
        return a
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b


def _below_masks(n: int, covers) -> tuple[list[int], list[int]]:
    """Strict down-sets as bitmasks, and a linear extension."""
    down = [[] for _ in range(n)]
    indeg = [0] * n
    up = [[] for _ in range(n)]
    for i, j in covers:
        down[j].append(i)
        up[i].append(j)
        indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:  # grows while it is walked
        for j in up[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ValueError("cover relation has a cycle")
    below = [0] * n
    for j in order:
        m = 0
        for i in down[j]:
            m |= below[i] | (1 << i)
        below[j] = m
    return below, order


def chain_counts(n: int, covers) -> list[int]:
    """Number of chains with k + 1 elements, for k = 0, 1, ...

    Counts chains by their top element, one size at a time, so no chain
    is listed.  Equal to the f-vector of the order complex without f_-1.
    """
    below, _ = _below_masks(n, covers)
    ways = [1] * n  # chains of the current size ending at each element
    counts = []
    while any(ways):
        counts.append(sum(ways))
        nxt = [0] * n
        for j in range(n):
            m, s = below[j], 0
            while m:
                low = m & -m
                s += ways[low.bit_length() - 1]
                m ^= low
            nxt[j] = s
        ways = nxt
    return counts


def euler_from_chains(counts) -> int:
    """Reduced Euler characteristic from chain counts (the empty chain is -1)."""
    return -1 + sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))


def mobius_bounded(n: int, covers) -> int:
    """mu(0^, 1^) of the poset with a new bottom 0^ and top 1^ adjoined.

    By Hall's theorem this equals the reduced Euler characteristic of
    the order complex of the poset itself.
    """
    below, order = _below_masks(n, covers)
    mu = [0] * n  # mu(0^, x)
    for x in order:
        m, s = below[x], 1  # the 1 is mu(0^, 0^)
        while m:
            low = m & -m
            s += mu[low.bit_length() - 1]
            m ^= low
        mu[x] = -s
    return -(1 + sum(mu))


def semigroup_layer_sizes(generators, max_degree: int) -> list[int]:
    """Number of distinct sums of exactly m generators, m = 0..max_degree."""
    dim = len(generators[0])
    layer = {(0,) * dim}
    sizes = [1]
    for _ in range(max_degree):
        layer = {tuple(a + b for a, b in zip(x, g)) for x in layer for g in generators}
        sizes.append(len(layer))
    return sizes


def unit_vectors(d: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def monomials(d: int, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-k monomials in d variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(d), k):
        v = [0] * d
        for i in combo:
            v[i] += 1
        out.append(tuple(v))
    return out


def rees_generators(first, second) -> list[tuple[int, ...]]:
    """(a, 0) and (a, b) for generators a of the first and b of the second."""
    zero = (0,) * len(second[0])
    return [a + zero for a in first] + [a + b for a in first for b in second]


def segre_generators(first_layer, second) -> list[tuple[int, ...]]:
    """(x, b): b a generator of the second factor, x of matching degree in the first."""
    return [x + b for b in second for x in first_layer]


# -- checks ------------------------------------------------------------


def _fmt(groups) -> str:
    if not groups:
        return "0"
    return ", ".join(f"H~{d}=Z^{b}" + "".join(f"+Z/{t}" for t in tor)
                     for d, (b, tor) in sorted(groups.items()))


def check_concentrated(groups: dict, dim: int, rank: int) -> list[str]:
    """Free homology of the given rank in one dimension, zero elsewhere."""
    want = {dim: (rank, ())} if rank else {}
    if groups != want:
        return [f"expected {_fmt(want)}, got {_fmt(groups)}"]
    return []


def check_word_ideal(n: int, i: int, groups: dict, euler_chains: int,
                     euler_mobius: int, field_betti: dict | None) -> list[str]:
    """The checks on one word ideal I(n, i).

    ``field_betti`` maps dimension to the Betti number over a field from
    the separate elimination path, or is None where it is not run.
    """
    problems = []
    if euler_chains != euler_mobius:
        problems.append(f"chain count gives Euler {euler_chains}, "
                        f"Mobius gives {euler_mobius}")
    alt = sum((-1) ** d * b for d, (b, _) in groups.items())
    if alt != euler_chains:
        problems.append(f"alternating Betti sum {alt} != reduced Euler {euler_chains}")
    if any(tor for (_, tor) in groups.values()):
        problems.append(f"torsion in {_fmt(groups)}")
    published = PUBLISHED_WORD_IDEAL_TABLE.get((n, i), {})
    betti = {d: b for d, (b, _) in groups.items() if b}
    if betti != published:
        problems.append(f"published cell is {published}, got {_fmt(groups)}")
    if field_betti is not None and {d: b for d, b in field_betti.items() if b} != betti:
        problems.append(f"field elimination gives {field_betti}, got {_fmt(groups)}")
    return problems


def check_verdict(expected: bool, got: bool) -> list[str]:
    if bool(got) != expected:
        return [f"expected verdict {expected}, got {got}"]
    return []


def check_koszul(passed: bool, elements_checked: int, expected_count: int) -> list[str]:
    """Koszul inputs must pass, having looked at every element of degree 2..r."""
    problems = check_verdict(True, passed)
    if elements_checked != expected_count:
        problems.append(f"checked {elements_checked} elements, "
                        f"the semigroup has {expected_count} of degree 2..r")
    return problems
