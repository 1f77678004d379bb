"""Poset constructions: products, weighted Segre products, Rees products,
rank selection, and the reduction of a Rees product to a Segre product.

Elements of constructed posets are labeled by canonical tuples of the
constituent labels, so the results of different construction routes can
be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Union

from .posets import (
    Poset,
    PosetError,
    PosetMap,
    _transpose,
    induced_subposet,
    poset_from_order,
    rank_map,
    require_rank_info,
)

MapLike = Union[PosetMap, Mapping]


def _as_nat_map(P: Poset, f: MapLike, what: str) -> PosetMap:
    if isinstance(f, PosetMap):
        if f.source is not P and f.source != P:
            raise PosetError(f"{what} is a map on a different poset")
        if f.target is not None:
            raise PosetError(f"{what} must map into the naturals")
        return f
    return PosetMap(P, f)


def product(P: Poset, Q: Poset) -> Poset:
    """Direct product with the componentwise order.

    >>> from posettop.posets import build_poset
    >>> C = build_poset([0, 1], [(0, 1)])
    >>> len(product(C, C).covers)
    4
    """
    labels = tuple((p, q) for p in P.labels for q in Q.labels)
    nq = len(Q.labels)
    # a product cover moves exactly one coordinate along a cover; a cover
    # of P may go to a lower index, so the two kinds are merged by a sort
    up = [tuple(sorted([*(i * nq + u for u in Q._up_adj[t]),
                        *(j * nq + t for j in P._up_adj[i])]))
          for i in range(len(P.labels)) for t in range(nq)]
    return Poset._assemble(labels, up)


def _pullback(P: Poset, Q: Poset, slack) -> Poset:
    """Subposet of the product on the pairs ``(p, q)`` with ``slack(p, q)``
    not ``None``, where a pair lies below another iff it does so in the
    product and its slack is no larger.

    Masks are over pair indices: a pair's strict up-set is the pairs whose
    first coordinate is at or above its own, whose second coordinate is
    at or above its own, and whose slack is at least its own, less itself.
    """
    pairs = []
    weights = []
    for i, p in enumerate(P.labels):
        for j, q in enumerate(Q.labels):
            w = slack(p, q)
            if w is not None:
                pairs.append((i, j))
                weights.append(w)
    up_p = [0] * len(P.labels)
    up_q = [0] * len(Q.labels)
    by_weight = {}
    for a, (i, j) in enumerate(pairs):
        up_p[i] |= 1 << a
        up_q[j] |= 1 << a
        by_weight[weights[a]] = by_weight.get(weights[a], 0) | 1 << a
    for X, up in ((P, up_p), (Q, up_q)):
        for i in reversed(X.topo_order()):
            for j in X._up_adj[i]:
                up[i] |= up[j]
    geq = {}
    acc = 0
    for w in sorted(by_weight, reverse=True):
        acc |= by_weight[w]
        geq[w] = acc
    above = [(up_p[i] & up_q[j] & geq[weights[a]]) ^ (1 << a)
             for a, (i, j) in enumerate(pairs)]
    labels = tuple((P.labels[i], Q.labels[j]) for (i, j) in pairs)
    return poset_from_order(labels, above)


def segre(P: Poset, f: MapLike, Q: Poset, g: MapLike) -> Poset:
    """Pullback of two maps into the naturals: the induced subposet of
    the product on the pairs where the map values agree."""
    fm = _as_nat_map(P, f, "f")
    gm = _as_nat_map(Q, g, "g")
    return _pullback(P, Q, lambda p, q: 0 if fm(p) == gm(q) else None)


@dataclass(frozen=True)
class WeightedSegreResult:
    """Weighted Segre product together with its hypothesis report.

    The construction always succeeds; ``g_strict`` and
    ``g_within_ranks`` record whether the preservation theorem's
    hypotheses hold for the given weighting.
    """

    poset: Poset
    g_strict: bool
    g_within_ranks: bool

    @property
    def hypotheses_satisfied(self) -> bool:
        return self.g_strict and self.g_within_ranks

    def notes(self) -> list[str]:
        out = []
        if not self.g_strict:
            out.append("g is not strict")
        if not self.g_within_ranks:
            out.append("g takes values outside the rank set of the first factor")
        return out


def weighted_segre(P: Poset, Q: Poset, g: MapLike) -> WeightedSegreResult:
    """Segre product weighted by ``g``: pairs with ``rank(p) = g(q)``.

    Requires ``P`` pure (its rank function is the first map).  The
    result reports whether ``g`` is strict and whether its values stay
    inside the rank set of ``P``; Cohen-Macaulayness is only guaranteed
    to be preserved when both hold.
    """
    info = require_rank_info(P)
    gm = _as_nat_map(Q, g, "g")
    poset = segre(P, dict(info.rank), Q, gm)
    within = set(gm.values.values()) <= set(range(info.top_rank + 1))
    return WeightedSegreResult(poset, gm.strict, within)


def rees(P: Poset, Q: Poset) -> Poset:
    """Rees product: pairs with ``rank(p) >= rank(q)``, ordered by the
    componentwise order strengthened by ``rank(p') - rank(p) >=
    rank(q') - rank(q)``.  Both factors must be pure."""
    rp = require_rank_info(P).rank
    rq = require_rank_info(Q).rank
    return _pullback(P, Q, lambda p, q: rp[p] - rq[q] if rp[p] >= rq[q] else None)


def rank_select(P: Poset, ranks: Iterable[int]) -> Poset:
    """Induced subposet on the elements whose rank lies in ``ranks``."""
    info = require_rank_info(P)
    keep = set(ranks)
    members = [x for x in P.labels if info.rank[x] in keep]
    return induced_subposet(P, members)


@dataclass(frozen=True)
class ReesAsSegreResult:
    """Rees product realized as a Segre product.

    ``chain_extension`` is the rank-selected product of the second
    factor with a chain; ``segre_product`` is the unweighted Segre
    product of the first factor with it; ``projection`` drops the chain
    coordinate and lands on the labels of the Rees product.
    """

    chain_extension: Poset
    segre_product: Poset
    projection: dict


def rees_as_segre(P: Poset, Q: Poset) -> ReesAsSegreResult:
    """Build the Segre-product model of ``rees(P, Q)``.

    The projection ``(p, (q, i)) -> (p, q)`` is an order isomorphism
    onto the Rees product; callers can verify this against
    :func:`rees` directly.
    """
    n = require_rank_info(P).top_rank
    require_rank_info(Q)
    ladder = chain(n + 1)
    q_tilde = rank_select(product(Q, ladder), range(n + 1))
    s = segre(P, dict(require_rank_info(P).rank), q_tilde,
              dict(require_rank_info(q_tilde).rank))
    projection = {(p, (q, i)): (p, q) for (p, (q, i)) in s.labels}
    return ReesAsSegreResult(q_tilde, s, projection)


# -- named families ------------------------------------------------------


@lru_cache(maxsize=None)
def boolean(n: int) -> Poset:
    """Subset lattice of {1..n}; elements are sorted tuples."""
    if n < 1:
        raise ValueError("need n >= 1")
    import itertools
    labels = tuple(itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), k) for k in range(n + 1)))
    pos = {lab: i for i, lab in enumerate(labels)}
    # a subset covers the subsets one element smaller
    down = [tuple(sorted(pos[lab[:t] + lab[t + 1:]] for t in range(len(lab)))) for lab in labels]
    return Poset._assemble(labels, _transpose(down), down)


@lru_cache(maxsize=None)
def boolean_minus_bottom(n: int) -> Poset:
    """Nonempty subsets of {1..n}."""
    B = boolean(n)
    return induced_subposet(B, [x for x in B.labels if x])


@lru_cache(maxsize=None)
def chain(m: int) -> Poset:
    """Chain with exactly ``m`` elements 0 < 1 < ... < m-1 (ranks 0..m-1)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return Poset._assemble(tuple(range(m)), [(i + 1,) for i in range(m - 1)] + [()])


@lru_cache(maxsize=None)
def minors(n: int) -> Poset:
    """Poset of square submatrices of an n x n matrix: pairs of equal-size
    subsets of rows and columns, ordered componentwise."""
    B = boolean(n)
    return weighted_segre(B, B, rank_map(B)).poset


@lru_cache(maxsize=None)
def subword(n: int) -> Poset:
    """All nonempty words with pairwise distinct letters from 1..n, ordered
    by subword containment.  Words are strings, so ``n <= 9``.

    >>> len(subword(3))
    15
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 9:
        raise ValueError("words are stored as digit strings; need n <= 9")
    import itertools
    labels = []
    for k in range(1, n + 1):
        for combo in itertools.combinations("123456789"[:n], k):
            for perm in itertools.permutations(combo):
                labels.append("".join(perm))
    pos = {w: i for i, w in enumerate(labels)}
    # a word covers the words one letter shorter that it contains
    down = [tuple(sorted(pos[w[:t] + w[t + 1:]] for t in range(len(w)))) if len(w) > 1 else ()
            for w in labels]
    return Poset._assemble(tuple(labels), _transpose(down), down)


def word_descents(word: str) -> tuple[int, ...]:
    """Positions t (1-based) where the letter drops: word[t] > word[t+1]."""
    letters = _word_letters(word)
    return tuple(t + 1 for t in range(len(letters) - 1)
                 if letters[t] > letters[t + 1])


def _word_letters(word: str) -> tuple[int, ...]:
    if not word:
        raise ValueError("empty word")
    letters = []
    for ch in word:
        if not ch.isdigit() or ch == "0":
            raise ValueError(f"letters must be digits 1..9, got {ch!r}")
        letters.append(int(ch))
    if len(set(letters)) != len(letters):
        raise ValueError(f"repeated letter in {word!r}")
    return tuple(letters)


def support_descents(word: str) -> tuple[tuple[int, ...], int]:
    """Projection of a distinct-letter word to (letter set, descents + 1).

    This is the natural map from the subword order onto the deranged
    Rees poset of the same rank.

    >>> support_descents("132")
    ((1, 2, 3), 2)
    """
    letters = _word_letters(word)
    drops = sum(a > b for a, b in zip(letters, letters[1:]))
    return tuple(sorted(letters)), drops + 1


@lru_cache(maxsize=None)
def rees_deranged(n: int) -> Poset:
    """Rees product of the bottomless subset lattice with an n-chain."""
    if n < 1:
        raise ValueError("need n >= 1")
    return rees(boolean_minus_bottom(n), chain(n))


@dataclass(frozen=True)
class FiberIdeal:
    """Fiber of the support/descent projection over a principal ideal.

    ``poset`` is the induced subposet of the subword order on the words
    mapping into the principal ideal below ``(letters, descent_class)``
    in the deranged Rees poset.  ``consistent`` records whether this
    fiber coincides with the order ideal generated by the words with
    full support ``letters`` and exactly ``descent_class - 1`` descents.
    """

    poset: Poset
    consistent: bool
    n: int
    letters: tuple[int, ...]
    descent_class: int


def fiber_ideal(n: int, letters: Iterable[int], descent_class: int) -> FiberIdeal:
    """The ideal of words over {1..n} sitting below ``(letters, i)`` under
    the support/descent projection; ``1 <= i <= |letters|``."""
    A = tuple(sorted(set(letters)))
    i = descent_class
    if not A or not all(1 <= a <= n for a in A):
        raise ValueError(f"letters must be a nonempty subset of 1..{n}")
    if not (1 <= i <= len(A)):
        raise ValueError(f"need 1 <= descent_class <= {len(A)}")
    K = subword(n)
    R = rees_deranged(n)
    image = _word_projection(n)
    target = R.index((A, i - 1))
    ideal = R.below_masks()[target] | 1 << target
    members = [k for k, r in enumerate(image) if ideal >> r & 1]
    pos = {k: t for t, k in enumerate(members)}
    # The preimage of an order ideal under an order-preserving map is an
    # order ideal, so the fiber's covers are K's covers inside it.  A lower
    # cover left out would make that false, so it raises instead.  Members
    # ascend in K, so each lower-cover tuple stays ascending.
    down = []
    for k in members:
        try:
            down.append(tuple(map(pos.__getitem__, K._down_adj[k])))
        except KeyError as missing:
            raise RuntimeError(
                f"fiber over {(A, i)} is not down-closed: {K.labels[missing.args[0]]!r} "
                f"lies below member {K.labels[k]!r} but is left out") from None
    fiber = Poset._assemble(tuple(K.labels[k] for k in members), _transpose(down), down)
    below = K.below_masks()
    generated = 0
    member_mask = 0
    for k in members:
        member_mask |= 1 << k
        if image[k] == target:
            generated |= below[k] | 1 << k
    return FiberIdeal(fiber, generated == member_mask, n, A, i)


@lru_cache(maxsize=None)
def _word_projection(n: int) -> tuple[int, ...]:
    """Index in ``rees_deranged(n)`` of the image of each word of ``subword(n)``."""
    R = rees_deranged(n)
    out = []
    for w in subword(n).labels:
        supp, j = support_descents(w)
        out.append(R.index((supp, j - 1)))
    return tuple(out)
