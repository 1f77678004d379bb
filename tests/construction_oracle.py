"""Slow reference constructions, kept only to check the library in the tests.

``pairwise_pullback`` builds the subposet of a product that Segre and Rees
products are made from by comparing every pair of pairs;
``reference_fiber_ideal`` builds a word-ideal fiber by testing each word's
image in the deranged Rees poset with ``R.leq`` and takes its covers from
:func:`induced_subposet`.  Neither shares the library's mask arithmetic.
``reference_poset_from_order`` finds covers through down-sets, not by
the library's walk over each up-set.  ``reference_divisibility_poset``
finds a divisibility poset's covers by a dict lookup of every sum of an
element and a generator, formed here, not by reading the covers the
library records as it enumerates a semigroup.  ``reference_segre_pairs``
lists a weighted Segre product's pairs by looping over the factors'
layers, and ``reference_segre_intervals`` finds the pairs below a pair by
subtracting degree-one pairs, not from the product semigroup the library
reads them from.  ``reference_veronese_generators`` lists the punctured
Veronese generators from ``combinations_with_replacement``, not from a
layer of N^d.
"""

from itertools import combinations_with_replacement
from operator import sub

from posettop.constructions import (
    FiberIdeal,
    rees_deranged,
    subword,
    support_descents,
)
from posettop.posets import Poset, induced_subposet, iter_bits, require_rank_info


def reference_poset_from_order(labels, above_masks):
    """Poset from strict up-set masks, its covers found through the
    down-sets: ``j`` covers ``i`` iff nothing above ``i`` lies below ``j``."""
    n = len(labels)
    below = [0] * n
    for i in range(n):
        for j in iter_bits(above_masks[i]):
            below[j] |= 1 << i
    covers = []
    for i in range(n):
        for j in iter_bits(above_masks[i]):
            if not (above_masks[i] & below[j]):
                covers.append((i, j))
    return Poset(labels, covers)


def pairwise_pullback(P, Q, slack):
    """Pairs ``(p, q)`` with ``slack(p, q)`` not ``None``; a pair lies below
    another iff it does so in the product and its slack is no larger."""
    pairs = []
    weights = []
    for i, p in enumerate(P.labels):
        for j, q in enumerate(Q.labels):
            w = slack(p, q)
            if w is not None:
                pairs.append((i, j))
                weights.append(w)
    above_p = P.above_masks()
    above_q = Q.above_masks()
    above = [0] * len(pairs)
    for a, (i1, j1) in enumerate(pairs):
        pa = above_p[i1]
        qa = above_q[j1]
        w1 = weights[a]
        for b, (i2, j2) in enumerate(pairs):
            if a == b:
                continue
            if (i1 == i2 or (pa >> i2 & 1)) and (j1 == j2 or (qa >> j2 & 1)) \
                    and weights[b] >= w1:
                above[a] |= 1 << b
    labels = tuple((P.labels[i], Q.labels[j]) for (i, j) in pairs)
    return reference_poset_from_order(labels, above)


def reference_segre(P, f, Q, g):
    """Pairs where the two maps (dicts on labels) agree."""
    return pairwise_pullback(P, Q, lambda p, q: 0 if f[p] == g[q] else None)


def reference_rees(P, Q):
    rp = require_rank_info(P).rank
    rq = require_rank_info(Q).rank
    return pairwise_pullback(P, Q, lambda p, q: rp[p] - rq[q] if rp[p] >= rq[q] else None)


def reference_fiber_ideal(n, letters, descent_class):
    A = tuple(sorted(set(letters)))
    i = descent_class
    K = subword(n)
    R = rees_deranged(n)
    target = (A, i - 1)
    members = []
    for w in K.labels:
        supp, j = support_descents(w)
        if R.leq((supp, j - 1), target):
            members.append(w)
    fiber = induced_subposet(K, members)

    generators = [w for w in members
                  if support_descents(w) == (A, i)]
    below = K.below_masks()
    gen_mask = 0
    for w in generators:
        gi = K.index(w)
        gen_mask |= below[gi] | (1 << gi)
    generated = {K.labels[t] for t in iter_bits(gen_mask)}
    consistent = generated == set(members)
    return FiberIdeal(fiber, consistent, n, A, i)


def reference_divisibility_poset(S, labels):
    """Divisibility order on a down-closed set of elements of ``S`` listed
    by degree: every cover adds one generator."""
    pos = {v: i for i, v in enumerate(labels)}
    covers = []
    for i, mu in enumerate(labels):
        for g in S.generators:
            j = pos.get(tuple(a + b for a, b in zip(mu, g)))
            if j is not None:
                covers.append((i, j))
    return Poset(tuple(labels), covers)


def reference_segre_pairs(first, second, grading, r):
    """Layers 0..r of the weighted Segre product: for each ``y`` of degree
    m in ``second``, every ``x`` of degree ``grading(y)`` in ``first``."""
    layers = []
    for layer in second.enumerate_up_to(r):
        pairs = []
        for y in layer:
            gy = grading(y)
            pairs += [(x, y) for x in first.enumerate_up_to(gy)[gy]]
        layers.append(sorted(pairs))
    return layers


def reference_segre_intervals(layers):
    """[0, p] for every listed pair ``p``, by pair: ``q`` lies below ``p``
    iff ``q = p`` or ``q`` lies below ``p - s`` for a degree-one pair ``s``
    with ``p - s`` listed, and ``p`` covers those ``p - s``."""
    order = [p for layer in layers for p in layer]
    at = {p: i for i, p in enumerate(order)}
    lower = [[at[q] for s in layers[1]
              if (q := tuple(tuple(map(sub, u, v)) for u, v in zip(p, s))) in at]
             for p in order]
    below = []
    for i, down in enumerate(lower):
        below.append(frozenset({i}).union(*map(below.__getitem__, down)))
    intervals = {}
    for p, members in zip(order, map(sorted, below)):
        pos = {k: n for n, k in enumerate(members)}
        covers = [(pos[j], pos[k]) for k in members for j in lower[k]]
        intervals[p] = Poset(tuple(map(order.__getitem__, members)), covers)
    return intervals


def reference_veronese_generators(d):
    """The degree-d vectors of N^d but the all-ones one, ascending."""
    gens = {tuple(c.count(i) for i in range(d))
            for c in combinations_with_replacement(range(d), d)}
    return tuple(sorted(gens - {(1,) * d}))
