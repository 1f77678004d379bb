"""Slow reference homology, kept only to check the engine in the tests.

``elimination_betti`` and ``snf_homology`` work on the full, unreduced
boundary matrices and share no code with the engine's cascade or with
its derivation of field answers from integral ones.
``elimination_betti`` takes field ranks by fraction-free elimination
over Q and modular elimination over GF(p); ``snf_homology`` takes the
Smith normal form of every boundary matrix.  ``tuple_cell_complex``
builds the engine's cell arrays from face tuples and a dict index of
each layer, without the chain tree's index arithmetic; it numbers an
order complex's vertices along a linear extension as the engine does,
but lists the chains on its own.
``reference_critical_chains`` runs the critical-chain recursion over
every element of each interval, critical chains or none, on bitmasks;
``decode_critical_chains`` turns the engine's chain ids into the same
bitmasks.  ``revisiting_cascade`` is the engine's coreduction sweeps
without the skip of stuck cells: every sweep visits every live cell, so
the alive flags it returns must equal the engine's.
``element_keyed_critical_chains`` is the engine's pass with its state in
dicts keyed by element, its places computed on its own, the elements
sorted by position and ``M = W & C`` built at every step: the engine's
chains, sizes and ids must equal its.
"""

from array import array
from itertools import chain, count
from types import SimpleNamespace

from posettop.complexes import poset_chains_by_size
from posettop.homology import (
    HomologySummary,
    _CriticalChains,
    _field,
    boundary_matrices,
    field_name,
    make_summary,
)
from posettop.intmatrix import rank_mod_p, rank_over_rationals, smith_normal_form
from posettop.posets import iter_bits


def elimination_betti(K, f="Q") -> HomologySummary:
    """Reduced Betti numbers of ``K`` over a field by dense rank elimination."""
    f = _field(f)
    name = field_name(f)
    if K.is_empty:
        return HomologySummary(name, (), empty_complex=True)
    mats = boundary_matrices(K)
    if f == "Q":
        ranks = [rank_over_rationals(M) for M in mats]
    else:
        ranks = [rank_mod_p(M, f) for M in mats]
    ranks.append(0)
    return make_summary(name, {i: (M.ncols - ranks[i] - ranks[i + 1], ())
                               for i, M in enumerate(mats)})


def snf_homology(K) -> HomologySummary:
    """Integral reduced homology of ``K`` from the Smith normal forms of
    its full boundary matrices."""
    if K.is_empty:
        return HomologySummary("Z", (), empty_complex=True)
    mats = boundary_matrices(K)
    snfs = [smith_normal_form(M) for M in mats]
    ranks = [s.rank for s in snfs] + [0]
    groups = {}
    for i, M in enumerate(mats):
        t = snfs[i + 1].nontrivial() if i + 1 < len(snfs) else ()
        groups[i] = (M.ncols - ranks[i] - ranks[i + 1], t)
    return make_summary("Z", groups)


def tuple_cell_complex(K, order=None) -> SimpleNamespace:
    """``sizes`` and ``boundary`` of the engine's cell complex, built by
    looking each facet tuple up in a dict of the layer below.  An order
    complex's chains are listed by ``poset_chains_by_size`` and numbered
    by their elements' places in ``order``, by default the source poset's
    ``topo_order()``; each layer is then sorted."""
    P = K.source_poset
    if P is None:
        layers = K.faces_by_dim()
    else:
        place = {v: p for p, v in enumerate(P.topo_order() if order is None else order)}
        layers = [sorted(tuple(map(place.__getitem__, c)) for c in layer)
                  for layer in poset_chains_by_size(P)]
    sizes = [1, *map(len, layers)]
    boundary = []
    index: dict = {}
    for layer in [[()], *layers]:
        bnd = array("i")
        for f in layer:
            for drop in range(len(f)):
                bnd.append(index[f[:drop] + f[drop + 1:]])
        boundary.append(bnd)
        index = {f: i for i, f in enumerate(layer)}
    return SimpleNamespace(sizes=sizes, boundary=boundary)


def reference_critical_chains(P, y) -> dict:
    """``homology._critical_chains`` under ``P.topo_order()`` with chains
    as bitmasks: the recursion ``M = W & C; W = (W - M) | w.(C - M)`` over every ``w`` of
    ``(z, y)``, in decreasing ``P.topo_order()`` position."""
    pos = {v: k for k, v in enumerate(P.topo_order())}
    above = P.above_masks()
    below_y = P.below_masks()[y]
    crit = {}
    for z in sorted(iter_bits(below_y), key=pos.__getitem__, reverse=True):
        W = {0}
        for w in sorted(iter_bits(above[z] & below_y), key=pos.__getitem__, reverse=True):
            C = crit[w]
            M = W & C
            W -= M
            bit = 1 << w
            W.update(u | bit for u in C - M)
        crit[z] = W
    return crit


def decode_critical_chains(crit) -> dict:
    """The ``{z: set of bitmasks}`` of a ``homology._critical_chains``
    result: each chain id is decoded through its ``(least, rest)`` key
    in ``crit.ext``."""
    masks = {0: 0}
    for w, ext in crit.ext.items():
        for rest, c in ext.items():
            masks[c] = 1 << w | masks[rest]
    return {z: {masks[c] for c in ids} for z, ids in crit.chains.items()}


def element_keyed_critical_chains(P, y) -> _CriticalChains:
    """``homology._critical_chains`` under ``P.topo_order()`` as an
    element-keyed recursion: the ``z < y`` sorted by decreasing
    ``topo_order()`` position, each step ``M = W & C; W = (W - M) | w.(C - M)``
    with ``C`` and ``w``'s ids looked up by element.  The places are
    recomputed here from ``above_masks()``, not taken from
    ``homology._place_masks``."""
    order = P.topo_order()
    pos = {v: k for k, v in enumerate(order)}
    above = [sum(1 << pos[j] for j in iter_bits(m)) for m in P.above_masks()]
    below = P.below_masks()
    crit: dict = {}
    ext: dict = {}
    live, n = 0, 1
    for z in sorted(iter_bits(below[y]), key=pos.__getitem__, reverse=True):
        W = {0}
        m = above[z] & live
        while m:
            p = m.bit_length() - 1
            m ^= 1 << p
            w = order[p]
            C = crit[w]
            M = W & C
            if M:
                W -= M
                W.update(map(ext[w].__getitem__, C - M))
            else:
                W.update(ext[w].values())
        crit[z] = W
        if W and below[z]:
            live |= 1 << pos[z]
            ext[z] = dict(zip(W, count(n)))
            n += len(W)
    size = [0]
    for c in chain.from_iterable(ext.values()):
        size.append(size[c] + 1)
    return _CriticalChains(crit, size, ext)


def revisiting_cascade(cx) -> list[bytearray]:
    """``homology._cascade`` as it was before live cells with no live facet
    were marked stuck: every later sweep visits every live cell again."""
    alive = [bytearray([1]) * n for n in cx.sizes]
    removed = False
    for k in range(1, len(alive)):  # the first sweep
        flags, below = alive[k], alive[k - 1]
        live = below.__getitem__
        for j, row in enumerate(zip(*[iter(cx.boundary[k])] * k)):
            facets = filter(live, row)
            i = next(facets, -1)
            if i >= 0 and next(facets, -1) < 0:
                flags[j] = below[i] = 0
                removed = True
    while removed:
        removed = False
        for k in range(1, len(alive)):
            flags, below, bnd = alive[k], alive[k - 1], cx.boundary[k]
            live = below.__getitem__
            j = flags.find(1)
            while j >= 0:
                facets = filter(live, bnd[j * k:j * k + k])
                i = next(facets, -1)
                if i >= 0 and next(facets, -1) < 0:  # i is the one live facet
                    flags[j] = below[i] = 0
                    removed = True
                j = flags.find(1, j + 1)
    return alive
