"""Finite posets stored by their cover relation.

A poset is kept as an ordered tuple of element labels plus its cover
relation (the transitive reduction of the order) as up and down
adjacency lists, one ascending index tuple per element.  The full order
relation is recovered lazily as reachability bitmasks, one Python int
per element, which keeps interval extraction, Moebius computation and
chain enumeration fast even for posets with a few thousand elements.
Library posets are built by ``Poset._assemble`` from ascending adjacency;
``Poset(labels, covers)`` is the checked public entry.  One walk over
up-set masks (``_cover_masks``) turns every order into covers: products,
raw relations, induced subposets and the reducedness check.
:func:`find_isomorphism` decides isomorphism by individualization and
refinement of cover-graph colourings.

Posets are immutable after construction; every operation returns a new
poset and never mutates its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Any, Hashable, Iterable, Iterator, Mapping, Optional, Sequence


class PosetError(ValueError):
    """Invalid poset input: duplicate labels, unknown labels, or cycles."""


class ImpurePosetError(PosetError):
    """Raised by operations whose precondition requires a pure poset."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SizeLimitError(RuntimeError):
    """A fixed size cutoff (``ISO_SIZE_LIMIT``, ``semigroups.COVER_CAP``)
    was exceeded; the CLI maps it to exit 2."""


class Bound:
    """Fresh bottom/top element label added by :func:`augment`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def display_label(label: Any) -> str:
    """Canonical human-readable string for a poset element label."""
    if isinstance(label, str):
        return label
    if isinstance(label, bool):
        return str(label)
    if isinstance(label, int):
        return str(label)
    if isinstance(label, Bound):
        return label.name
    if isinstance(label, tuple):
        return "(" + ",".join(display_label(x) for x in label) + ")"
    if isinstance(label, (frozenset, set)):
        inner = sorted(display_label(x) for x in label)
        return "{" + ",".join(inner) + "}"
    return repr(label)


class Poset:
    """Immutable finite poset.

    ``labels`` fixes the internal element indices; ``covers`` holds index
    pairs ``(i, j)`` meaning ``labels[i]`` is covered by ``labels[j]``.
    ``Poset(labels, covers)`` checks them in full (distinct labels, pairs
    in range, no cycle, no implied pair); use :func:`build_poset` to
    construct from raw relations.
    """

    __slots__ = (
        "labels",
        "_covers",
        "_index",
        "_up_adj",
        "_down_adj",
        "_above",
        "_below",
        "_topo",
        "_rank_result",
    )

    def __init__(self, labels: Sequence[Hashable], covers: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        index = _label_index(labels)
        up = _up_adjacency(labels, covers)
        self._fill(labels, index, up, _transpose(up))
        self._validate()

    @classmethod
    def _assemble(cls, labels: tuple, up_adj: list, down_adj: Optional[list] = None) -> "Poset":
        """A poset from labels and its up adjacency, one ascending tuple
        per element (``down_adj``, its transpose, is derived if not given).
        Only the labels' distinctness is checked; the caller fills in any
        derived data it already has."""
        P = cls.__new__(cls)
        P._fill(labels, _label_index(labels), up_adj,
                _transpose(up_adj) if down_adj is None else down_adj)
        return P

    def _fill(self, labels, index, up_adj, down_adj):
        self.labels = labels
        self._covers = None
        self._index = index
        self._up_adj = up_adj
        self._down_adj = down_adj
        self._above = None
        self._below = None
        self._topo = None
        self._rank_result = None

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The cover pairs ``(i, j)``, sorted."""
        if self._covers is None:
            self._covers = tuple(chain.from_iterable(map(zip, map(repeat, count()), self._up_adj)))
        return self._covers

    # -- basic protocol ------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self._index

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.covers == other.covers

    def __hash__(self):
        return hash((self.labels, self.covers))

    def __repr__(self):
        return f"Poset({len(self)} elements, {len(self.covers)} covers)"

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PosetError(f"unknown label: {display_label(label)!r}") from None

    # -- derived structure ---------------------------------------------

    def topo_order(self) -> tuple[int, ...]:
        """Indices in some linear extension (smaller elements first)."""
        if self._topo is None:
            n = len(self.labels)
            indeg = [len(self._down_adj[i]) for i in range(n)]
            stack = [i for i in range(n) if indeg[i] == 0]
            order = []
            while stack:
                i = stack.pop()
                order.append(i)
                for j in self._up_adj[i]:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        stack.append(j)
            if len(order) != n:
                stuck = sorted(set(range(n)) - set(order))
                names = ", ".join(display_label(self.labels[i]) for i in stuck[:4])
                raise PosetError(f"cycle in the relation involving: {names}")
            self._topo = tuple(order)
        return self._topo

    def _closure(self, adj: list, order: Iterable[int], place: Sequence[int]) -> list[int]:
        """Masks of the elements reachable along ``adj``, filled in
        ``order`` (which lists every element after the ones ``adj`` leads
        to); element ``j`` is bit ``place[j]``."""
        bit = [1 << p for p in place]
        masks = [0] * len(self.labels)
        for i in order:
            acc = 0
            for j in adj[i]:
                acc |= masks[j] | bit[j]
            masks[i] = acc
        return masks

    def above_masks(self) -> list[int]:
        """``above_masks()[i]`` has bit ``j`` set iff ``labels[i] < labels[j]``."""
        if self._above is None:
            self._above = self._closure(self._up_adj, reversed(self.topo_order()),
                                        range(len(self.labels)))
        return self._above

    def below_masks(self) -> list[int]:
        if self._below is None:
            self._below = self._closure(self._down_adj, self.topo_order(),
                                        range(len(self.labels)))
        return self._below

    def less(self, x, y) -> bool:
        """Strict order comparison on labels."""
        i, j = self.index(x), self.index(y)
        return bool(self.above_masks()[i] >> j & 1)

    def leq(self, x, y) -> bool:
        return x == y or self.less(x, y)

    def upper_covers(self, x) -> tuple:
        return tuple(self.labels[j] for j in self._up_adj[self.index(x)])

    def lower_covers(self, x) -> tuple:
        return tuple(self.labels[j] for j in self._down_adj[self.index(x)])

    def minimal_elements(self) -> tuple:
        return tuple(self.labels[i] for i in range(len(self.labels))
                     if not self._down_adj[i])

    def maximal_elements(self) -> tuple:
        return tuple(self.labels[i] for i in range(len(self.labels))
                     if not self._up_adj[i])

    def cover_pairs(self) -> tuple:
        """Cover relation as label pairs ``(lower, upper)``."""
        return tuple((self.labels[i], self.labels[j]) for (i, j) in self.covers)

    # -- validation ------------------------------------------------------

    def _validate(self):
        """Reject a cycle (:meth:`topo_order` does) or a cover implied by
        others: one the cover walk does not find again."""
        walked = _cover_masks(self.above_masks(), range(len(self.labels)))
        for i, (ups, reduced) in enumerate(zip(self._up_adj, walked)):
            implied = sum(1 << j for j in ups) & ~reduced
            if implied:
                j = (implied & -implied).bit_length() - 1
                raise PosetError(
                    f"covers are not transitively reduced: "
                    f"({display_label(self.labels[i])!r}, {display_label(self.labels[j])!r}) "
                    f"is implied by other covers")


def _label_index(labels: tuple) -> dict:
    """``{label: index}``; :class:`PosetError` on a repeated label."""
    index = dict(zip(labels, count()))
    if len(index) < len(labels):
        seen = set()
        for lab in labels:
            if lab in seen:
                raise PosetError(f"duplicate label: {display_label(lab)!r}")
            seen.add(lab)
    return index


def _up_adjacency(labels: tuple, covers: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Up adjacency, one ascending tuple per element, from cover index
    pairs in any order; a pair out of range or a loop raises."""
    n = len(labels)
    up: list[list[int]] = [[] for _ in range(n)]
    for (i, j) in sorted(set(covers)):
        if not (0 <= i < n and 0 <= j < n):
            raise PosetError(f"cover pair ({i},{j}) out of range")
        if i == j:
            raise PosetError(f"cycle in the relation at {display_label(labels[i])!r}")
        up[i].append(j)
    return list(map(tuple, up))


def _transpose(adj: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The reversed adjacency; ascending when ``adj`` is."""
    out: list[list[int]] = [[] for _ in adj]
    for i, js in enumerate(adj):
        for j in js:
            out[j].append(i)
    return list(map(tuple, out))


def _cover_masks(above: Sequence[int], rows: Iterable[int], keep: int = -1) -> list[int]:
    """Transitive reduction (Aho-Garey-Ullman 1972) of the order with
    up-set masks ``above``, restricted to ``keep``: for each ``i`` of
    ``rows``, the bits of its up-set outside the union of its members'
    up-sets.  The walk gathering that union takes the lowest member left
    and drops that member's up-set, so it takes one step per cover when
    the index order is a linear extension."""
    out = []
    for i in rows:
        up = above[i] & keep
        higher, rest = 0, up
        while rest:
            low = rest & -rest
            a = above[low.bit_length() - 1]
            higher |= a
            rest &= ~(a | low)
        out.append(up & ~higher)
    return out


def poset_from_order(labels: Iterable[Hashable], above_masks: Sequence[int]) -> Poset:
    """Poset from an explicit strict order: ``above_masks[i]`` has bit ``j``
    set iff ``labels[i] < labels[j]``.

    The masks, trusted to be transitive and acyclic, give the covers by
    the cover walk and become the poset's :meth:`Poset.above_masks`.
    """
    above = list(above_masks)
    walked = [tuple(iter_bits(m)) for m in _cover_masks(above, range(len(above)))]
    P = Poset._assemble(tuple(labels), walked)
    P._above = above
    return P


@dataclass(frozen=True)
class RankInfo:
    """Rank function of a pure poset.

    Minimal elements get rank 0, every cover step raises rank by one,
    and ``top_rank`` is the common length of all maximal chains.
    """

    rank: Mapping[Hashable, int]
    top_rank: int

    def rank_set(self) -> frozenset[int]:
        return frozenset(self.rank.values())


@dataclass(frozen=True)
class PurityFailure:
    """Report of an impure poset: two maximal chains of different lengths."""

    chain_a: tuple
    chain_b: tuple

    def __bool__(self):
        return False

    @property
    def message(self):
        return (f"maximal chains of lengths {len(self.chain_a) - 1} and "
                f"{len(self.chain_b) - 1}: {self.chain_a} vs {self.chain_b}")


def build_poset(labels: Sequence[Hashable],
                cover_pairs: Iterable[tuple[Hashable, Hashable]]) -> Poset:
    """Build and validate a poset from labels and (lower, upper) pairs.

    The pairs are closed into up-set masks and reduced by the cover walk
    of :func:`poset_from_order`, so implied pairs are dropped; cycles and
    duplicate or unknown labels raise :class:`PosetError`.

    >>> P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> P.less("a", "c")
    True
    """
    labels = tuple(labels)
    index = _label_index(labels)
    try:
        pairs = [(index[a], index[b]) for (a, b) in cover_pairs]
    except KeyError as missing:
        raise PosetError(f"unknown label: {display_label(missing.args[0])!r}") from None
    raw = Poset._assemble(labels, _up_adjacency(labels, pairs))
    return poset_from_order(labels, raw.above_masks())


def rank_info(P: Poset):
    """Rank data of ``P`` if pure, else a :class:`PurityFailure` witness.

    The failure report names two maximal chains of different lengths.
    Raises :class:`PosetError` on the empty poset (pure by convention,
    but with no rank data).
    """
    if len(P) == 0:
        raise PosetError("rank_info is undefined on the empty poset")
    if P._rank_result is not None:
        return P._rank_result
    order = P.topo_order()
    n = len(P.labels)
    level = [0] * n
    for i in order:
        if P._down_adj[i]:
            level[i] = 1 + max(level[j] for j in P._down_adj[i])
    top = max(level)

    def chain_down_from(i):
        # longest saturated chain ending at i, as a label tuple
        out = [i]
        while P._down_adj[i]:
            i = max(P._down_adj[i], key=lambda j: level[j])
            out.append(i)
        return out[::-1]

    def chain_up_from(i):
        out = []
        while P._up_adj[i]:
            i = P._up_adj[i][0]
            out.append(i)
        return out

    result = None
    for (i, j) in P.covers:
        if level[j] != level[i] + 1:
            # two maximal chains through (i, j) of different lengths
            tail = chain_up_from(j)
            a = chain_down_from(j) + tail
            b = chain_down_from(i) + [j] + tail
            result = PurityFailure(tuple(P.labels[k] for k in a),
                                   tuple(P.labels[k] for k in b))
            break
    if result is None:
        tops = [i for i in range(n) if not P._up_adj[i]]
        short = min(tops, key=lambda i: level[i])
        if level[short] != top:
            tall = max(tops, key=lambda i: level[i])
            result = PurityFailure(tuple(P.labels[k] for k in chain_down_from(tall)),
                                   tuple(P.labels[k] for k in chain_down_from(short)))
    if result is None:
        result = RankInfo({P.labels[i]: level[i] for i in range(n)}, top)
    P._rank_result = result
    return result


def require_rank_info(P: Poset) -> RankInfo:
    """Rank data of ``P``; raises :class:`ImpurePosetError` when impure."""
    info = rank_info(P)
    if isinstance(info, PurityFailure):
        raise ImpurePosetError("poset is not pure: " + info.message, witness=info)
    return info


def is_pure(P: Poset) -> bool:
    if len(P) == 0:
        return True
    return isinstance(rank_info(P), RankInfo)


def induced_subposet(P: Poset, members: Iterable[Hashable]) -> Poset:
    """Induced subposet of ``P`` on ``members`` (order inherited)."""
    return _induced_by_indices(P, [P.index(x) for x in members])


def _induced_by_indices(P: Poset, idx: Sequence[int]) -> Poset:
    """Induced subposet on the indices ``idx``, in that order, by the
    cover walk in ``P``'s index space."""
    keep = 0
    for i in idx:
        keep |= 1 << i
    at = dict(zip(idx, count())).__getitem__
    up = [tuple(sorted(map(at, iter_bits(m)))) for m in _cover_masks(P.above_masks(), idx, keep)]
    return Poset._assemble(tuple(map(P.labels.__getitem__, idx)), up)


def open_interval(P: Poset, x, y) -> Poset:
    """Induced subposet on ``{z : x < z < y}``.  Requires ``x <= y``."""
    i, j = P.index(x), P.index(y)
    if i != j and not (P.above_masks()[i] >> j & 1):
        raise PosetError(f"{display_label(x)!r} is not below {display_label(y)!r}")
    between = P.above_masks()[i] & P.below_masks()[j]
    return _induced_by_indices(P, list(iter_bits(between)))


def closed_interval(P: Poset, x, y) -> Poset:
    """Induced subposet on ``{z : x <= z <= y}``.  Requires ``x <= y``."""
    i, j = P.index(x), P.index(y)
    if i != j and not (P.above_masks()[i] >> j & 1):
        raise PosetError(f"{display_label(x)!r} is not below {display_label(y)!r}")
    between = (P.above_masks()[i] & P.below_masks()[j]) | (1 << i) | (1 << j)
    return _induced_by_indices(P, list(iter_bits(between)))


def augment(P: Poset) -> Poset:
    """Adjoin a fresh bottom and top element, even if ``P`` is bounded.

    The bottom gets index 0, ``P``'s elements follow in their order and the
    top comes last.  Every part of the result is ``P``'s, shifted up one
    index: the adjacency (already sorted, and so are the covers read off
    it), the linear extension (the bottom first and the top last), the
    order masks and, when ``P`` already holds rank data and is pure, the
    ranks.  So no sort, mask or rank pass is repeated, and nothing new is
    cached on ``P``.
    """
    bot, top = Bound("0^"), Bound("1^")
    n = len(P.labels)
    t = n + 1
    succ = (1).__add__
    up = [tuple(map(succ, a)) or (t,) for a in P._up_adj]
    down = [tuple(map(succ, a)) or (0,) for a in P._down_adj]
    mins = tuple(i + 1 for i, a in enumerate(P._down_adj) if not a)
    maxs = tuple(i + 1 for i, a in enumerate(P._up_adj) if not a)
    up_adj = [mins or (t,), *up, ()]
    down_adj = [(), *down, maxs or (0,)]
    A = Poset._assemble((bot, *P.labels, top), up_adj, down_adj)
    A._topo = (0, *map(succ, P.topo_order()), t)
    top_bit = 1 << t
    A._above = [(top_bit << 1) - 2, *[m << 1 | top_bit for m in P.above_masks()], 0]
    A._below = [0, *[m << 1 | 1 for m in P.below_masks()], top_bit - 1]
    info = P._rank_result
    if isinstance(info, RankInfo):
        ranks = (0, *map(succ, map(info.rank.__getitem__, P.labels)), info.top_rank + 2)
        A._rank_result = RankInfo(dict(zip(A.labels, ranks)), info.top_rank + 2)
    return A


def bounds(P: Poset):
    """The (bottom, top) pair of a bounded poset; error if not bounded."""
    mins = P.minimal_elements()
    maxs = P.maximal_elements()
    if len(mins) != 1 or len(maxs) != 1 or len(P) == 0:
        raise PosetError("poset is not bounded")
    return mins[0], maxs[0]


def mobius(P: Poset, x=None, y=None) -> int:
    """Moebius function value ``mu(x, y)``.

    With no pair given, ``P`` must be bounded and the value over the
    whole poset ``mu(bottom, top)`` is returned.

    >>> P = build_poset([0, 1], [(0, 1)])
    >>> mobius(P, 0, 1)
    -1
    """
    if x is None and y is None:
        x, y = bounds(P)
    i, j = P.index(x), P.index(y)
    if i == j:
        return 1
    above = P.above_masks()
    if not (above[i] >> j & 1):
        raise PosetError(f"{display_label(x)!r} is not below {display_label(y)!r}")
    below = P.below_masks()
    upper = above[i] & below[j] | 1 << j  # the elements of (x, y]
    mu = {i: 1}
    for z in P.topo_order():  # each z after the elements below it
        if upper >> z & 1:
            mu[z] = -sum(map(mu.__getitem__, iter_bits(below[z] & upper | 1 << i)))
    return mu[j]


def dual(P: Poset) -> Poset:
    """Same elements, reversed order: the adjacency lists swapped and the
    label index shared."""
    D = Poset.__new__(Poset)
    D._fill(P.labels, P._index, P._down_adj, P._up_adj)
    return D


# -- isomorphism -------------------------------------------------------


def _refine(P: Poset, Q: Poset, cp: list[int], cq: list[int]) -> tuple[list[int], list[int]]:
    """Refine the colourings ``cp`` of ``P`` and ``cq`` of ``Q`` together until
    they are stable or their colour multisets differ.

    Each round recolours every element by its colour and the sorted colours
    of its lower and of its upper covers.  One signature table per round
    serves both posets, so equal colours mean equal invariants across ``P``
    and ``Q``.  The returned colours number the classes from 0.
    """
    while True:
        table: dict = {}
        new = [[table.setdefault((colors[i],
                                  tuple(sorted(colors[k] for k in R._down_adj[i])),
                                  tuple(sorted(colors[k] for k in R._up_adj[i]))),
                                 len(table))
                for i in range(len(R.labels))]
               for R, colors in ((P, cp), (Q, cq))]
        stable = len(table) == len(set(cp).union(cq))
        cp, cq = new
        if stable or sorted(cp) != sorted(cq):
            return cp, cq


def _classes(colors: list[int]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        out.setdefault(c, []).append(i)
    return out


ISO_SIZE_LIMIT = 512  # most elements an isomorphism search takes


def find_isomorphism(P: Poset, Q: Poset) -> Optional[dict]:
    """Order isomorphism ``P -> Q`` as a label dict, or ``None``.

    Individualization-refinement (McKay-Piperno, *Practical graph
    isomorphism, II*, 2014) on the cover graphs.  At each search node both
    colourings are refined together (:func:`_refine`); if their colour
    multisets differ there is no isomorphism below the node.  Otherwise the
    map pairing each colour class in index order is tried and accepted if
    it sends covers to covers.  If every class is a single element that map
    was the only candidate; else one element of a smallest class gets a
    fresh colour and is paired in turn with each element of its colour in
    ``Q``.  Posets of equal size above ``ISO_SIZE_LIMIT`` elements raise
    :class:`SizeLimitError`.

    >>> D = build_poset("0xy1", [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    >>> B2 = build_poset([(), (1,), (2,), (1, 2)],
    ...                  [((), (1,)), ((), (2,)), ((1,), (1, 2)), ((2,), (1, 2))])
    >>> find_isomorphism(D, B2)
    {'0': (), 'x': (1,), 'y': (2,), '1': (1, 2)}
    """
    if len(P) != len(Q):
        return None
    if len(P) > ISO_SIZE_LIMIT:
        raise SizeLimitError(
            f"isomorphism search limited to ISO_SIZE_LIMIT = {ISO_SIZE_LIMIT} "
            f"elements, got {len(P)}")
    if len(P.covers) != len(Q.covers):
        return None
    n = len(P)
    q_covers = set(Q.covers)

    def search(cp, cq):
        cp, cq = _refine(P, Q, cp, cq)
        if sorted(cp) != sorted(cq):
            return None
        p_classes, q_classes = _classes(cp), _classes(cq)
        img = [0] * n
        for c, members in p_classes.items():
            for i, j in zip(members, q_classes[c]):
                img[i] = j
        if all((img[i], img[j]) in q_covers for (i, j) in P.covers):
            return img
        if len(p_classes) == n:
            return None
        cell = min((m for m in p_classes.values() if len(m) > 1), key=len)
        i = cell[0]
        for j in q_classes[cp[i]]:
            # -1 is a fresh colour: refined colours are never negative
            found = search(cp[:i] + [-1] + cp[i + 1:], cq[:j] + [-1] + cq[j + 1:])
            if found is not None:
                return found
        return None

    img = search([0] * n, [0] * n)
    if img is None:
        return None
    return {P.labels[i]: Q.labels[img[i]] for i in range(n)}


def is_isomorphic(P: Poset, Q: Poset) -> bool:
    return find_isomorphism(P, Q) is not None


# -- poset maps --------------------------------------------------------


class PosetMap:
    """Order-preserving map from a poset to the naturals or to a poset.

    ``target`` is a :class:`Poset` or ``None`` for the natural-number
    chain.  ``strict`` records whether the map was verified strict
    (``x < y`` implies ``f(x) < f(y)``).
    """

    __slots__ = ("source", "target", "values", "strict")

    def __init__(self, source: Poset, values: Mapping, target: Optional[Poset] = None):
        self.source = source
        self.target = target
        vals = {}
        for x in source.labels:
            if x not in values:
                raise PosetError(f"map misses element {display_label(x)!r}")
            vals[x] = values[x]
        self.values = vals
        # a bool is refused, as JSON's true and false are no numbers
        if target is None and not all(type(v) is int and v >= 0 for v in vals.values()):
            raise PosetError("map into the naturals must take values in N")
        strict = True
        for (i, j) in source.covers:
            a, b = vals[source.labels[i]], vals[source.labels[j]]
            if target is None:
                if a > b:
                    raise PosetError("map is not order-preserving")
                strict = strict and a < b
            else:
                if not target.leq(a, b):
                    raise PosetError("map is not order-preserving")
                strict = strict and a != b
        self.strict = strict

    def __call__(self, x):
        return self.values[x]

    def image(self) -> frozenset:
        return frozenset(self.values.values())


def rank_map(P: Poset) -> PosetMap:
    """The rank function of a pure poset, as a map into the naturals."""
    info = require_rank_info(P)
    return PosetMap(P, dict(info.rank))


# -- serialization ------------------------------------------------------


def poset_to_data(P: Poset) -> dict:
    """JSON-ready dict ``{"elements": [...], "covers": [[a, b], ...]}``."""
    names = [display_label(x) for x in P.labels]
    if len(set(names)) != len(names):
        raise PosetError("element display labels collide; cannot serialize")
    covers = sorted((names[i], names[j]) for (i, j) in P.covers)
    return {"elements": names, "covers": [list(c) for c in covers]}


def poset_from_data(data: Mapping) -> Poset:
    try:
        elements = data["elements"]
        covers = data["covers"]
    except (KeyError, TypeError):
        raise PosetError('poset JSON needs "elements" and "covers"') from None
    try:
        return build_poset(list(elements), [(a, b) for (a, b) in covers])
    except TypeError:  # not lists, or a label that is a list or object
        raise PosetError('poset JSON needs lists of "elements" and of "covers" '
                         'pairs, with no label a list or object') from None


def poset_to_json(P: Poset) -> str:
    return json.dumps(poset_to_data(P), separators=(", ", ": ")) + "\n"


def poset_from_json(text: str) -> Poset:
    return poset_from_data(json.loads(text))
