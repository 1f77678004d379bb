"""Reduced simplicial homology over Z, Q, and prime fields.

The chain complex is always augmented: layer 0 holds the empty face as an
ordinary cell (dimension -1), so every Betti number here is reduced.

One engine computes every answer.  It lays the faces out on the chain
tree, where a cell is its parent (the cell without its last vertex) plus
one vertex, so each boundary is index arithmetic on the parent's and no
face tuple or face index is ever built; a layer is written one boundary
column at a time, over blocks of parents, with a rank lookup in only one
column of an order complex (``_CellComplex``).  An order enters it by
masks alone: ``_chain_cells(above, members)`` lays out the chains of the
order on the elements of a bitmask, so an interval of a swept poset
(``_chain_homology``) and a whole poset's order complex
(``_cell_complex``) take the same entry.  It then shrinks the
complex by coreductions, each removing a cell with exactly one live
facet together with that facet (a homology-preserving deletion that
leaves the boundary between the other cells as it is), in sweeps that
read only facets (``_cascade``), and runs exact Smith normal form on
what is left.  The integral groups fix the homology over every field
by the universal coefficient theorem, so ``betti`` derives field Betti
numbers from them (``HomologySummary.over_field``).  The dense field
ranks of ``intmatrix`` stay the independent reference the test suite
checks this engine against.

The interval sweep of ``cohen_macaulay``, which serves the CM and the
Koszul tests, mostly skips the engine: ``_critical_chains`` gives the
critical chains of poset intervals under an acyclic element matching,
each chain a small-int id with a size (one id per distinct chain of a
pass, no bitmask), and the sweep and ``_morse_summary`` read the
homology off their sizes when no two sit in adjacent dimensions;
otherwise ``cohen_macaulay._interval_homology`` hands the engine the
interval's masks.  A pass takes its linear extension as input:
``_place_masks`` turns an order of the elements into masks whose bits
are places in it, built once per swept poset, and the pass walks the
elements by those bits and keeps each element's critical chains and ids
in lists indexed by place.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import add
from typing import Mapping, NamedTuple, Optional, Sequence, Union
from weakref import WeakValueDictionary

from .complexes import ComplexError, SimplicialComplex
from .intmatrix import IntegerMatrix, _snf_divisors, is_prime
from .posets import Poset, iter_bits

FieldSpec = Union[str, int]  # "Z", "Q" or a prime p


def parse_coefficients(c: FieldSpec):
    """Normalize a coefficient selector to ``"Z"``, ``"Q"`` or a prime int.

    ``z``, ``z-spherical``, ``spherical`` and ``integral-spherical`` give
    ``"Z"``; ``q``, ``rational`` and ``rationals`` give ``"Q"``;
    ``gf:p``, a digit string or an int give the prime ``p``.  Case and
    surrounding blanks are ignored; anything else raises ``ValueError``.
    """
    if isinstance(c, str):
        s = c.strip().lower()
        if s in ("z", "z-spherical", "spherical", "integral-spherical"):
            return "Z"
        if s in ("q", "rational", "rationals"):
            return "Q"
        if s.startswith("gf:"):
            s = s[3:]
        if not s.isdigit():
            raise ValueError(f"unknown coefficients {c!r}")
        c = int(s)
    if isinstance(c, int):
        if not is_prime(c):
            raise ValueError(f"{c} is not prime")
        return c
    raise ValueError(f"unknown coefficients {c!r}")


def _field(f: FieldSpec):
    """``"Q"`` or a prime; the integers are refused."""
    f = parse_coefficients(f)
    if f == "Z":
        raise ValueError("Z is not a field")
    return f


def field_name(f: FieldSpec) -> str:
    return _field_label(_field(f))


def _field_label(f) -> str:  # f is "Q" or a prime
    return "Q" if f == "Q" else f"GF({f})"


@dataclass(frozen=True)
class HomologySummary:
    """Reduced homology, one (betti, torsion) pair per dimension >= 0.

    ``torsion`` entries are the elementary divisors > 1, ascending.
    Over a field all torsion is empty.  ``empty_complex`` marks the
    complex whose only face is the empty face; its homology lives in
    dimension -1 and is not listed in ``groups``.
    """

    coefficients: str
    groups: tuple[tuple[int, tuple[int, ...]], ...]  # index = dimension
    empty_complex: bool = False

    def betti(self, i: int) -> int:
        if 0 <= i < len(self.groups):
            return self.groups[i][0]
        return 0

    def torsion(self, i: int) -> tuple[int, ...]:
        if 0 <= i < len(self.groups):
            return self.groups[i][1]
        return ()

    def nonzero_dims(self) -> tuple[int, ...]:
        return tuple(i for i, (b, t) in enumerate(self.groups) if b or t)

    def is_trivial(self) -> bool:
        return not self.empty_complex and not self.nonzero_dims()

    def is_free(self) -> bool:
        return all(not t for (_, t) in self.groups)

    def concentrated_in(self, d: int) -> bool:
        """True iff all homology vanishes outside dimension ``d``.

        ``d = -1`` accepts exactly the empty complex's lone class.
        """
        if self.empty_complex:
            return d == -1
        return all(i == d for i in self.nonzero_dims())

    def group_str(self, i: int) -> str:
        b, t = self.betti(i), self.torsion(i)
        ring = self.coefficients
        parts = []
        if b == 1:
            parts.append(ring)
        elif b > 1:
            parts.append(f"{ring}^{b}")
        parts.extend(f"Z/{d}" for d in t)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        if self.empty_complex:
            return f"empty complex ({self.coefficients})"
        dims = self.nonzero_dims()
        if not dims:
            return f"trivial ({self.coefficients})"
        body = ", ".join(f"H~{i} = {self.group_str(i)}" for i in dims)
        return f"{body} ({self.coefficients})"

    def field_betti(self, i: int, f: FieldSpec = "Q") -> int:
        """Betti number over a field via universal coefficients.

        Only valid for integral summaries: over Q it is the free rank,
        over GF(p) the free rank plus the p-torsion of this dimension
        and the one below.
        """
        return self.over_field(f).betti(i)

    def over_field(self, f: FieldSpec) -> "HomologySummary":
        """Field-coefficient summary derived from an integral one, with
        ``field_betti`` in each dimension.

        The p-torsion of the top listed dimension adds a class one
        dimension above it, so the range runs one past ``groups``.
        """
        if self.coefficients != "Z":
            raise ValueError("field_betti needs an integral summary")
        f = _field(f)
        groups = {}
        for i in range(len(self.groups) + 1):
            b = self.betti(i)
            if f != "Q":
                b += sum(1 for d in self.torsion(i) + self.torsion(i - 1) if d % f == 0)
            groups[i] = (b, ())
        return make_summary(_field_label(f), groups, self.empty_complex)


def summary_to_data(s: HomologySummary) -> dict:
    dims = {}
    for i, (b, t) in enumerate(s.groups):
        if b or t:
            dims[str(i)] = {"betti": b, "torsion": list(t)}
    out = {"coefficients": s.coefficients, "dims": dims}
    if s.empty_complex:
        out["empty_complex"] = True
    return out


# every live summary, by its fields: equal answers share one object
_summaries: WeakValueDictionary = WeakValueDictionary()


def make_summary(coefficients: str, groups: Mapping[int, tuple[int, Sequence[int]]],
                 empty_complex: bool = False) -> HomologySummary:
    """The summary with these groups; an equal one still alive elsewhere is
    returned instead of a new copy."""
    top = max(groups, default=-1)
    data = []
    for i in range(top + 1):
        b, t = groups.get(i, (0, ()))
        data.append((b, tuple(t)))
    while data and data[-1] == (0, ()):
        data.pop()
    key = (coefficients, tuple(data), empty_complex)
    summary = _summaries.get(key)
    if summary is None:
        summary = _summaries[key] = HomologySummary(*key)
    return summary


# -- critical chains of poset intervals ------------------------------------


class _CriticalChains(NamedTuple):
    """The critical chains of one ``_critical_chains`` pass, as small-int ids.

    ``chains[z]`` holds the ids of the critical chains of ``(z, y)``.  Id 0
    is the empty chain; ``ext[w][c]`` is the id of the chain with least
    element ``w`` followed by the chain ``c``, and ``size[c]`` is the
    number of elements of chain ``c``.  Each distinct chain of the pass
    has exactly one id.
    """

    chains: dict[int, set[int]]
    size: list[int]
    ext: dict[int, dict[int, int]]

    def sizes(self, z: int):
        """The sizes of the critical chains of ``(z, y)``."""
        return map(self.size.__getitem__, self.chains[z])


def _place_masks(P: Poset, order: Sequence[int]) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The linear extension ``order`` of ``P`` as the input of
    ``_critical_chains``: ``(order, above, below)``, where ``above[i]``
    (``below[i]``) has bit ``p`` set iff the element ``order[p]`` lies
    above (below) element ``i``.  So the bits of a mask read from the top
    down list its elements in decreasing place."""
    order = tuple(order)
    place = [0] * len(order)
    for p, i in enumerate(order):
        place[i] = p
    return (order, P._closure(P._up_adj, reversed(order), place),
            P._closure(P._down_adj, order, place))


def _critical_chains(extension: tuple, y: int) -> _CriticalChains:
    """Critical chains of every open interval ``(z, y)`` of a poset, by
    ``z``, under the linear extension ``extension = _place_masks(P, order)``.

    The matching on the chains of ``(z, y)``, the empty chain included, is
    the element matching in decreasing order of ``order``: each element
    ``w`` in turn pairs a chain with the chain plus ``w`` when both are
    still unmatched.  Such a sequence of element matchings is acyclic
    (Jonsson, *Simplicial Complexes of Graphs*, LNM 1928, ch. 4), so the
    critical chains are the cells of a complex with the same reduced
    homology (Forman, discrete Morse theory).  A chain is a small-int id
    with a size (``_CriticalChains``); id 0 is the empty chain, in
    dimension -1.

    The chains of ``(z, y)`` with least element ``w`` are ``w`` plus a chain
    of ``(w, y)``.  Of the elements processed before ``w``, only those of
    ``(w, y)`` match such chains, and they match them among themselves as
    they match the chains of ``(w, y)``: until ``w``'s turn, ``w`` plus the
    critical chains ``C`` of ``(w, y)`` stay unmatched.  So the unmatched
    chains ``W`` of ``(z, y)`` follow::

        W = {()}; for w in (z, y), descending: M = W & C; W = (W - M) | w.(C - M)

    One pass over the ``z < y`` from the top down computes each ``C``
    before it is needed: it reads the set bits of ``below[y]`` from the
    top down.  A ``w`` with no critical chain changes nothing, so the
    inner loop runs only over ``live``: the processed elements that have
    one and lie above another element, as a mask of places, whose set bits
    under ``above[z]`` are read from the top down.  When ``C`` is final,
    each chain ``w.c`` gets its id (``ext[w][c]``), so every later step is
    set arithmetic on small ints and no chain is built twice.  No chain
    list of an interval is ever built.

    The pass keeps its state by place, not by element: ``C`` and the ids
    of ``w.C``, in id order, sit at ``w``'s place.  Most steps have ``M``
    empty, and then add those ids as they are; most of the others have
    ``M = C`` and only remove it.  Only the rest build ``M`` and look the
    ids of ``w.(C - M)`` up in ``ext[w]``.  Every step changes ``W`` as
    the recursion above does, in the same order, so the ids do not depend
    on these shortcuts.
    """
    order, above, below = extension
    crit: dict[int, set[int]] = {}
    ext: dict[int, dict[int, int]] = {}
    crit_at: list = [None] * len(order)  # by place, as are ids_at and live
    ids_at: list = [None] * len(order)
    live, n, rest = 0, 1, below[y]
    while rest:
        q = rest.bit_length() - 1
        rest ^= 1 << q
        z = order[q]
        W = {0}
        m = above[z] & live
        while m:
            p = m.bit_length() - 1
            m ^= 1 << p
            C = crit_at[p]
            if W.isdisjoint(C):
                W.update(ids_at[p])
            elif C <= W:
                W -= C
            else:
                M = W & C
                W -= M
                W.update(map(ext[order[p]].__getitem__, C - M))
        crit[z] = crit_at[q] = W
        if W and below[z]:
            live |= 1 << q
            ext[z] = dict(zip(W, count(n)))
            ids_at[q] = tuple(ext[z].values())
            n += len(W)
    # ids were handed out in this order, each after the id of its rest
    size = [0]
    for c in chain.from_iterable(ext.values()):
        size.append(size[c] + 1)
    return _CriticalChains(crit, size, ext)


def _morse_summary(sizes) -> Optional[HomologySummary]:
    """Integral homology from the sizes of the critical chains of an
    acyclic matching on a nonempty interval, or ``None`` when two of them
    sit in adjacent dimensions.

    Otherwise every boundary map of the Morse complex is zero, so the
    homology is free with one generator per critical chain.  The empty
    chain, of size 0, is critical only on an empty interval, and no caller
    hands one in: ``cohen_macaulay._undecided_intervals`` passes cover
    pairs by their chain sizes, and ``cohen_macaulay._order_homology``
    answers the empty poset itself.
    """
    counts = Counter(s - 1 for s in sizes)
    if any(d + 1 in counts for d in counts):
        return None
    return make_summary("Z", {d: (c, ()) for d, c in counts.items()})


# -- boundary matrices ---------------------------------------------------


def boundary_matrices(K: SimplicialComplex) -> list[IntegerMatrix]:
    """Augmented boundary operators ``[d_0, d_1, ..., d_dim]``.

    ``d_0`` maps vertices to the empty face (a row of ones); ``d_i``
    carries the alternating-sign incidence over the sorted vertex order.
    Raises on the void complex.
    """
    if K.is_void:
        raise ComplexError("the void complex has no chain complex")
    faces = K.faces_by_dim()
    mats = []
    if faces:
        mats.append(IntegerMatrix(1, len(faces[0]),
                                  {(0, j): 1 for j in range(len(faces[0]))}))
    for k in range(1, len(faces)):
        rows = {f: i for i, f in enumerate(faces[k - 1])}
        entries = {}
        for j, f in enumerate(faces[k]):
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1:]
                entries[(rows[sub], j)] = -1 if drop % 2 else 1
        mats.append(IntegerMatrix(len(faces[k - 1]), len(faces[k]), entries))
    return mats


def check_chain_complex(mats: Sequence[IntegerMatrix]) -> bool:
    """True iff consecutive boundary maps compose to zero."""
    return all((a @ b).is_zero() for a, b in zip(mats, mats[1:]))


# -- integral homology (reduction + Smith normal form) --------------------


_BLOCK = 4096  # parents per block of a layer build: bounds the temporary lists


class _CellComplex:
    """Flat cell storage for the augmented chain complex, laid out on the
    chain tree.

    Layer k holds the cells with k vertices; layer 0 is the empty face, an
    ordinary cell that is the one facet of every vertex.  A cell's up-mask
    is the set of vertices that extend it at the end: ``above`` of its top
    element for a chain, the later vertices of a facet through it
    otherwise.  A layer-(k+1) cell is a layer-k cell p (its parent) plus a
    vertex j of p's up-mask, in parent order, then increasing j, so its
    index is p's first child plus j's rank in the up-mask.  A cell's vertex
    order is the order they were added (position order for chains, index
    order otherwise), and ``boundary[k]`` concatenates the layer-(k-1)
    indices of each layer-k cell's k facets, the t-th dropping the t-th
    vertex, with sign (-1)^t.  Arrays hold 4-byte ints; no coface index is
    kept, as the reduction reads facets only.

    Layer k + 1 is written a column at a time, by extended-slice assignment
    (``boundary[k + 1][t::k + 1]``).  The facet of ``p + j`` dropping p's
    t-th vertex is the child at j of p's t-th facet q: ``first[q]`` plus j's
    rank in q's up-mask.  The last column is p.  In an order complex every
    q but the last keeps p's top vertex, hence p's up-mask, so j's rank is
    its rank among p's children; only the last q's rank is read from a
    ``{j: rank}`` dict per up-mask (an explicit complex reads it for every
    q).  Columns are ``map`` pipelines over ``_BLOCK`` parents at a time,
    so no temporary list spans a layer.
    """

    __slots__ = ("sizes", "boundary")

    def __init__(self, verts, kids, root: int, by_top: bool):
        # A cell's state s stands for its up-mask: verts[s] lists its vertices
        # in increasing order and kids[s] the states of the children at them.
        # ``by_top``: a chain's state is its top vertex (an order complex).
        rank = [dict(zip(v, count())) for v in verts]
        nkids = list(map(len, verts))
        self.sizes = [1]
        self.boundary = [array("i")]
        states, prev_first, prev_states = array("i", [root]), None, None
        for k in count():
            first = array("i", accumulate(map(nkids.__getitem__, states), initial=0))
            if not first[-1]:
                break
            rows, width = self.boundary[k], k + 1
            bnd, nxt = array("i", [0]) * (first[-1] * width), array("i")
            for a in range(0, len(states), _BLOCK):
                S = states[a:a + _BLOCK]
                b = a + len(S)
                M = list(map(nkids.__getitem__, S))
                B = list(compress(range(a, b), M))  # the parents with a child
                P = list(chain.from_iterable(map(repeat, range(len(B)), filter(None, M))))
                R = list(chain.from_iterable(map(range, filter(None, M))))
                J = list(chain.from_iterable(map(verts.__getitem__, S)))
                # child c: parent B[P[c]], vertex J[c], of rank R[c] in the parent's up-mask
                lo, hi = first[a] * width, first[b] * width
                for t in range(k):
                    Q = rows[a * k + t:b * k:k]  # facet t of each parent
                    F = list(map(prev_first.__getitem__, compress(Q, M)))
                    if by_top and t < k - 1:  # the facet keeps the parent's up-mask
                        col = map(add, map(F.__getitem__, P), R)
                    else:
                        D = list(map(rank.__getitem__, map(prev_states.__getitem__, compress(Q, M))))
                        col = map(add, map(F.__getitem__, P),
                                  map(dict.__getitem__, map(D.__getitem__, P), J))
                    bnd[lo + t:hi:width] = array("i", col)
                bnd[lo + k:hi:width] = array("i", map(B.__getitem__, P))
                nxt.extend(J if by_top else chain.from_iterable(map(kids.__getitem__, S)))
            self.sizes.append(first[-1])
            self.boundary.append(bnd)
            prev_first, prev_states, states = first, states, nxt

    @property
    def counts(self) -> list[int]:  # nonempty cells per dimension
        return self.sizes[1:]


def _chain_cells(above: Sequence[int], members: int) -> _CellComplex:
    """The chain tree of the order on the elements of the bitmask
    ``members``, where ``above[i]`` has bit ``j`` set iff element ``j``
    lies above element ``i``.  A chain's state is its top element and the
    empty chain's is ``len(above)``; only members get a vertex list (the
    members above them, ascending), so the build's work scales with
    ``members``, not with ``above``.  Renumbering the members in
    increasing order keeps every vertex list's order, so the arrays are
    those of the induced subposet's order complex, byte for byte."""
    verts: list = [()] * (len(above) + 1)
    verts[-1] = root = list(iter_bits(members))
    for i in root:
        verts[i] = list(iter_bits(above[i] & members))
    return _CellComplex(verts, verts, len(above), True)


def _chain_homology(above: Sequence[int], members: int) -> HomologySummary:
    """Integral reduced homology of the order complex of the order on
    ``members`` (``_chain_cells``): one cascade, then SNF of what is left."""
    cx = _chain_cells(above, members)
    return _residual_homology(cx, _cascade(cx))


def _cell_complex(K: SimplicialComplex) -> _CellComplex:
    """The chain tree of ``K``'s faces.  An order complex is the chain
    tree of its whole source poset (``_chain_cells``).  An explicit
    complex's state of a cell is the set of the parts of the facets
    through it that lie past its last vertex, as vertex-bit ints; the
    empty face's parts are the whole facets.  One walk over a state's
    parts files ``t & (-2 << j)`` under each vertex j of part t, and the
    child at j is the state filed under j, so the up-mask is the union of
    the parts."""
    P = K.source_poset
    if P is not None:
        return _chain_cells(P.above_masks(), (1 << len(P)) - 1)
    root = frozenset(sum(1 << v for v in f) for f in K.facets)
    keys, index, verts, kids = [root], {root: 0}, [], []
    for key in keys:  # grows as new states turn up
        filed: dict[int, set] = {}
        for t in key:
            for j in iter_bits(t):
                filed.setdefault(j, set()).add(t & (-2 << j))
        verts.append(sorted(filed))
        kids.append([])
        for j in verts[-1]:
            child = frozenset(filed[j])
            if child not in index:
                index[child] = len(keys)
                keys.append(child)
            kids[-1].append(index[child])
    return _CellComplex(verts, kids, 0, False)


def _cascade(cx: _CellComplex) -> list[bytearray]:
    """Coreduce the complex until no coreduction is left.

    Returns one bytearray of alive flags per layer, so ``alive[0]`` is the
    empty face.  A live cell j with exactly one live facet i is removed
    together with i: a coreduction (Mrozek and Batko, *Coreduction
    homology algorithm*, Discrete Comput. Geom. 41, 2009).  Among the live
    cells the boundary of j is then +-i, so the pair cancels without
    changing the homology or the boundary maps between the cells that
    stay, and only facets are ever read.  Each sweep walks the layers
    upward and the live cells of each in index order; sweeps repeat until
    one removes nothing.  A layer loses cells only in its own pass and the
    next layer's, so the first sweep finds each layer all alive and reads
    its rows straight from ``boundary[k]``, with no search and no slice.

    Facets only die, so a live cell seen with no live facet never
    coreduces: its flag becomes 2 (alive, stuck), which the later sweeps'
    search for 1 skips, and every 2 is turned back into 1 at the end.
    Skipping such a cell changes no decision, as its visit would have
    changed nothing.
    """
    alive = [bytearray([1]) * n for n in cx.sizes]
    removed = False
    for k in range(1, len(alive)):  # the first sweep
        flags, below = alive[k], alive[k - 1]
        live = below.__getitem__
        for j, row in enumerate(zip(*[iter(cx.boundary[k])] * k)):
            facets = filter(live, row)
            i = next(facets, -1)
            if i < 0:
                flags[j] = 2
            elif next(facets, -1) < 0:
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
                if i < 0:
                    flags[j] = 2
                elif next(facets, -1) < 0:  # i is the one live facet
                    flags[j] = below[i] = 0
                    removed = True
                j = flags.find(1, j + 1)
    return [flags.replace(b"\x02", b"\x01") for flags in alive]


def _residual_homology(cx: _CellComplex, alive) -> HomologySummary:
    """SNF of the boundary maps between the surviving cells; a map with
    no surviving cell on either side is skipped."""
    live = [list(compress(range(len(flags)), flags)) for flags in alive]
    index = [{i: n for n, i in enumerate(cells)} for cells in live]
    divisors = [()] * (len(alive) + 1)
    for k in range(1, len(alive)):
        if not live[k] or not live[k - 1]:
            continue
        rows: dict[int, dict[int, int]] = {}
        colindex: dict[int, set[int]] = {}
        bnd = cx.boundary[k]
        for ci, i in enumerate(live[k]):
            for t in range(k):
                ri = index[k - 1].get(bnd[i * k + t])
                if ri is not None:
                    rows.setdefault(ri, {})[ci] = -1 if t % 2 else 1
                    colindex.setdefault(ci, set()).add(ri)
        divisors[k] = _snf_divisors(rows, colindex)
    # layer k holds the cells of dimension k - 1
    groups = {k - 1: (len(live[k]) - len(divisors[k]) - len(divisors[k + 1]),
                      tuple(sorted(d for d in divisors[k + 1] if d > 1)))
              for k in range(1, len(alive))}
    return make_summary("Z", groups, empty_complex=len(alive) == 1)


def integral_homology(K: SimplicialComplex) -> HomologySummary:
    """Integral reduced homology: Betti numbers plus torsion coefficients.

    >>> from posettop.complexes import simplex_boundary
    >>> str(integral_homology(simplex_boundary(4)))
    'H~2 = Z (Z)'
    """
    if K.is_void:
        raise ComplexError("void complex has no homology")
    cx = _cell_complex(K)
    return _residual_homology(cx, _cascade(cx))


def betti(K: SimplicialComplex, f: FieldSpec = "Q") -> HomologySummary:
    """Reduced Betti numbers of ``K`` over a field, from the integral
    homology by universal coefficients.

    >>> from posettop.complexes import simplex_boundary
    >>> betti(simplex_boundary(3), "Q").nonzero_dims()
    (1,)
    """
    f = _field(f)
    return integral_homology(K).over_field(f)


def homology(K: SimplicialComplex, coefficients: FieldSpec | None = None) -> HomologySummary:
    """Homology with the given coefficients; ``None`` or ``"Z"`` means integral."""
    if coefficients is None or parse_coefficients(coefficients) == "Z":
        return integral_homology(K)
    return betti(K, coefficients)
