"""Simplicial complexes, order complexes, and the complex-level Segre product.

A complex stores its vertex list and its facets (maximal faces) as
sorted tuples of vertex indices.  The empty complex (whose only face is
the empty face) and the void complex (no faces at all) are distinct:
the former has ``facets == ((),)``, the latter ``facets == ()``.

Order complexes remember their source poset, which lets face counting
and homology walk chains directly instead of expanding facet subsets.
Their facets, the maximal chains, are listed on first use only.
"""

from __future__ import annotations

import itertools
import json
import warnings
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .posets import (
    Poset,
    build_poset,
    display_label,
    iter_bits,
)


class ComplexError(ValueError):
    """Invalid simplicial-complex input."""


class SimplicialComplex:
    """Immutable abstract simplicial complex.

    ``vertices`` is the declared ground set (fixing indices);
    ``facets`` are the maximal faces as sorted index tuples.  Declared
    vertices that appear in no facet are not faces.  ``facets=None``
    stands for the maximal chains of ``source_poset``, listed on first read.
    """

    __slots__ = ("vertices", "_facets", "_index", "source_poset")

    def __init__(self, vertices: Sequence[Hashable], facets: Optional[Iterable[Sequence[int]]],
                 source_poset: Optional[Poset] = None):
        if facets is None and source_poset is None:
            raise ComplexError("facets are needed unless a source poset gives them")
        self.vertices = tuple(vertices)
        index = {}
        for i, v in enumerate(self.vertices):
            if v in index:
                raise ComplexError(f"duplicate vertex: {display_label(v)!r}")
            index[v] = i
        self._index = index
        self.source_poset = source_poset
        self._facets = None
        if facets is not None:
            n = len(self.vertices)
            cleaned = set()
            for f in facets:
                t = tuple(sorted(set(f)))
                for i in t:
                    if not (0 <= i < n):
                        raise ComplexError(f"facet vertex index {i} out of range")
                cleaned.add(t)
            self._facets = tuple(sorted(_drop_non_maximal(cleaned)))

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        if self._facets is None:
            self._facets = _maximal_chains(self.source_poset)
        return self._facets

    # -- kind tests ------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return self._facets == ()

    @property
    def is_empty(self) -> bool:
        return self._facets == ((),)

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex, error for the void complex."""
        if self.is_void:
            raise ComplexError("the void complex has no dimension")
        if self._facets is None:
            return len(chain_count_by_size(self.source_poset)) - 1
        return max(len(f) for f in self._facets) - 1

    def _facet_count(self) -> int:
        if self._facets is None:
            return _maximal_chain_count(self.source_poset)
        return len(self._facets)

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{self._facet_count()} facets, dim {self.dim})")

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self.vertices != other.vertices:
            return False
        P, Q = self.source_poset, other.source_poset
        if P is not None and Q is not None:
            # an order complex is the clique complex of its comparability graph
            return _comparable_masks(P) == _comparable_masks(Q)
        return self.facets == other.facets

    def __hash__(self):
        # invariants of the facets that an order complex gets without them
        if self.is_void:
            return hash((self.vertices, 0))
        return hash((self.vertices, self._facet_count(), self.dim))

    def vertex_index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ComplexError(f"unknown vertex: {display_label(v)!r}") from None

    def facet_labels(self) -> tuple:
        return tuple(tuple(self.vertices[i] for i in f) for f in self.facets)

    # -- face enumeration --------------------------------------------------

    def faces_by_dim(self) -> list[list[tuple[int, ...]]]:
        """All nonempty faces as sorted index tuples, grouped by dimension.

        ``result[k]`` lists the k-faces in lexicographic order.  The empty
        face is implicit.  For the void complex the result is ``[]``.
        """
        if self.is_void or self.is_empty:
            return []
        if self.source_poset is not None:
            chains = poset_chains_by_size(self.source_poset)
            out = []
            for layer in chains:
                faces = [tuple(sorted(c)) for c in layer]
                faces.sort()
                out.append(faces)
            return out
        by_dim: list[set] = [set() for _ in range(self.dim + 1)]
        for f in self.facets:
            for k in range(1, len(f) + 1):
                by_dim[k - 1].update(itertools.combinations(f, k))
        return [sorted(s) for s in by_dim]

    def has_face(self, face: Sequence[Hashable]) -> bool:
        t = set(self.vertex_index(v) for v in face)
        if self.source_poset is not None:  # a face is a chain
            above, below = self.source_poset.above_masks(), self.source_poset.below_masks()
            mask = sum(1 << i for i in t)
            return all(mask & ~(above[i] | below[i]) == 1 << i for i in t)
        return any(t <= set(f) for f in self.facets)


def _drop_non_maximal(faces: set) -> list:
    """Keep the inclusion-maximal members of a set of sorted tuples.

    A face of the greatest size is maximal, and the empty face is covered
    by any other.  Any other face is covered iff some strictly larger face
    contains all of its vertices; candidates come from intersecting
    per-vertex incidence sets, smallest first and without copying the
    first, which keeps this near-linear on thin complexes.
    """
    incident: dict[int, set] = {}
    faces = list(faces)
    for idx, f in enumerate(faces):
        for v in f:
            incident.setdefault(v, set()).add(idx)
    top = max(map(len, faces), default=0)
    out = []
    for f in faces:
        if len(f) < top:
            if not f:
                continue
            cands, *rest = sorted(map(incident.__getitem__, f), key=len)
            for other in rest:
                if len(cands) == 1:
                    break
                cands = cands & other
            if any(len(faces[j]) > len(f) for j in cands):
                continue
        out.append(f)
    return out


def poset_chains_by_size(P: Poset) -> list[list[tuple[int, ...]]]:
    """Chains of ``P`` as index tuples in increasing poset order.

    ``result[k]`` holds the chains with ``k + 1`` elements.  Each chain
    is produced once, built upward from its minimum.
    """
    above = P.above_masks()
    layer = [(i,) for i in range(len(P.labels))]
    out = []
    while layer:
        out.append(layer)
        nxt = []
        for c in layer:
            for j in iter_bits(above[c[-1]]):
                nxt.append(c + (j,))
        layer = nxt
    return out


def chain_count_by_size(P: Poset) -> list[int]:
    """Number of chains of each size, without materializing them."""
    above = P.above_masks()
    n = len(P.labels)
    counts = []
    ways = [1] * n
    while True:
        total = sum(ways)
        if total == 0:
            break
        counts.append(total)
        nxt = [0] * n
        for i in range(n):
            w = ways[i]
            if w:
                for j in iter_bits(above[i]):
                    nxt[j] += w
        ways = nxt
    return counts


def simplicial_complex(vertices: Sequence[Hashable],
                       facets: Iterable[Sequence[Hashable]]) -> SimplicialComplex:
    """Build a complex from vertex labels and facets given by labels.

    >>> K = simplicial_complex(["a", "b", "c"], [["a", "b"], ["c"]])
    >>> K.dim
    1
    """
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ComplexError("duplicate vertex label")
    idx_facets = []
    for f in facets:
        try:
            idx_facets.append(tuple(index[v] for v in f))
        except KeyError as e:
            raise ComplexError(f"facet uses unknown vertex {e.args[0]!r}") from None
    return SimplicialComplex(vertices, idx_facets)


def empty_complex() -> SimplicialComplex:
    return SimplicialComplex((), [()])


def void_complex() -> SimplicialComplex:
    return SimplicialComplex((), [])


def full_simplex(n: int) -> SimplicialComplex:
    """The full simplex on vertices 1..n."""
    return SimplicialComplex(tuple(range(1, n + 1)), [tuple(range(n))])


def simplex_boundary(n: int) -> SimplicialComplex:
    """Boundary of the simplex on vertices 1..n (an (n-2)-sphere)."""
    if n < 1:
        raise ComplexError("need at least one vertex")
    return SimplicialComplex(tuple(range(1, n + 1)),
                             itertools.combinations(range(n), n - 1))


def order_complex(P: Poset) -> SimplicialComplex:
    """Complex of all chains of ``P``; vertices are the elements of ``P``.

    The facets, the maximal chains, are listed on first read of ``facets``;
    face counts and homology walk the chains of ``P`` without them.

    >>> from posettop.posets import build_poset
    >>> order_complex(build_poset("abc", [("a", "b"), ("b", "c")])).facets
    ((0, 1, 2),)
    """
    if not P.labels:
        return empty_complex()
    return SimplicialComplex(P.labels, None, source_poset=P)


def _comparable_masks(P: Poset) -> list[int]:
    """``result[i]`` has bit ``j`` set iff ``i`` and ``j`` are comparable and distinct."""
    return [a | b for a, b in zip(P.above_masks(), P.below_masks())]


def _maximal_chain_count(P: Poset) -> int:
    """Number of maximal chains of ``P``, counted over its covers."""
    ways = [0] * len(P.labels)
    for i in P.topo_order():
        down = P._down_adj[i]
        ways[i] = sum(ways[j] for j in down) if down else 1
    return sum(w for w, up in zip(ways, P._up_adj) if not up)


def _maximal_chains(P: Poset) -> tuple[tuple[int, ...], ...]:
    """Maximal chains of ``P`` as sorted index tuples, in sorted order:
    the saturated chains from a minimal to a maximal element."""
    up_adj = P._up_adj
    todo = [(i,) for i, below in enumerate(P.below_masks()) if not below]
    chains = []
    while todo:
        c = todo.pop()
        ups = up_adj[c[-1]]
        if not ups:
            chains.append(tuple(sorted(c)))
        for j in ups:
            todo.append(c + (j,))
    return tuple(sorted(chains))


def face_poset(K: SimplicialComplex) -> Poset:
    """Nonempty faces of ``K`` ordered by inclusion.

    The empty face is excluded, so the order complex of the result is
    the classical barycentric subdivision.
    """
    faces = K.faces_by_dim()
    pos = {f: tuple(K.vertices[i] for i in f) for layer in faces for f in layer}
    covers = []
    for k in range(1, len(faces)):
        for f in faces[k]:
            lab = pos[f]
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1:]
                covers.append((pos[sub], lab))
    return build_poset(list(pos.values()), covers)


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset; homeomorphic to ``K``."""
    if K.is_void:
        return void_complex()
    if K.is_empty:
        return empty_complex()
    return order_complex(face_poset(K))


def type_select(K: SimplicialComplex, coloring: Mapping[Hashable, int],
                keep: Iterable[int]) -> SimplicialComplex:
    """Subcomplex of the faces whose vertex colors all lie in ``keep``.

    Vertices missing from ``coloring`` are treated as having no kept
    color and drop out of the selection.  A color that is not an integer
    (a bool included) is refused.
    """
    if K.is_void:
        return void_complex()
    keep = set(keep)
    chosen = set()
    for i, v in enumerate(K.vertices):
        if v in coloring:
            c = coloring[v]
            if type(c) is not int:
                raise ComplexError(f"colors must be integers, got {c!r}")
            if c in keep:
                chosen.add(i)
    facets = [tuple(i for i in f if i in chosen) for f in K.facets]
    kept_vertices = tuple(v for i, v in enumerate(K.vertices) if i in chosen)
    renumber = {old: new for new, old in
                enumerate(i for i in range(len(K.vertices)) if i in chosen)}
    facets = [tuple(renumber[i] for i in f) for f in facets]
    return SimplicialComplex(kept_vertices, facets)


def rank_coloring(P: Poset, shift: int = 1) -> dict:
    """Rank-based vertex coloring of the order complex of a pure poset."""
    from .posets import require_rank_info
    info = require_rank_info(P)
    return {x: r + shift for x, r in info.rank.items()}


def complex_segre(K1: SimplicialComplex, coloring1: Mapping,
                  K2: SimplicialComplex, coloring2: Mapping) -> SimplicialComplex:
    """Color-matched product complex on pairs of vertices.

    Requires ``dim K2 <= dim K1 = d - 1``, that ``coloring1`` restricts
    to a bijection onto ``{1..d}`` on every facet of ``K1``, and that
    ``coloring2`` is injective on every facet of ``K2``.  Faces are the
    sets ``{(x_1, y_1), ..., (x_k, y_k)}`` where the ``x``-part is a face
    of ``K1``, the ``y``-part a face of ``K2``, and matched vertices have
    equal colors.
    """
    if K1.is_void or K2.is_void:
        raise ComplexError("void input")
    d = K1.dim + 1
    if K2.dim > K1.dim:
        raise ComplexError(
            f"dimension precondition violated: dim K2 = {K2.dim} > dim K1 = {K1.dim}")

    def color_of(K, coloring, i):
        v = K.vertices[i]
        if v not in coloring:
            raise ComplexError(f"vertex {display_label(v)!r} has no color")
        c = coloring[v]
        if type(c) is not int or c < 1:  # a bool is no color
            raise ComplexError(f"colors must be integers >= 1, got {c!r}")
        return c

    full = frozenset(range(1, d + 1))
    for f in K1.facets:
        cols = [color_of(K1, coloring1, i) for i in f]
        if frozenset(cols) != full or len(set(cols)) != len(cols):
            raise ComplexError(
                "coloring of the first complex is not a bijection onto "
                f"{{1..{d}}} on facet {tuple(K1.vertices[i] for i in f)}")
    out_of_range = set()
    for f in K2.facets:
        cols = [color_of(K2, coloring2, i) for i in f]
        if len(set(cols)) != len(cols):
            raise ComplexError(
                "coloring of the second complex is not injective on facet "
                f"{tuple(K2.vertices[i] for i in f)}")
        out_of_range.update(c for c in cols if c > d)
    if out_of_range:
        warnings.warn(
            f"second coloring uses colors {sorted(out_of_range)} outside 1..{d}; "
            "those vertices cannot appear in the product", stacklevel=2)

    c1 = {i: color_of(K1, coloring1, i) for f in K1.facets for i in f}
    c2 = {i: color_of(K2, coloring2, i) for f in K2.facets for i in f}

    # bucket the faces of K1 by their color set; pair with same-colored faces of K2
    faces1 = K1.faces_by_dim()
    faces2 = K2.faces_by_dim()
    bucket: dict = {}
    for layer in faces1:
        for f in layer:
            bucket.setdefault(frozenset(c1[i] for i in f), []).append(f)

    vertices = sorted(
        (i, j) for i in c1 for j in c2 if c1[i] == c2[j])
    vert_labels = tuple((K1.vertices[i], K2.vertices[j]) for (i, j) in vertices)
    vert_pos = {p: k for k, p in enumerate(vertices)}

    product_faces = []
    for layer in faces2:
        for g in layer:
            colorset = frozenset(c2[j] for j in g)
            by_color2 = {c2[j]: j for j in g}
            for f in bucket.get(colorset, ()):
                pairs = tuple(sorted(vert_pos[(i, by_color2[c1[i]])] for i in f))
                product_faces.append(pairs)
    return SimplicialComplex(vert_labels, product_faces)


def f_vector(K: SimplicialComplex) -> tuple[int, ...]:
    """Face counts ``(f_-1, f_0, ..., f_dim)``; ``f_-1 = 1`` unless void.

    >>> f_vector(simplex_boundary(3))
    (1, 3, 3)
    """
    if K.is_void:
        return (0,)
    if K.is_empty:
        return (1,)
    if K.source_poset is not None:
        return (1, *chain_count_by_size(K.source_poset))
    return (1, *(len(layer) for layer in K.faces_by_dim()))


def reduced_euler(K: SimplicialComplex) -> int:
    """Reduced Euler characteristic; -1 for the empty complex.

    >>> reduced_euler(empty_complex())
    -1
    >>> reduced_euler(full_simplex(3))
    0
    """
    if K.is_void:
        raise ComplexError("reduced Euler characteristic is undefined for the void complex")
    fv = f_vector(K)
    total = -fv[0]
    for i in range(1, len(fv)):
        total += fv[i] if i % 2 else -fv[i]
    return total


# -- serialization ------------------------------------------------------


def complex_to_data(K: SimplicialComplex) -> dict:
    names = [display_label(v) for v in K.vertices]
    if len(set(names)) != len(names):
        raise ComplexError("vertex display labels collide; cannot serialize")
    return {"vertices": names,
            "facets": [[names[i] for i in f] for f in K.facets]}


def complex_from_data(data: Mapping) -> SimplicialComplex:
    try:
        vertices = data["vertices"]
        facets = data["facets"]
    except (KeyError, TypeError):
        raise ComplexError('complex JSON needs "vertices" and "facets"') from None
    try:
        return simplicial_complex(list(vertices), [list(f) for f in facets])
    except TypeError:  # not lists, or a vertex that is a list or object
        raise ComplexError('complex JSON needs lists of "vertices" and of "facets" '
                           'lists, with no vertex a list or object') from None


def complex_to_json(K: SimplicialComplex) -> str:
    return json.dumps(complex_to_data(K), separators=(", ", ": ")) + "\n"


def complex_from_json(text: str) -> SimplicialComplex:
    return complex_from_data(json.loads(text))
