"""Homogeneous affine semigroups, their divisibility posets, and the
poset-theoretic Koszul test.

A semigroup is given by generator vectors in N^d together with an
integer weight vector ``w`` and a positive scale ``s`` such that
``w . g = s`` for every generator; the degree of an element is then
``w . x / s``, an exact integer.  All generators have degree one, so
membership and interval structure come from layered enumeration:
degree-m elements are sums of a degree-(m-1) element and a generator.

One builder, ``_divisibility_order``, makes every divisibility poset from
the layers of a down-closed set of elements: a cover adds one generator.
``lower_interval`` runs it on the layers of the elements below one
element; the Koszul test runs it once on every element up to its rank
bound, takes the dual (an adjacency swap), and judges each interval
(0, x) as (x, 0) inside that one poset, by one call of the Cohen-Macaulay
test's interval sweep (``cohen_macaulay._undecided_intervals``) down
from the zero element.  Since a cover raises the degree by one, [0, x]
is graded by degree, so (0, x) is pure and, for deg x >= 2, holds the
generators below x: the test needs no emptiness or purity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice
from operator import add, lshift, sub
from typing import Iterable, Optional, Sequence

from .cohen_macaulay import _summary_violations, _undecided_intervals, cm_coefficient_name
from .homology import parse_coefficients
from .posets import Poset, SizeLimitError, dual, open_interval

LAYER_CAP = 200_000  # most elements of one degree layer


class SemigroupError(ValueError):
    pass


Vector = tuple[int, ...]


def _vec(x: Iterable[int], dim: int, what: str) -> Vector:
    v = tuple(int(a) for a in x)
    if len(v) != dim:
        raise SemigroupError(f"{what} has length {len(v)}, expected {dim}")
    return v


def _add(a: Vector, b: Vector) -> Vector:
    return tuple(map(add, a, b))


def _sub(a: Vector, b: Vector) -> Vector:
    return tuple(map(sub, a, b))


class HomogeneousSemigroup:
    """Affine semigroup whose minimal generators share degree one.

    Layers are enumerated on demand; one of more than ``LAYER_CAP``
    elements raises :class:`SizeLimitError` (exit 2 in the CLI).
    """

    __slots__ = ("dim", "generators", "weight", "scale", "_layers", "_layer_sets")

    def __init__(self, dim: int, generators: Sequence[Vector], weight: Vector,
                 scale: int):
        self.dim = dim
        self.generators = tuple(sorted(set(generators)))
        self.weight = weight
        self.scale = scale
        zero = (0,) * dim
        self._layers: list[list[Vector]] = [[zero]]
        self._layer_sets: list[set] = [{zero}]

    def __repr__(self):
        return (f"HomogeneousSemigroup(dim={self.dim}, "
                f"{len(self.generators)} generators)")

    def degree(self, x: Iterable[int]) -> int:
        v = _vec(x, self.dim, "element")
        dot = sum(w * a for w, a in zip(self.weight, v))
        q, r = divmod(dot, self.scale)
        if r:
            raise SemigroupError(f"{v} has non-integral degree {dot}/{self.scale}")
        return q

    def enumerate_up_to(self, r: int) -> list[list[Vector]]:
        """Complete, duplicate-free layers of elements of degree 0..r."""
        self._grow(r)
        return [list(layer) for layer in self._layers[:r + 1]]

    def layer_set(self, m: int) -> set:
        self._grow(m)
        return self._layer_sets[m]

    def _grow(self, r: int) -> None:
        """Enumerate the layers up to degree ``r``, each once."""
        if r < 0:
            raise SemigroupError("need r >= 0")
        while len(self._layers) <= r:
            prev = self._layers[-1]
            nxt = set()
            for x in prev:
                for g in self.generators:
                    nxt.add(_add(x, g))
            if len(nxt) > LAYER_CAP:
                raise SizeLimitError(
                    f"layer {len(self._layers)} has {len(nxt)} elements, "
                    f"LAYER_CAP is {LAYER_CAP}")
            self._layers.append(sorted(nxt))
            self._layer_sets.append(nxt)

    def contains(self, x: Iterable[int], degree_hint: Optional[int] = None) -> bool:
        """Membership, decided by enumeration up to the element's degree."""
        v = _vec(x, self.dim, "element")
        if any(a < 0 for a in v):
            return False
        try:
            m = self.degree(v) if degree_hint is None else degree_hint
        except SemigroupError:
            return False
        if m < 0:
            return False
        return v in self.layer_set(m)


def build_semigroup(generators: Iterable[Iterable[int]],
                    weight: Iterable[int] | None = None,
                    scale: int | None = None) -> HomogeneousSemigroup:
    """Validated homogeneous semigroup from generators and a degree
    functional ``(weight, scale)`` with ``weight . g = scale > 0`` for
    every generator.

    Without an explicit functional, the all-ones weight is used and the
    common coordinate sum of the generators is the scale.  Enumerating a
    layer of more than ``LAYER_CAP`` elements raises
    :class:`SizeLimitError` (exit 2 in the CLI).

    >>> N2 = build_semigroup([(1, 0), (0, 1)])
    >>> N2.degree((2, 3))
    5
    """
    gens = [tuple(int(a) for a in g) for g in generators]
    if not gens:
        raise SemigroupError("need at least one generator")
    dim = len(gens[0])
    seen = set()
    for g in gens:
        if len(g) != dim:
            raise SemigroupError("generators of mixed dimension")
        if any(a < 0 for a in g):
            raise SemigroupError(f"generator {g} has a negative coordinate")
        if not any(g):
            raise SemigroupError("zero generator")
        if g in seen:
            raise SemigroupError(f"duplicate generator {g}")
        seen.add(g)
    if weight is None:
        weight = (1,) * dim
    weight = _vec(weight, dim, "weight")
    values = [sum(w * a for w, a in zip(weight, g)) for g in gens]
    if scale is None:
        scale = values[0]
    if scale <= 0:
        raise SemigroupError(f"degree scale must be positive, got {scale}")
    bad = [v for v in values if v != scale]
    if bad:
        raise SemigroupError(
            f"generators are not homogeneous: functional values "
            f"{sorted(set(values))} (scaled degrees differ)")
    return HomogeneousSemigroup(dim, gens, weight, scale)


def natural_semigroup(d: int) -> HomogeneousSemigroup:
    """N^d with the unit vectors as generators."""
    if d < 1:
        raise SemigroupError("need d >= 1")
    gens = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    return build_semigroup(gens)


def punctured_veronese_semigroup(d: int) -> HomogeneousSemigroup:
    """Semigroup generated by all degree-d vectors in N^d except the
    all-ones vector (the d-th Veronese of N^d with its squarefree
    generator removed).

    >>> len(punctured_veronese_semigroup(3).generators)
    9
    """
    if d < 2:
        raise SemigroupError("need d >= 2")
    import itertools
    gens = []
    ones = (1,) * d
    for comp in itertools.combinations_with_replacement(range(d), d):
        v = [0] * d
        for i in comp:
            v[i] += 1
        v = tuple(v)
        if v != ones:
            gens.append(v)
    return build_semigroup(sorted(set(gens)), weight=(1,) * d, scale=d)


def _divisibility_order(S: HomogeneousSemigroup, layers: Sequence[Sequence[Vector]]) -> Poset:
    """Divisibility order on a down-closed set of elements of ``S``, given
    as its sorted layers by degree: a cover adds one generator.

    Each vector is packed into one int, a coordinate per field wide enough
    for the top layer, so a sum of vectors is a sum of ints with no carry
    between fields.  The top layer covers nothing, and below it a sum is
    kept only if it is a member.  Adding the sorted generators to a vector
    keeps their order, and a layer is sorted, so each element's covers
    come out ascending.
    """
    labels = tuple(chain.from_iterable(layers))
    width = ((len(layers) - 1) * max(map(max, S.generators))).bit_length() or 1
    shifts = range(0, width * S.dim, width)

    def pack(v):
        return sum(map(lshift, v, shifts))
    index = dict(zip(map(pack, labels), count()))
    gens = list(map(pack, S.generators))
    # no sum is the zero element, index 0, so filter(None, ...) drops
    # exactly the sums that are not members
    up = [tuple(filter(None, map(index.get, map(key.__add__, gens))))
          for key in islice(index, len(labels) - len(layers[-1]))]
    up += [()] * len(layers[-1])
    return Poset._assemble(labels, up)


def lower_interval(S: HomogeneousSemigroup, element: Iterable[int]) -> Poset:
    """Divisibility interval [0, element] as a poset; elements are the
    semigroup members below ``element`` by degree, then lexicographically,
    and covers add one generator (``_divisibility_order``, the Koszul
    test's builder).

    The interval is grown down from ``element``: its degree-(m - 1) layer
    is every x - g, over x in its degree-m layer and the generators g,
    that is a member of degree m - 1, so only its own members are visited.
    """
    lam = _vec(element, S.dim, "element")
    deg = S.degree(lam)
    if deg < 0 or not S.contains(lam, degree_hint=deg):
        raise SemigroupError(f"{lam} is not reached by enumeration")
    members = [[lam]]
    for m in range(deg, 0, -1):
        below = S.layer_set(m - 1)
        members.append(sorted({mu for x in members[-1] for g in S.generators
                               if (mu := _sub(x, g)) in below}))
    return _divisibility_order(S, members[::-1])


def open_interval_below(S: HomogeneousSemigroup, element: Iterable[int]) -> Poset:
    """The open interval (0, element) inside the divisibility order."""
    lam = _vec(element, S.dim, "element")
    return open_interval(lower_interval(S, lam), (0,) * S.dim, lam)


# -- Koszul necessary condition -------------------------------------------


@dataclass(frozen=True)
class KoszulReport:
    """Outcome of the interval test up to a rank bound.

    ``passed`` means every open interval (0, x) with 2 <= deg x <= max_rank
    has homology concentrated in dimension deg(x) - 2 over the chosen
    coefficients: the poset criterion for Koszulness, verified up to the
    bound.  Such an interval is always pure and nonempty, because every
    generator has degree one.  This is a necessary condition only; no
    finite bound certifies Koszulness.  ``homology_runs`` counts the
    intervals whose homology was determined: those below elements of
    degree 3 and up, whether their critical-chain sizes decided them,
    their critical chains certified the homology or the homology engine
    computed it.
    """

    passed: bool
    max_rank: int
    coefficients: str
    witness: Optional[tuple] = None  # (element, detail)
    elements_checked: int = 0
    homology_runs: int = 0

    def describe(self) -> str:
        if self.passed:
            return (f"consistent with Koszul up to rank {self.max_rank} "
                    f"over {self.coefficients} ({self.elements_checked} intervals, "
                    f"{self.homology_runs} homology runs)")
        x, detail = self.witness
        return f"fails at {x}: {detail}"


def koszul_necessary_test(S: HomogeneousSemigroup, max_rank: int,
                          coeffs="Q") -> KoszulReport:
    """Test the Koszul interval criterion for all elements of degree at
    most ``max_rank`` (which must be at least 2).

    One poset ``D``, the dual of the divisibility order on every element
    of degree at most ``max_rank``, is built; each interval (0, x) is
    judged inside it as (x, 0), which has the same order complex, by the
    Cohen-Macaulay test's rule with rank gap ``deg x``.  Every generator
    has degree one, so a cover adds one generator and [0, x] is graded
    by degree: the interval is pure, and for ``deg x >= 2`` nonempty, so
    neither needs a check, and minus the degree is a rank function of
    ``D``.  One call of ``_undecided_intervals`` down from the zero
    element, the top of ``D``, lists the intervals whose critical-chain
    sizes leave them open, with their homology; every other interval,
    the antichains of degree 2 among them, has free homology in
    dimension ``deg x - 2`` only and passes.  The report names the first
    failing element by degree, then lexicographically, and counts the
    elements of degree 2 and up as far as it, as a test that stops at its
    first failure would.
    """
    if max_rank < 2:
        raise SemigroupError("need max_rank >= 2")
    mode = parse_coefficients(coeffs)
    name = cm_coefficient_name(mode)
    layers = S.enumerate_up_to(max_rank)
    D = dual(_divisibility_order(S, layers))
    rank = [-m for m, layer in enumerate(layers) for _ in layer]  # a rank function of D
    failures = [(x, bad) for x, _, summary in _undecided_intervals(D, rank, (0,))
                if (bad := _summary_violations(summary, -rank[x], mode))]
    x, bad = min(failures, default=(len(D) - 1, ()))  # no failure: count every element
    runs = x + 1 - len(layers[0]) - len(layers[1]) - len(layers[2])  # degree 3 up to x
    return KoszulReport(not bad, max_rank, name,
                        witness=(D.labels[x], "; ".join(bad)) if bad else None,
                        elements_checked=len(layers[2]) + runs, homology_runs=runs)


# -- gradings and product semigroups ---------------------------------------


@dataclass(frozen=True)
class GradingMap:
    """Linear grading of a semigroup: ``g(x) = weight . x``, positive on
    every generator (hence on every nonzero element)."""

    weight: Vector

    def __call__(self, x: Iterable[int]) -> int:
        return sum(w * a for w, a in zip(self.weight, x))


def grading_map(S: HomogeneousSemigroup, weight: Iterable[int]) -> GradingMap:
    w = _vec(weight, S.dim, "grading weight")
    for g in S.generators:
        if sum(a * b for a, b in zip(w, g)) <= 0:
            raise SemigroupError(
                f"grading is not positive on generator {g}")
    return GradingMap(w)


class SegreSemigroupView:
    """Lazy weighted Segre product of two semigroups.

    Elements are the pairs ``(x, y)`` with ``deg(x) = g(y)``; the view
    enumerates them by the degree of the second coordinate.  Its
    divisibility intervals come from the product semigroup, generated by
    the degree-one pairs.
    """

    def __init__(self, first: HomogeneousSemigroup, second: HomogeneousSemigroup,
                 grading: GradingMap):
        self.first = first
        self.second = second
        self.grading = grading

    def degree(self, pair) -> int:
        return self.second.degree(pair[1])

    def contains(self, pair) -> bool:
        x, y = pair
        x = _vec(x, self.first.dim, "first coordinate")
        y = _vec(y, self.second.dim, "second coordinate")
        if not self.second.contains(y):
            return False
        gx = self.grading(y)
        return self.first.degree(x) == gx if self.first.contains(x) else False

    def enumerate_up_to(self, r: int) -> list[list[tuple[Vector, Vector]]]:
        layers = []
        second_layers = self.second.enumerate_up_to(r)
        for m in range(r + 1):
            layer = []
            for y in second_layers[m]:
                gy = self.grading(y)
                for x in self.first.enumerate_up_to(gy)[gy]:
                    layer.append((x, y))
            layers.append(sorted(layer))
        return layers

    @cached_property
    def _product(self) -> HomogeneousSemigroup:
        """The Segre product as one semigroup on concatenated pairs
        ``x + y``, generated by its degree-one pairs."""
        gens = [x + y for (x, y) in self.enumerate_up_to(1)[1]]
        return build_semigroup(gens, weight=(0,) * self.first.dim + self.second.weight,
                               scale=self.second.scale)

    def lower_interval(self, pair) -> Poset:
        """Divisibility interval [0, pair], by ``lower_interval`` on the
        product semigroup, with each element split back into a pair."""
        lam = _vec(pair[0], self.first.dim, "first coordinate")
        gam = _vec(pair[1], self.second.dim, "second coordinate")
        if not self.contains((lam, gam)):
            raise SemigroupError(f"({lam}, {gam}) is not in the Segre product")
        P = lower_interval(self._product, lam + gam)
        labels = tuple(split_pair(v, self.first.dim) for v in P.labels)
        return Poset._assemble(labels, P._up_adj, P._down_adj)


def segre_semigroup(first: HomogeneousSemigroup, second: HomogeneousSemigroup,
                    grading: GradingMap | Iterable[int]) -> SegreSemigroupView:
    """Weighted Segre product view: pairs where the first coordinate's
    degree equals the grading of the second."""
    if not isinstance(grading, GradingMap):
        grading = grading_map(second, grading)
    else:
        for g in second.generators:
            if grading(g) <= 0:
                raise SemigroupError(f"grading is not positive on generator {g}")
    return SegreSemigroupView(first, second, grading)


def rees_semigroup(first: HomogeneousSemigroup,
                   second: HomogeneousSemigroup) -> HomogeneousSemigroup:
    """Rees product semigroup: generated by ``(a, 0)`` and ``(a, b)`` for
    degree-one ``a`` and ``b``; graded by the first coordinate's degree."""
    d, e = first.dim, second.dim
    zero2 = (0,) * e
    gens = [a + zero2 for a in first.generators]
    gens += [a + b for a in first.generators for b in second.generators]
    weight = first.weight + (0,) * e
    return build_semigroup(gens, weight=weight, scale=first.scale)


def split_pair(v: Vector, d: int) -> tuple[Vector, Vector]:
    """Split a concatenated product vector back into its two halves."""
    return tuple(v[:d]), tuple(v[d:])


# -- serialization ---------------------------------------------------------


def semigroup_to_data(S: HomogeneousSemigroup) -> dict:
    return {"dim": S.dim, "generators": [list(g) for g in S.generators],
            "weight": list(S.weight), "scale": S.scale}


def semigroup_from_data(data) -> HomogeneousSemigroup:
    """The semigroup of a ``semigroup_to_data`` dict; ``"dim"`` must be the
    generators' length."""
    try:
        dim = data["dim"]
        S = build_semigroup([tuple(g) for g in data["generators"]],
                            weight=tuple(data["weight"]),
                            scale=int(data["scale"]))
    except (KeyError, TypeError):
        raise SemigroupError(
            'semigroup JSON needs "dim", "generators", "weight", "scale"') from None
    if dim != S.dim:
        raise SemigroupError(f'"dim" is {dim!r}, but the generators have length {S.dim}')
    return S


def semigroup_to_json(S: HomogeneousSemigroup) -> str:
    import json
    return json.dumps(semigroup_to_data(S), separators=(", ", ": ")) + "\n"


def semigroup_from_json(text: str) -> HomogeneousSemigroup:
    import json
    return semigroup_from_data(json.loads(text))
