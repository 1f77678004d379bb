"""Homogeneous affine semigroups, their divisibility posets, and the
poset-theoretic Koszul test.

A semigroup is given by generator vectors in N^d together with an
integer weight vector ``w`` and a positive scale ``s`` such that
``w . g = s`` for every generator; the degree of an element is then
``w . x / s``, an exact integer.  All generators have degree one, so the
elements are enumerated layer by layer: the degree-m elements are the
sums of a degree-(m-1) element and a generator.

That walk, ``HomogeneousSemigroup._grow``, is the one place that adds a
generator to an element, and it records the divisibility order as it
goes: each element's index (by degree, then lexicographically) and its
up and down covers, as ascending index tuples.  Everything else reads
the record.  Membership is an index lookup, ``_divisibility_order`` is
the recorded order on the elements up to a degree, and
``lower_interval`` collects an element's down-set along the down covers.
The punctured Veronese generators are a recorded layer of N^d, and a
weighted Segre product is read from the record of one product semigroup
on concatenated pairs.  The Koszul test takes the dual of the
divisibility order up to its rank bound and judges each interval (0, x)
as (x, 0) inside that one poset, by one call of the Cohen-Macaulay
test's interval sweep (``cohen_macaulay._undecided_intervals``) down from
the zero element.  Since a cover raises the degree by one, [0, x] is
graded by degree, so (0, x) is pure and, for deg x >= 2, holds the
generators below x: the test needs no emptiness or purity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import add
from typing import Iterable, Optional, Sequence

from .cohen_macaulay import _summary_violations, _undecided_intervals, cm_coefficient_name
from .homology import parse_coefficients
from .posets import Poset, SizeLimitError, _transpose, dual, open_interval

COVER_CAP = 400_000  # most up covers one semigroup records, over all degrees


class SemigroupError(ValueError):
    pass


Vector = tuple[int, ...]


def _vec(x: Iterable[int], dim: int, what: str) -> Vector:
    """``x`` as a tuple of ``dim`` integers; a float or a bool is refused,
    not truncated."""
    v = tuple(x)
    if len(v) != dim:
        raise SemigroupError(f"{what} has length {len(v)}, expected {dim}")
    if not all(type(a) is int for a in v):
        raise SemigroupError(f"{what} {list(v)} has an entry that is not an integer")
    return v


class HomogeneousSemigroup:
    """Affine semigroup whose minimal generators share degree one.

    Layers are enumerated on demand, and each new layer records its
    elements' indices and the covers between it and the layer below:
    ``_labels`` lists the elements by degree, then lexicographically,
    ``_index`` inverts it, ``_starts[m]`` is the index of the first element
    of degree m, ``_down[i]`` holds the indices covered by element i and
    ``_up[i]`` those covering it (for every layer below the top one).
    A layer that would record more than ``COVER_CAP`` up covers in all
    (one per element below it and generator) raises
    :class:`SizeLimitError` (exit 2 in the CLI) before it is summed, and
    records nothing.
    """

    __slots__ = ("dim", "generators", "weight", "scale",
                 "_labels", "_index", "_starts", "_up", "_down")

    def __init__(self, dim: int, generators: Sequence[Vector], weight: Vector,
                 scale: int):
        self.dim = dim
        self.generators = tuple(sorted(set(generators)))
        self.weight = weight
        self.scale = scale
        zero = (0,) * dim
        self._labels: list[Vector] = [zero]
        self._index: dict[Vector, int] = {zero: 0}
        self._starts: list[int] = [0, 1]
        self._up: list[tuple[int, ...]] = []
        self._down: list[tuple[int, ...]] = [()]

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
        s = self._starts
        return [self._labels[s[m]:s[m + 1]] for m in range(r + 1)]

    def _grow(self, r: int) -> None:
        """Enumerate the layers up to degree ``r``, each once.  Adding the
        sorted generators to an element keeps their order, so each
        element's up covers come out ascending, and its down covers too,
        as the elements below it are walked in order."""
        if r < 0:
            raise SemigroupError("need r >= 0")
        while len(self._starts) <= r + 1:
            below, start = self._starts[-2:]
            covers = start * len(self.generators)
            if covers > COVER_CAP:
                raise SizeLimitError(
                    f"degree {len(self._starts) - 1} would record {covers} "
                    f"up covers, COVER_CAP is {COVER_CAP}")
            sums = [[tuple(map(add, x, g)) for g in self.generators]
                    for x in self._labels[below:]]
            layer = sorted(set(chain.from_iterable(sums)))
            self._index.update(zip(layer, count(start)))
            down = [[] for _ in layer]
            for i, row in enumerate(sums, below):
                up = tuple(map(self._index.__getitem__, row))
                self._up.append(up)
                for j in up:
                    down[j - start].append(i)
            self._labels += layer
            self._down += map(tuple, down)
            self._starts.append(start + len(layer))

    def contains(self, x: Iterable[int]) -> bool:
        """Membership, looked up after enumerating to the element's degree."""
        v = _vec(x, self.dim, "element")
        try:
            m = self.degree(v)
        except SemigroupError:
            return False
        if m < 0 or min(v) < 0:
            return False
        self._grow(m)
        return v in self._index


def build_semigroup(generators: Iterable[Iterable[int]],
                    weight: Iterable[int] | None = None,
                    scale: int | None = None) -> HomogeneousSemigroup:
    """Validated homogeneous semigroup from generators and a degree
    functional ``(weight, scale)`` with ``weight . g = scale > 0`` for
    every generator.

    Without an explicit functional, the all-ones weight is used and the
    common coordinate sum of the generators is the scale.  Every
    coordinate, weight entry and the scale must be an ``int``: a float or
    a bool is refused, not truncated.  Recording more than ``COVER_CAP``
    up covers raises :class:`SizeLimitError` (exit 2 in the CLI).

    >>> N2 = build_semigroup([(1, 0), (0, 1)])
    >>> N2.degree((2, 3))
    5
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise SemigroupError("need at least one generator")
    dim = len(gens[0])
    gens = [_vec(g, dim, "generator") for g in gens]
    seen = set()
    for g in gens:
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
    if type(scale) is not int or scale <= 0:
        raise SemigroupError(f"degree scale must be a positive integer, got {scale!r}")
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
    ones = (1,) * d
    gens = [v for v in natural_semigroup(d).enumerate_up_to(d)[d] if v != ones]
    return build_semigroup(gens, weight=ones, scale=d)


def _divisibility_order(S: HomogeneousSemigroup, r: int) -> Poset:
    """Divisibility order on the elements of ``S`` of degree at most ``r``:
    the recorded labels and covers up to degree ``r``, where a cover adds
    one generator.  The degree-``r`` layer covers nothing here, even when
    ``S`` has been enumerated further."""
    S._grow(r)
    top, n = S._starts[r:r + 2]
    return Poset._assemble(tuple(S._labels[:n]), S._up[:top] + [()] * (n - top),
                           S._down[:n])


def lower_interval(S: HomogeneousSemigroup, element: Iterable[int]) -> Poset:
    """Divisibility interval [0, element] as a poset; elements are the
    semigroup members below ``element`` by degree, then lexicographically,
    and covers add one generator.

    The interval is the element's down-set, collected one degree at a time
    along the recorded down covers and read off by index, so only its own
    members are visited and no vector is subtracted.
    """
    lam = _vec(element, S.dim, "element")
    if not S.contains(lam):
        raise SemigroupError(f"{lam} is not reached by enumeration")
    layer = {S._index[lam]}
    members = set(layer)
    while layer:
        layer = set(chain.from_iterable(map(S._down.__getitem__, layer)))
        members |= layer
    idx = sorted(members)
    at = dict(zip(idx, count())).__getitem__
    down = [tuple(map(at, S._down[i])) for i in idx]
    return Poset._assemble(tuple(map(S._labels.__getitem__, idx)), _transpose(down), down)


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
    D = dual(_divisibility_order(S, max_rank))
    s = S._starts  # s[m]: the index of the first element of degree m
    rank = [-m for m in range(max_rank + 1) for _ in range(s[m], s[m + 1])]  # a rank function of D
    failures = [(x, bad) for x, _, summary in _undecided_intervals(D, rank, (0,))
                if (bad := _summary_violations(summary, -rank[x], mode))]
    x, bad = min(failures, default=(len(D) - 1, ()))  # no failure: count every element
    runs = x + 1 - s[3]  # degree 3 up to x
    return KoszulReport(not bad, max_rank, name,
                        witness=(D.labels[x], "; ".join(bad)) if bad else None,
                        elements_checked=s[3] - s[2] + runs, homology_runs=runs)


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

    Elements are the pairs ``(x, y)`` with ``deg(x) = g(y)``, of degree
    ``deg(y)``.  They are read, split back into pairs, from one product
    semigroup on the concatenated vectors ``x + y``, generated by the
    degree-one pairs: for each generator ``y`` of the second factor, every
    ``x`` of degree ``g(y)`` in the first.  That semigroup holds every
    pair: ``y`` is a sum of generators ``y_1, ..., y_m``, and ``x``, a sum
    of ``deg(x) = g(y_1) + ... + g(y_m)`` generators, splits into parts
    ``x_i`` of degree ``g(y_i)``, so ``(x, y)`` is the sum of the
    degree-one pairs ``(x_i, y_i)``.  Layers, membership and intervals
    are therefore read from its record, as for any semigroup.
    """

    def __init__(self, first: HomogeneousSemigroup, second: HomogeneousSemigroup,
                 grading: GradingMap):
        self.first = first
        self.second = second
        self.grading = grading

    def degree(self, pair) -> int:
        return self.second.degree(pair[1])

    def _vector(self, pair) -> Vector:
        """The pair as one product vector, each half checked."""
        return (_vec(pair[0], self.first.dim, "first coordinate")
                + _vec(pair[1], self.second.dim, "second coordinate"))

    def contains(self, pair) -> bool:
        """Membership, looked up in the product semigroup."""
        return self._product.contains(self._vector(pair))

    def enumerate_up_to(self, r: int) -> list[list[tuple[Vector, Vector]]]:
        """Layers of pairs of degree 0..r, sorted."""
        d = self.first.dim
        return [[split_pair(v, d) for v in layer]
                for layer in self._product.enumerate_up_to(r)]

    @cached_property
    def _product(self) -> HomogeneousSemigroup:
        """The product semigroup on concatenated pairs ``x + y``."""
        ys = self.second.generators
        layers = self.first.enumerate_up_to(max(map(self.grading, ys)))
        gens = [x + y for y in ys for x in layers[self.grading(y)]]
        return build_semigroup(gens, weight=(0,) * self.first.dim + self.second.weight,
                               scale=self.second.scale)

    def lower_interval(self, pair) -> Poset:
        """Divisibility interval [0, pair], by ``lower_interval`` on the
        product semigroup, with each element split back into a pair."""
        v = self._vector(pair)
        if not self._product.contains(v):
            raise SemigroupError(f"{split_pair(v, self.first.dim)} is not in the Segre product")
        P = lower_interval(self._product, v)
        labels = tuple(split_pair(u, self.first.dim) for u in P.labels)
        return Poset._assemble(labels, P._up_adj, P._down_adj)


def segre_semigroup(first: HomogeneousSemigroup, second: HomogeneousSemigroup,
                    grading: GradingMap | Iterable[int]) -> SegreSemigroupView:
    """Weighted Segre product view: pairs where the first coordinate's
    degree equals the grading of the second."""
    if isinstance(grading, GradingMap):
        grading = grading.weight
    return SegreSemigroupView(first, second, grading_map(second, grading))


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
        S = build_semigroup(data["generators"], weight=tuple(data["weight"]),
                            scale=data["scale"])
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
