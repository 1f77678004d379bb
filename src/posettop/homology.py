"""Reduced simplicial homology over Z, Q, and prime fields.

The chain complex is always augmented (the empty face is a cell in
dimension -1), so every Betti number reported here is reduced.

One engine computes every answer.  It first shrinks the complex by
repeatedly cancelling a cell pair whose incidence is the unique one of a
cell (a homology-preserving deletion that never changes coefficients)
and then runs exact Smith normal form on what is left.  The integral
groups fix the homology over every field by the universal coefficient
theorem, so ``betti`` derives field Betti numbers from them
(``HomologySummary.over_field``).  The dense field ranks of ``intmatrix``
stay the independent reference the test suite checks this engine against.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .complexes import ComplexError, SimplicialComplex, poset_chains_by_size
from .intmatrix import IntegerMatrix, _snf_divisors, is_prime

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
    f = _field(f)
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
        if self.coefficients != "Z":
            raise ValueError("field_betti needs an integral summary")
        f = _field(f)
        b = self.betti(i)
        if f == "Q":
            return b
        tp = sum(1 for d in self.torsion(i) if d % f == 0)
        tp_below = sum(1 for d in self.torsion(i - 1) if d % f == 0)
        return b + tp + tp_below

    def over_field(self, f: FieldSpec) -> "HomologySummary":
        """Field-coefficient summary derived from an integral one.

        The p-torsion of the top listed dimension adds a class one
        dimension above it, so the range runs one past ``groups``.
        """
        groups = tuple((self.field_betti(i, f), ())
                       for i in range(len(self.groups) + 1))
        while groups and groups[-1] == (0, ()):
            groups = groups[:-1]
        return HomologySummary(field_name(f), groups, self.empty_complex)


def summary_to_data(s: HomologySummary) -> dict:
    dims = {}
    for i, (b, t) in enumerate(s.groups):
        if b or t:
            dims[str(i)] = {"betti": b, "torsion": list(t)}
    out = {"coefficients": s.coefficients, "dims": dims}
    if s.empty_complex:
        out["empty_complex"] = True
    return out


def make_summary(coefficients: str, groups: Mapping[int, tuple[int, Sequence[int]]],
                 empty_complex: bool = False) -> HomologySummary:
    top = max(groups, default=-1)
    data = []
    for i in range(top + 1):
        b, t = groups.get(i, (0, ()))
        data.append((b, tuple(t)))
    while data and data[-1] == (0, ()):
        data.pop()
    return HomologySummary(coefficients, tuple(data), empty_complex)


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


class _CellComplex:
    """Flat cell storage for the augmented chain complex.

    ``boundary[k]`` concatenates, cell by cell, the dim-(k-1) indices of
    each dim-k cell's facets in a fixed per-cell order; the sign of the
    j-th entry is (-1)^j.  Orientation comes from a total order on the
    vertices (position order for chain cells, index order otherwise),
    which is consistent across dimensions.
    """

    __slots__ = ("counts", "boundary", "cofaces", "cof_start")

    def __init__(self, layers: list[list[tuple[int, ...]]]):
        # layers[k] lists dim-k cells as tuples in a fixed vertex order
        self.counts = [len(layer) for layer in layers]
        self.boundary = []
        prev_index: dict = {}
        for k, layer in enumerate(layers):
            bnd = array("l")
            if k == 0:
                bnd.extend([0] * len(layer))
            else:
                for f in layer:
                    for drop in range(len(f)):
                        bnd.append(prev_index[f[:drop] + f[drop + 1:]])
            self.boundary.append(bnd)
            prev_index = {f: i for i, f in enumerate(layer)}
        # coface lists in CSR form, per dimension
        self.cofaces = []
        self.cof_start = []
        for k in range(len(layers)):
            cnt = array("l", [0] * (self.counts[k] + 1))
            if k + 1 < len(layers):
                for r in self.boundary[k + 1]:
                    cnt[r + 1] += 1
            for i in range(self.counts[k]):
                cnt[i + 1] += cnt[i]
            data = array("l", [0] * cnt[self.counts[k]])
            fill = array("l", cnt)
            if k + 1 < len(layers):
                width = k + 2
                bnd = self.boundary[k + 1]
                for col in range(self.counts[k + 1]):
                    for t in range(width):
                        r = bnd[col * width + t]
                        data[fill[r]] = col
                        fill[r] += 1
            self.cofaces.append(data)
            self.cof_start.append(cnt)

    def ndims(self):
        return len(self.counts)


def _cell_complex(K: SimplicialComplex) -> _CellComplex:
    if K.source_poset is not None:
        layers = poset_chains_by_size(K.source_poset)
    else:
        layers = K.faces_by_dim()
    return _CellComplex(layers)


def _cascade(cx: _CellComplex):
    """Cancel unique-incidence cell pairs until none remain.

    Returns per-dimension alive flags (including dimension -1, the empty
    face, reported separately).  Homology is unchanged by each removal.
    """
    ndims = cx.ndims()
    alive = [bytearray([1]) ] + [bytearray([1]) * cx.counts[k] for k in range(ndims)]
    # alive[0] is the empty face; alive[k+1] covers dimension k
    bdeg = [array("l", [0])] + [array("l", [k + 1] * cx.counts[k]) for k in range(ndims)]
    cdeg = [array("l", [cx.counts[0] if ndims else 0])]
    for k in range(ndims):
        start = cx.cof_start[k]
        cdeg.append(array("l", (start[i + 1] - start[i] for i in range(cx.counts[k]))))

    queue = deque()
    for k in range(ndims + 1):
        for i in range(len(alive[k])):
            if bdeg[k][i] == 1 or cdeg[k][i] == 1:
                queue.append((k, i))

    def boundary_cells(k, i):
        # dim index k is offset by one in the alive arrays
        if k == 0:
            return ()
        if k == 1:
            return (0,)
        width = k  # a dim-(k-1) cell has k boundary entries
        b = cx.boundary[k - 1]
        return b[(i * width):(i * width + width)]

    def coface_cells(k, i):
        if k == 0:
            # cofaces of the empty face: all vertices
            return range(cx.counts[0]) if ndims else ()
        if k - 1 + 1 < ndims:
            s = cx.cof_start[k - 1]
            return cx.cofaces[k - 1][s[i]:s[i + 1]]
        return ()

    removed = 0
    while queue:
        k, i = queue.popleft()
        if not alive[k][i]:
            continue
        partner = None
        if bdeg[k][i] == 1:
            for j in boundary_cells(k, i):
                if alive[k - 1][j]:
                    partner = (k - 1, j)
                    break
            a, b = (k, i), partner
        elif cdeg[k][i] == 1:
            for j in coface_cells(k, i):
                if alive[k + 1][j]:
                    partner = (k + 1, j)
                    break
            a, b = partner, (k, i)
        if partner is None:
            continue
        (ka, ia), (kb, ib) = a, b
        alive[ka][ia] = 0
        alive[kb][ib] = 0
        removed += 2
        for x in coface_cells(ka, ia):
            if alive[ka + 1][x]:
                bdeg[ka + 1][x] -= 1
                if bdeg[ka + 1][x] == 1:
                    queue.append((ka + 1, x))
        for x in coface_cells(kb, ib):
            if alive[kb + 1][x]:
                bdeg[kb + 1][x] -= 1
                if bdeg[kb + 1][x] == 1:
                    queue.append((kb + 1, x))
        for j in boundary_cells(ka, ia):
            if alive[ka - 1][j]:
                cdeg[ka - 1][j] -= 1
                if cdeg[ka - 1][j] == 1:
                    queue.append((ka - 1, j))
        for j in boundary_cells(kb, ib):
            if alive[kb - 1][j]:
                cdeg[kb - 1][j] -= 1
                if cdeg[kb - 1][j] == 1:
                    queue.append((kb - 1, j))
    return alive


def _residual_homology(cx: _CellComplex, alive) -> HomologySummary:
    """SNF of the boundary maps of the surviving subcomplex."""
    ndims = cx.ndims()
    new_index = []
    alive_counts = []
    for k in range(ndims + 1):
        idx = {}
        for i in range(len(alive[k])):
            if alive[k][i]:
                idx[i] = len(idx)
        new_index.append(idx)
        alive_counts.append(len(idx))

    ranks = [0] * (ndims + 2)
    torsion = [()] * (ndims + 2)
    for k in range(1, ndims + 1):
        cols_alive = new_index[k]
        rows_alive = new_index[k - 1]
        if not cols_alive or not rows_alive:
            continue
        rows: dict[int, dict[int, int]] = {}
        colindex: dict[int, set[int]] = {}
        width = k
        bnd = cx.boundary[k - 1]
        for i, ci in cols_alive.items():
            if k == 1:
                ents = [(0, 0)]
            else:
                ents = [(bnd[i * width + t], t) for t in range(width)]
            for (r, t) in ents:
                if alive[k - 1][r]:
                    ri = rows_alive[r]
                    v = -1 if t % 2 else 1
                    rows.setdefault(ri, {})[ci] = v
                    colindex.setdefault(ci, set()).add(ri)
        divisors = _snf_divisors(rows, colindex)
        ranks[k] = len(divisors)
        torsion[k] = tuple(sorted(d for d in divisors if d > 1))

    groups = {}
    for k in range(1, ndims + 1):
        b = alive_counts[k] - ranks[k] - ranks[k + 1]
        groups[k - 1] = (b, torsion[k + 1])
    empty = bool(alive_counts[0]) and ndims >= 0 and all(
        c == 0 for c in alive_counts[1:])
    return make_summary("Z", groups, empty_complex=empty and alive_counts[0] == 1)


def integral_homology(K: SimplicialComplex) -> HomologySummary:
    """Integral reduced homology: Betti numbers plus torsion coefficients.

    >>> from posettop.complexes import simplex_boundary
    >>> str(integral_homology(simplex_boundary(4)))
    'H~2 = Z (Z)'
    """
    if K.is_void:
        raise ComplexError("void complex has no homology")
    if K.is_empty:
        return HomologySummary("Z", (), empty_complex=True)
    cx = _cell_complex(K)
    alive = _cascade(cx)
    return _residual_homology(cx, alive)


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
