"""Cohen-Macaulay decision procedures for posets and complexes.

A poset is Cohen-Macaulay over a field when, after adjoining fresh
bounds, every open interval has reduced homology concentrated in its
top possible dimension (interval rank gap minus two).  Cover pairs have
empty open intervals and pass by the convention that the empty complex
carries its one class in dimension -1.

Over the integers no homological test can certify the wedge-of-spheres
homotopy type, so the integral mode here checks the necessary
condition: torsion-free homology concentrated in top dimension for
every interval.  Reports label this mode "Z-spherical" to keep the
distinction honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .complexes import order_complex
from .homology import HomologySummary, field_name, integral_homology, parse_coefficients
from .posets import (
    Poset,
    PosetError,
    PurityFailure,
    _induced_by_indices,
    augment,
    iter_bits,
    rank_info,
)

CoeffSpec = Union[str, int]

SPHERICAL = "Z-spherical"


def cm_coefficient_name(c: CoeffSpec) -> str:
    """Report name of a selector; the integers name the spherical mode."""
    c = parse_coefficients(c)
    return SPHERICAL if c == "Z" else field_name(c)


@dataclass(frozen=True)
class CMFailure:
    """One interval violating the concentration condition."""

    lower: object
    upper: object
    expected_dim: int
    found: str

    def __str__(self):
        return (f"open interval ({self.lower!r}, {self.upper!r}): expected homology "
                f"only in dimension {self.expected_dim}, found {self.found}")


@dataclass(frozen=True)
class CMReport:
    verdict: bool
    coefficients: str
    failures: tuple[CMFailure, ...] = ()
    purity_witness: Optional[PurityFailure] = None

    def __bool__(self):
        return self.verdict

    def describe(self) -> str:
        name = self.coefficients
        if self.verdict:
            return f"Cohen-Macaulay over {name}" if name != SPHERICAL else \
                "integrally spherical (homological shadow of homotopy-CM)"
        if self.purity_witness is not None:
            return f"not Cohen-Macaulay: impure ({self.purity_witness.message})"
        lines = [f"not Cohen-Macaulay over {name}:"]
        lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)


def cm_report_to_data(r: CMReport) -> dict:
    out = {"verdict": r.verdict, "coefficients": r.coefficients}
    if r.purity_witness is not None:
        out["impure"] = {"chain_a": [str(x) for x in r.purity_witness.chain_a],
                         "chain_b": [str(x) for x in r.purity_witness.chain_b]}
    out["failures"] = [{"lower": str(f.lower), "upper": str(f.upper),
                        "expected_dim": f.expected_dim, "found": f.found}
                       for f in r.failures]
    return out


def _interval_items(P: Poset):
    """Integral homology of every open interval of the bounded extension.

    Yields ``(lower, upper, rank_gap, summary)`` in lexicographic index
    order.  ``summary`` is ``None`` for rank gaps 1 and 2, and those
    intervals are not built: in a pure poset the open interval of a cover
    pair is empty, and that of a gap-2 pair is a nonempty antichain whose
    only reduced homology, the free group H~0, sits in dimension
    ``gap - 2``.  Both pass in every mode.
    """
    A = augment(P)
    info = rank_info(A)
    if isinstance(info, PurityFailure):
        raise PosetError("interval analysis needs a pure poset")
    rank = info.rank
    above = A.above_masks()
    below = A.below_masks()
    n = len(A.labels)
    for i in range(n):
        xi = A.labels[i]
        for j in iter_bits(above[i]):
            yj = A.labels[j]
            gap = rank[yj] - rank[xi]
            if gap <= 2:
                yield (xi, yj, gap, None)
                continue
            interval = _induced_by_indices(A, list(iter_bits(above[i] & below[j])))
            yield (xi, yj, gap, integral_homology(order_complex(interval)))


def _summary_violations(summary: Optional[HomologySummary], gap: int, coeffs):
    """Nonzero homology dimensions outside ``gap - 2``, for the mode.

    ``coeffs`` is a parsed selector: ``"Z"`` is the spherical mode, which
    also rejects torsion in dimension ``gap - 2``.  ``summary`` is ``None``
    for an interval of a pure poset with rank gap 1 or 2, which passes
    without a homology computation.
    """
    d = gap - 2
    if summary is None:
        return ()
    if summary.empty_complex:
        return () if d == -1 else ("H~-1 = Z (empty interval)",)
    if coeffs == "Z":
        bad = []
        for i in summary.nonzero_dims():
            if i != d:
                bad.append(f"H~{i} = {summary.group_str(i)}")
            elif summary.torsion(i):
                bad.append(f"H~{i} = {summary.group_str(i)} (torsion)")
        return tuple(bad)
    s = summary.over_field(coeffs)
    return tuple(f"H~{i} has rank {s.betti(i)} over {s.coefficients}"
                 for i in s.nonzero_dims() if i != d)


def is_cm_poset(P: Poset, coeffs: CoeffSpec = "Q", use_cache: bool = True) -> CMReport:
    """Cohen-Macaulayness of ``P`` over a field, or the integral-spherical
    necessary condition when ``coeffs`` selects it.

    Failures are reported, not raised; an impure poset fails with a
    witness pair of maximal chains.  ``use_cache`` is accepted for
    compatibility and has no effect: every interval's homology is
    computed directly.

    >>> from posettop.constructions import boolean
    >>> bool(is_cm_poset(boolean(3), "Q"))
    True
    """
    mode = parse_coefficients(coeffs)
    name = cm_coefficient_name(mode)
    if len(P) == 0:
        raise PosetError("the empty poset is excluded from CM analysis")
    info = rank_info(P)
    if isinstance(info, PurityFailure):
        return CMReport(False, name, purity_witness=info)
    failures = []
    for (x, y, gap, summary) in _interval_items(P):
        bad = _summary_violations(summary, gap, mode)
        if bad:
            failures.append(CMFailure(x, y, gap - 2, "; ".join(bad)))
    return CMReport(not failures, name, failures=tuple(failures))


def is_cm_complex(K, coeffs: CoeffSpec = "Q", use_cache: bool = True) -> CMReport:
    """Cohen-Macaulayness of a complex via its face poset.

    ``use_cache`` is accepted for compatibility and has no effect.
    """
    from .complexes import face_poset
    if K.is_void:
        raise PosetError("the void complex is excluded from CM analysis")
    return is_cm_poset(face_poset(K), coeffs)


def is_acyclic_over(P: Poset, coeffs: CoeffSpec) -> bool:
    """All reduced homology of the order complex vanishes over the field."""
    mode = parse_coefficients(coeffs)
    summary = integral_homology(order_complex(P))
    if mode != "Z":
        summary = summary.over_field(mode)
    return summary.is_trivial()


# -- preservation suite ----------------------------------------------------


@dataclass(frozen=True)
class PreservationCase:
    description: str
    hypotheses_ok: bool
    expected_cm: bool
    reports: tuple[tuple[str, CMReport], ...]  # (field name, report)

    @property
    def passed(self) -> bool:
        return all(bool(r) == self.expected_cm for (_, r) in self.reports)


@dataclass(frozen=True)
class PreservationReport:
    cases: tuple[PreservationCase, ...]

    @property
    def defects(self) -> tuple[PreservationCase, ...]:
        """Cases contradicting a preservation theorem: implementation bugs."""
        return tuple(c for c in self.cases if not c.passed)

    @property
    def all_passed(self) -> bool:
        return not self.defects

    def describe(self) -> str:
        lines = []
        for c in self.cases:
            status = "ok" if c.passed else "DEFECT"
            lines.append(f"[{status}] {c.description} "
                         f"(expected {'CM' if c.expected_cm else 'non-CM'})")
        return "\n".join(lines)


def cm_preservation_suite(fields: Sequence[CoeffSpec] = ("Q", 2)) -> PreservationReport:
    """Apply each construction with hypothesis-satisfying parameters to
    verified-CM seeds and check the results stay Cohen-Macaulay.

    A theorem-contradicting outcome indicates an implementation bug and
    surfaces as a defect in the report.  The known non-strict weighting
    counterexample is included and expected to fail.
    """
    from .complexes import simplex_boundary, face_poset
    from .constructions import (
        boolean, boolean_minus_bottom, chain, rank_select, rees,
        weighted_segre,
    )
    from .posets import build_poset, rank_map

    cases = []

    def check(description, poset, expected_cm=True, hypotheses_ok=True,
              expect_only=None):
        reports = []
        for f in fields:
            r = is_cm_poset(poset, f)
            reports.append((cm_coefficient_name(f), r))
        exp = expected_cm if expect_only is None else expect_only
        cases.append(PreservationCase(description, hypotheses_ok, exp, tuple(reports)))

    seeds = {
        "B2": boolean(2),
        "B3": boolean(3),
        "B4": boolean(4),
        "chain(4)": chain(4),
        "face poset of the tetrahedron boundary": face_poset(simplex_boundary(4)),
        "face poset of the triangle boundary": face_poset(simplex_boundary(3)),
    }
    for name, P in seeds.items():
        check(f"seed {name}", P)

    # weighted Segre products with strict g into the rank set
    ws = [
        ("M3 = weighted Segre square of B3", boolean(3), boolean(3)),
        ("weighted Segre of B4 with B2", boolean(4), boolean(2)),
        ("weighted Segre of B3 with chain(3)", boolean(3), chain(3)),
    ]
    for desc, P, Q in ws:
        res = weighted_segre(P, Q, rank_map(Q))
        check(desc, res.poset, hypotheses_ok=res.hypotheses_satisfied)

    # a strict non-rank weighting
    g = {0: 1, 1: 3}
    res = weighted_segre(boolean(4), chain(2), g)
    check("weighted Segre of B4 with 2-chain, g = (1, 3)", res.poset,
          hypotheses_ok=res.hypotheses_satisfied)

    # rank selections
    for S in ({1, 3}, {1, 2}, {2, 3}, {1, 2, 3}):
        check(f"rank selection of B4 at {sorted(S)}",
              rank_select(boolean(4), S))

    # Rees products with field-acyclic second factor
    rs = [
        ("R3 = Rees product of bottomless B3 with chain(3)",
         boolean_minus_bottom(3), chain(3)),
        ("Rees product of B3 with chain(2)", boolean(3), chain(2)),
        ("Rees product of bottomless B4 with chain(4)",
         boolean_minus_bottom(4), chain(4)),
    ]
    for desc, P, Q in rs:
        hyp = all(is_acyclic_over(Q, f) for f in fields)
        check(desc, rees(P, Q), hypotheses_ok=hyp)

    # the non-strict weighting counterexample: two disjoint edges
    antichain = build_poset(["a", "b"], [])
    two_chain = build_poset(["x", "y"], [("x", "y")])
    res = weighted_segre(antichain, two_chain, {"x": 0, "y": 0})
    check("non-strict weighting counterexample (disjoint union of two 1-chains)",
          res.poset, hypotheses_ok=res.hypotheses_satisfied, expect_only=False)

    return PreservationReport(tuple(cases))
