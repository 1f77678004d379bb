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

One interval sweep serves this test and the Koszul test of
``semigroups``: ``_undecided_intervals`` builds the place masks of its
poset's ``topo_order()`` once (``homology._place_masks``), takes one
critical-chain pass (``homology._critical_chains``) down from each upper
element it is given, and reads only the sizes of the chains it leaves.
An interval whose critical chains all sit in dimension ``gap - 2``
(there may be none) has free homology concentrated there and passes in
every mode, so the sweep lists only the other intervals.  Each of them
gets its integral homology from ``_interval_homology``: the critical
chains fix it when no two sit in adjacent dimensions (free, one
generator per chain), and otherwise the homology engine fixes torsion
and the failure text.  The engine reads the interval from the swept
poset's ``above`` masks and the interval's member mask
(``homology._chain_homology``), so no poset or complex is built per
interval.  ``_order_homology`` takes the same two steps on the
interval (0^, 1^) of a whole poset.  No empty interval reaches these
steps: the sweep passes cover pairs by their lone empty chain and
``_order_homology`` answers the empty poset itself, so
``_summary_violations`` judges a summary of a nonempty interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .homology import (
    HomologySummary,
    _chain_homology,
    _critical_chains,
    _morse_summary,
    _place_masks,
    field_name,
    make_summary,
    parse_coefficients,
)
from .posets import (
    Poset,
    PosetError,
    PurityFailure,
    augment,
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


def _undecided_intervals(A: Poset, rank: Sequence[int], uppers: Iterable[int]):
    """``(i, j, summary)`` for each open interval ``(i, j)`` of the pure
    poset ``A``, ``j`` in ``uppers``, whose critical-chain sizes leave it
    undecided, with its integral homology; ``rank`` is a rank function of
    ``A`` by index.

    The place masks of ``A.topo_order()`` are built once, and one
    ``_critical_chains`` pass down from each ``j`` serves every interval
    below it.  An interval whose critical chains all have ``gap - 1``
    elements, or which has none, has free homology in dimension
    ``gap - 2`` only and passes in every mode: cover pairs (only the
    empty chain) and rank-gap-2 antichains (only singletons) among
    them.  Intervals come by ``j`` as given, then in the pass's order,
    from the top down.
    """
    extension = _place_masks(A, A.topo_order())
    for j in uppers:
        crit = _critical_chains(extension, j)
        size, top = crit.size, rank[j] - 1
        for i, chains in crit.chains.items():
            k = top - rank[i]  # elements of a chain in dimension gap - 2
            for c in chains:
                if size[c] != k:
                    yield i, j, _interval_homology(A, i, j, map(size.__getitem__, chains))
                    break


def _interval_items(P: Poset):
    """The open intervals of the bounded extension that can fail, with
    their integral homology.

    Yields ``(lower, upper, rank_gap, summary)`` for each interval that
    ``_undecided_intervals`` leaves open, sorted by lower, then upper
    index.  Every other interval has free homology in dimension
    ``gap - 2`` only and passes in every mode.  Each upper element of
    rank 3 and up gets one critical-chain pass; the intervals below the
    others have rank gap 1 or 2 and pass.
    """
    A = augment(P)
    info = rank_info(A)
    if isinstance(info, PurityFailure):
        raise PosetError("interval analysis needs a pure poset")
    labels = A.labels
    rank = list(map(info.rank.__getitem__, labels))
    uppers = [j for j, r in enumerate(rank) if r > 2]
    for i, j, summary in sorted(_undecided_intervals(A, rank, uppers)):
        yield labels[i], labels[j], rank[j] - rank[i], summary


def _interval_homology(A: Poset, i: int, j: int, sizes) -> HomologySummary:
    """Integral reduced homology of the nonempty open interval between the
    indices ``i < j`` of ``A``, given the sizes of its critical chains
    (``_critical_chains(_place_masks(A, order), j).sizes(i)``).  They fix
    the homology unless two of them sit in adjacent dimensions; then the
    homology engine lays out the chains of the interval from ``A``'s
    ``above`` masks and the mask of the elements between ``i`` and ``j``.
    """
    summary = _morse_summary(sizes)
    if summary is None:
        above = A.above_masks()
        summary = _chain_homology(above, above[i] & A.below_masks()[j])
    return summary


def _summary_violations(summary: HomologySummary, gap: int, coeffs):
    """Nonzero homology dimensions outside ``gap - 2``, for the mode.

    ``summary`` is the integral homology of a nonempty open interval of
    rank gap ``gap``: ``_undecided_intervals`` decides the empty ones
    (cover pairs) by their chain sizes.  ``coeffs`` is a parsed selector:
    ``"Z"`` is the spherical mode, which also rejects torsion in
    dimension ``gap - 2``.
    """
    d = gap - 2
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


def is_cm_complex(K, coeffs: CoeffSpec = "Q") -> CMReport:
    """Cohen-Macaulayness of a complex via its face poset."""
    from .complexes import face_poset
    if K.is_void:
        raise PosetError("the void complex is excluded from CM analysis")
    return is_cm_poset(face_poset(K), coeffs)


def _order_homology(P: Poset) -> HomologySummary:
    """Integral reduced homology of the order complex of ``P``: one
    critical-chain pass down from 1^ of ``augment(P)``, then
    ``_interval_homology`` on (0^, 1^).  The empty poset has the empty
    complex, whose lone class sits in dimension -1."""
    if not len(P):
        return make_summary("Z", {}, empty_complex=True)
    A = augment(P)
    top = len(A) - 1
    sizes = _critical_chains(_place_masks(A, A.topo_order()), top).sizes(0)
    return _interval_homology(A, 0, top, sizes)


def is_acyclic_over(P: Poset, coeffs: CoeffSpec) -> bool:
    """All reduced homology of the order complex vanishes over the field;
    ``"Z"`` asks for vanishing integral homology (``_order_homology``)."""
    mode = parse_coefficients(coeffs)
    summary = _order_homology(P)
    return (summary if mode == "Z" else summary.over_field(mode)).is_trivial()


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
