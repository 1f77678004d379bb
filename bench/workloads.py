"""The benchmark's workloads: inputs, questions, and the check on each answer.

A question is one call a user would make: one integral homology group,
one CM verdict, one Koszul interval test or one field Betti vector.
``ask`` is the timed call; afterwards, untimed, ``digest`` turns its
answer into plain data and ``check`` compares that with ``oracles``.  Questions call posettop through
module attributes looked up at call time, so the traced run's wrappers
see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import posettop as api
import oracles


@dataclass
class Question:
    name: str
    ask: Callable[[], object]
    digest: Callable[[object], object]  # the answer as plain, comparable data
    check: Callable[[object], list[str]]  # problems with a digest


def cm_digest(report):
    return report.verdict, tuple(str(f) for f in report.failures)


def koszul_digest(report):
    return report.passed, report.elements_checked, report.homology_runs, report.witness


def plain(summary) -> dict:
    """A homology summary as ``{dimension: (betti, torsion)}``, nonzero only."""
    if summary.empty_complex:
        return {-1: (1, ())}
    return {d: (b, tuple(t)) for d, (b, t) in enumerate(summary.groups) if b or t}


def field_label(f) -> str:
    return f"GF({f})" if isinstance(f, int) else f


def _warm(P):
    """Fill the poset's lazy order data so every round does the same work."""
    P.above_masks()
    P.below_masks()
    api.rank_info(P)
    return P


SMALL_PRIMES = (2, 3, 5, 7)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# -- chain-homology ------------------------------------------------------

# I(6,3) and I(6,5) are left out: each repeats the layer mix of I(6,4) or
# I(6,2) and together they would add half again to every run (see README).
WORD_IDEALS = [(n, i) for n in range(1, 6) for i in range(1, n + 1)] + \
    [(6, 1), (6, 2), (6, 4), (6, 6)]


def _word_ideal_question(n, i, P) -> Question:
    def check(groups):
        counts = oracles.chain_counts(len(P), P.covers)
        field = None
        if n <= 5:
            over2 = api.betti(api.order_complex(P), 2)
            field = {d: b for d, (b, _) in plain(over2).items()}
        return oracles.check_word_ideal(
            n, i, groups, oracles.euler_from_chains(counts),
            oracles.mobius_bounded(len(P), P.covers), field)
    return Question(f"I({n},{i})",
                    lambda: api.integral_homology(api.order_complex(P)), plain, check)


def _derangement_question(name, n, P, field=None) -> Question:
    """R(n) and K(n): free homology of rank D(n) in dimension n - 1."""
    if field is None:
        ask = lambda: api.integral_homology(api.order_complex(P))  # noqa: E731
    else:
        ask = lambda: api.betti(api.order_complex(P), field)  # noqa: E731
        name = f"{name} over {field_label(field)}"
    return Question(name, ask, plain, lambda groups: oracles.check_concentrated(
        groups, n - 1, oracles.derangements(n)))


def chain_homology(rng: random.Random) -> list[Question]:
    """Fixed families only: the seed is not used."""
    qs = [_word_ideal_question(n, i, _warm(api.fiber_ideal(n, range(1, n + 1), i).poset))
          for (n, i) in WORD_IDEALS]
    qs += [_derangement_question(f"R({n})", n, _warm(api.rees_deranged(n)))
           for n in range(2, 7)]
    qs += [_derangement_question(f"K({n})", n, _warm(api.subword(n)))
           for n in range(1, 6)]
    return qs


# -- interval-sweeps -----------------------------------------------------


def wide_poset(width: int = 600):
    """Rank 1: ``width`` minimal elements, each below both of 2 maximal ones.

    Every open interval of its bounded extension is an antichain sitting
    in its top dimension, so it is CM over every field.
    """
    labels = [f"m{k}" for k in range(width)] + ["t0", "t1"]
    covers = [(f"m{k}", t) for k in range(width) for t in ("t0", "t1")]
    return api.build_poset(labels, covers)


def cm_inputs(fields) -> list[tuple[str, object, bool, tuple]]:
    """(name, poset, expected verdict, fields) for the CM questions.

    Boolean lattices and the subword order are shellable; rank selection
    keeps shellability; the paper's theorems keep CM (over a field and
    homotopically, hence Z-spherical) for weighted Segre products with
    strictly increasing g and for Rees products with an acyclic factor.
    Two disjoint 1-chains are disconnected in rank 1: not CM anywhere.
    """
    B = api.boolean
    weighted = lambda P, Q, g=None: api.weighted_segre(  # noqa: E731
        P, Q, api.rank_map(Q) if g is None else g).poset
    cases = [(f"B{n}", B(n)) for n in (4, 5, 6)]
    cases += [(f"B{n} ranks {sorted(S)}", api.rank_select(B(n), S))
              for n, S in ((5, {1, 3}), (5, {2, 4}), (5, {1, 2, 4}),
                           (6, {1, 3, 5}), (6, {2, 3, 4}))]
    cases += [("face poset of the 4-simplex boundary",
               api.face_poset(api.simplex_boundary(5)))]
    cases += [("Segre B3 x B3, g = rank", weighted(B(3), B(3))),
              ("Segre B4 x B2, g = rank", weighted(B(4), B(2))),
              ("Segre B3 x chain(3), g = rank", weighted(B(3), api.chain(3))),
              ("Segre B4 x chain(2), g = (1, 3)", weighted(B(4), api.chain(2), {0: 1, 1: 3})),
              ("Segre B4 x B4, g = rank", weighted(B(4), B(4)))]
    cases += [(f"Rees B{n}-minus-bottom x chain({n})",
               api.rees(api.boolean_minus_bottom(n), api.chain(n))) for n in (3, 4, 5)]
    cases += [("Rees B3 x chain(2)", api.rees(B(3), api.chain(2)))]
    out = [(name, _warm(P), True, fields) for name, P in cases]
    two_edges = api.weighted_segre(api.build_poset(["a", "b"], []),
                                   api.build_poset(["x", "y"], [("x", "y")]),
                                   {"x": 0, "y": 0}).poset
    out.append(("two disjoint 1-chains (non-strict g)", _warm(two_edges), False, fields))
    out.append(("K(5)", _warm(api.subword(5)), True, ("Q",)))
    # Fails today: with the interval cache on, an isomorphism search over
    # two 600-element intervals hits find_isomorphism's 512-element limit.
    out.append(("wide rank-1 poset, 600 below 2", _warm(wide_poset()), True, ("Q",)))
    return out


def koszul_inputs() -> list[tuple[str, object, list, int]]:
    """(name, program's semigroup, own generators, max rank).

    All are Koszul over Q, so every interval passes: polynomial rings
    N^d, Veronese subrings (quadratic Groebner bases), the pinched
    Veronese (Caviglia 2009), weighted Segre products of these (the
    paper's theorem, after Crona) and Rees rings (the paper's theorem).
    """
    units, mono = oracles.unit_vectors, oracles.monomials

    def veronese(d, k):
        return api.build_semigroup(mono(d, k), weight=(1,) * d, scale=k)

    def segre(S, T, g):
        view = api.segre_semigroup(S, T, g)
        gens = [x + y for (x, y) in view.enumerate_up_to(1)[1]]
        return api.build_semigroup(gens, weight=(0,) * S.dim + T.weight, scale=T.scale)

    N = api.natural_semigroup
    pinched = [v for v in mono(3, 3) if v != (1, 1, 1)]
    return [
        ("N^2", N(2), units(2), 5),
        ("N^3", N(3), units(3), 4),
        ("N^4", N(4), units(4), 5),
        ("N^5", N(5), units(5), 4),
        ("Veronese(2,2)", veronese(2, 2), mono(2, 2), 5),
        ("Veronese(2,3)", veronese(2, 3), mono(2, 3), 4),
        ("Veronese(3,2)", veronese(3, 2), mono(3, 2), 5),
        ("Veronese(3,3)", veronese(3, 3), mono(3, 3), 4),
        ("Veronese(4,2)", veronese(4, 2), mono(4, 2), 3),
        ("pinched Veronese(3,3)", api.punctured_veronese_semigroup(3), pinched, 4),
        ("Segre N^2 x N^2, g = deg", segre(N(2), N(2), (1, 1)),
         oracles.segre_generators(mono(2, 1), units(2)), 4),
        ("Segre N^2 x N^2, g = 2 deg", segre(N(2), N(2), (2, 2)),
         oracles.segre_generators(mono(2, 2), units(2)), 3),
        ("Segre N^3 x N^2, g = deg", segre(N(3), N(2), (1, 1)),
         oracles.segre_generators(mono(3, 1), units(2)), 3),
        ("Rees N^2 * N", api.rees_semigroup(N(2), N(1)),
         oracles.rees_generators(units(2), units(1)), 4),
        ("Rees N^3 * N", api.rees_semigroup(N(3), N(1)),
         oracles.rees_generators(units(3), units(1)), 4),
        ("Rees Veronese(2,2) * N", api.rees_semigroup(veronese(2, 2), N(1)),
         oracles.rees_generators(mono(2, 2), units(1)), 4),
        ("Rees Veronese(3,2) * N", api.rees_semigroup(veronese(3, 2), N(1)),
         oracles.rees_generators(mono(3, 2), units(1)), 3),
    ]


def _koszul_question(name, S, own_gens, r) -> Question:
    def ask():
        # a fresh semigroup object, so no round reuses another's layers
        fresh = api.build_semigroup(S.generators, weight=S.weight, scale=S.scale)
        return api.koszul_necessary_test(fresh, r)

    def check(digest):
        passed, elements_checked = digest[:2]
        problems = []
        if set(S.generators) != set(own_gens):
            problems.append("generators differ from the independent construction")
        count = sum(oracles.semigroup_layer_sizes(own_gens, r)[2:])
        return problems + oracles.check_koszul(passed, elements_checked, count)
    return Question(f"Koszul {name} to rank {r}", ask, koszul_digest, check)


def interval_sweeps(rng: random.Random) -> list[Question]:
    """The seed picks the prime of the GF(p) CM questions."""
    qs = []
    for name, P, expected, fields in cm_inputs(("Q", rng.choice(SMALL_PRIMES), "Z-spherical")):
        for f in fields:
            qs.append(Question(
                f"CM {name} over {field_label(f)}",
                lambda P=P, f=f: api.is_cm_poset(P, f), cm_digest,
                lambda digest, e=expected: oracles.check_verdict(e, digest[0])))
    qs += [_koszul_question(*case) for case in koszul_inputs()]
    return qs


# -- field-betti ---------------------------------------------------------


def field_betti(rng: random.Random) -> list[Question]:
    """The seed picks the odd primes; the work does not depend on which."""
    # K(4) over Q (about 21 s) and R(5) over GF(3) (about 27 s) are left
    # out to keep every run inside the time budget (see README).
    # (family, n, number of odd primes, also over Q)
    plan = [("R", 3, 1, True), ("K", 3, 1, True), ("R", 4, 3, True), ("K", 4, 3, False)]
    qs = []
    for tag, n, n_primes, over_q in plan:
        P = _warm({"R": api.rees_deranged, "K": api.subword}[tag](n))
        fields = rng.sample(ODD_PRIMES, n_primes) + ["Q"] * over_q
        qs += [_derangement_question(f"{tag}({n})", n, P, f) for f in fields]
    return qs


WORKLOADS = {
    "chain-homology": chain_homology,
    "interval-sweeps": interval_sweeps,
    "field-betti": field_betti,
}


def build(workload: str, seed: int) -> list[Question]:
    """Build every input of the workload, in a fixed question order."""
    return WORKLOADS[workload](random.Random(seed))
