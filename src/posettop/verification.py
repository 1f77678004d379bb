"""End-to-end verification suite.

Recomputes, from scratch, the battery of known results this library is
built around: the table of integral homology groups of the word ideals
in the subword order, the derangement-rank homology of the deranged
Rees posets and of the subword posets, the four-way Moebius identity
for the Segre square of the subset lattice, the Cohen-Macaulay
preservation suite, the semigroup Koszul checks, and the internal
cross-validation of the homology engine against elimination.

Every check is exact; a failed check names the expected and computed
values.  Independent checks can run in worker processes; the report
assembly is deterministic regardless of scheduling.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Optional

from .cohen_macaulay import cm_preservation_suite
from .complexes import order_complex, reduced_euler, simplicial_complex
from .constructions import (
    fiber_ideal,
    minors,
    rees_deranged,
    subword,
)
from .homology import HomologySummary, betti, boundary_matrices, check_chain_complex, \
    integral_homology, make_summary
from .intmatrix import IntegerMatrix, smith_normal_form, rank_over_rationals
from .permutations import (
    derangements,
    falling_chains_segre_square,
    flag_vector_boolean,
    no_common_ascent_pairs,
)
from .posets import build_poset, mobius, open_interval
from .semigroups import (
    koszul_necessary_test,
    natural_semigroup,
    punctured_veronese_semigroup,
)

# Known nonzero reduced integral homology of the word ideals I(n, i):
# {(n, i): {dimension: betti}}; every other cell is totally zero and no
# cell carries torsion.
WORD_IDEAL_HOMOLOGY = {
    (3, 2): {1: 1, 2: 1},
    (5, 2): {3: 1, 4: 1},
    (5, 3): {3: 6, 4: 6},
    (5, 4): {3: 1, 4: 1},
    (6, 3): {4: 13, 5: 13},
    (6, 4): {4: 13, 5: 13},
}

MOBIUS_PINNED = {1: 1, 2: 3, 3: 19}


@dataclass(frozen=True)
class CheckResult:
    block: str
    name: str
    passed: bool
    expected: str
    actual: str
    seconds: float = 0.0

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        out = f"[{mark}] {self.block}: {self.name}"
        if not self.passed:
            out += f"\n       expected {self.expected}\n       computed {self.actual}"
        return out


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]
    table_cells: tuple = ()  # ((n, i), homology string) for rendering

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def blocks(self) -> list[str]:
        seen = []
        for r in self.results:
            if r.block not in seen:
                seen.append(r.block)
        return seen

    def describe(self) -> str:
        lines = []
        if self.table_cells:
            lines.append(self.render_table())
            lines.append("")
        for block in self.blocks():
            for r in self.results:
                if r.block == block:
                    lines.append(r.line())
        n_fail = len(self.failures)
        lines.append("")
        lines.append(f"{len(self.results)} checks, "
                     f"{len(self.results) - n_fail} passed, {n_fail} failed")
        return "\n".join(lines)

    def render_table(self) -> str:
        """Grid of the word-ideal homology, one row per n."""
        cells = dict(self.table_cells)
        if not cells:
            return ""
        max_n = max(n for (n, _) in cells)
        width = max(len(v) for v in cells.values())
        width = max(width, 6)
        header = "n\\i " + " | ".join(f"{i:^{width}}" for i in range(1, max_n + 1))
        lines = ["word-ideal homology (reduced, integral):", header,
                 "-" * len(header)]
        for n in range(1, max_n + 1):
            row = [f"{cells.get((n, i), ''):^{width}}" for i in range(1, max_n + 1)]
            lines.append(f"{n:>3} " + " | ".join(row))
        return "\n".join(lines)

    def to_data(self) -> dict:
        # timings are kept off the payload so identical inputs give
        # byte-identical reports regardless of scheduling
        return {
            "all_passed": self.all_passed,
            "checks": [{"block": r.block, "name": r.name, "passed": r.passed,
                        "expected": r.expected, "actual": r.actual}
                       for r in self.results],
            "word_ideal_table": [
                {"n": n, "i": i, "homology": h} for ((n, i), h) in self.table_cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_data(), indent=2) + "\n"


def _expected_word_ideal_summary(n: int, i: int) -> HomologySummary:
    return make_summary("Z", {d: (b, ()) for d, b in
                              WORD_IDEAL_HOMOLOGY.get((n, i), {}).items()})


def _summary_str(s: HomologySummary) -> str:
    dims = s.nonzero_dims()
    if not dims:
        return "0"
    return ", ".join(f"H~{d}={s.group_str(d)}" for d in dims)


# -- worker tasks (top level, picklable) -----------------------------------


def _word_ideal_task(args):
    n, i = args
    t0 = time.time()
    fi = fiber_ideal(n, range(1, n + 1), i)
    K = order_complex(fi.poset)
    s = integral_homology(K)
    e = reduced_euler(K)
    return (n, i, s, e, fi.consistent, time.time() - t0)


def _rees_task(n):
    t0 = time.time()
    s = integral_homology(order_complex(rees_deranged(n)))
    return (n, s, time.time() - t0)


def _subword_task(n):
    t0 = time.time()
    s = integral_homology(order_complex(subword(n)))
    return (n, s, time.time() - t0)


def _parallel_map(fn, items, threads):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import concurrent.futures
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    except (OSError, RuntimeError):
        return [fn(x) for x in items]


def default_thread_count() -> int:
    env = os.environ.get("POSETTOP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


# -- corpus generators for the oracle block --------------------------------


def random_complex(rng: random.Random, max_vertices: int = 8):
    nv = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, min(nv, 4))
        facets.append(rng.sample(range(nv), size))
    return simplicial_complex(range(nv), facets)


def random_bounded_pure_poset(rng: random.Random, max_elements: int = 10):
    """Bounded poset, every maximal chain of the same length."""
    height = rng.randint(1, 3)
    budget = max_elements - 2
    sizes = []
    for h in range(height):
        sizes.append(rng.randint(1, max(1, budget // height)))
    levels = [[("v", h, k) for k in range(sizes[h])] for h in range(height)]
    covers = []
    for h in range(1, height):
        for x in levels[h]:
            for lo in rng.sample(levels[h - 1], rng.randint(1, len(levels[h - 1]))):
                covers.append((lo, x))
        for lo in levels[h - 1]:
            if not any(a == lo for (a, b) in covers if b in levels[h]):
                covers.append((lo, rng.choice(levels[h])))
    labels = ["bot"] + [x for lvl in levels for x in lvl] + ["top"]
    covers += [("bot", x) for x in levels[0]]
    covers += [(x, "top") for x in levels[-1]]
    return build_poset(labels, covers)


# -- the suite --------------------------------------------------------------


def run_verification(table_max_n: int = 6,
                     rees_max_n: int = 6,
                     subword_max_n: int = 5,
                     mobius_max_n: int = 5,
                     include_rees_7: bool = False,
                     threads: Optional[int] = None,
                     oracle_samples: int = 100,
                     seed: int = 20240211) -> VerificationReport:
    """Run every verification block and return the combined report.

    The default bounds match the documented budget (about a minute of
    single-core work, 55-70 s measured on a 2-core Intel Xeon host with
    Python 3.11, dominated by the n = 6 table row).
    Larger bounds are available behind the explicit arguments;
    ``include_rees_7`` adds the optional deranged-Rees check at n = 7.
    """
    if threads is None:
        threads = default_thread_count()
    results: list[CheckResult] = []
    table_cells = []

    # block 1 and 2: word-ideal homology table and its Euler characteristics
    cells = [(n, i) for n in range(1, table_max_n + 1) for i in range(1, n + 1)]
    # schedule the heavy cells first so pools stay busy
    cells.sort(key=lambda ni: -(ni[0] * 10 + min(ni[1], ni[0] + 1 - ni[1])))
    for (n, i, s, e, consistent, secs) in sorted(
            _parallel_map(_word_ideal_task, cells, threads)):
        expected = _expected_word_ideal_summary(n, i)
        ok = (s == expected)
        table_cells.append(((n, i), _summary_str(s)))
        results.append(CheckResult(
            "word-ideal homology", f"I({n},{i})", ok,
            _summary_str(expected), _summary_str(s), secs))
        results.append(CheckResult(
            "word-ideal euler", f"reduced Euler characteristic of I({n},{i})",
            e == 0, "0", str(e), 0.0))
        results.append(CheckResult(
            "word-ideal fiber", f"I({n},{i}) fiber equals generated ideal",
            consistent, "True", str(consistent), 0.0))
    table_cells.sort()

    # block 3: deranged Rees posets carry free homology of derangement rank
    rees_ns = list(range(2, rees_max_n + 1)) + ([7] if include_rees_7 else [])
    for (n, s, secs) in sorted(_parallel_map(_rees_task, rees_ns, threads)):
        expected = make_summary("Z", {n - 1: (derangements(n), ())})
        results.append(CheckResult(
            "deranged Rees homology", f"R({n})", s == expected,
            _summary_str(expected), _summary_str(s), secs))

    # block 4: subword posets have the same homology
    for (n, s, secs) in sorted(_parallel_map(_subword_task,
                                             range(1, subword_max_n + 1), threads)):
        expected = make_summary("Z", {n - 1: (derangements(n), ())})
        results.append(CheckResult(
            "subword homology", f"K({n})", s == expected,
            _summary_str(expected), _summary_str(s), secs))

    # block 5: the four-way Moebius identity
    for n in range(1, mobius_max_n + 1):
        t0 = time.time()
        mu = (-1) ** n * mobius(minors(n))
        nca = no_common_ascent_pairs(n)
        falling = falling_chains_segre_square(n)
        ab = flag_vector_boolean(n).alpha_beta_sum()
        values = (mu, nca, falling, ab)
        ok = len(set(values)) == 1
        expect = "all four equal"
        if n in MOBIUS_PINNED:
            ok = ok and values[0] == MOBIUS_PINNED[n]
            expect = f"all four equal {MOBIUS_PINNED[n]}"
        results.append(CheckResult(
            "moebius identities",
            f"n={n}: (-1)^n mu = no-common-ascent = falling chains = alpha*beta",
            ok, expect,
            f"mu={mu}, nca={nca}, falling={falling}, alpha*beta={ab}",
            time.time() - t0))

    # block 6: Cohen-Macaulay preservation
    t0 = time.time()
    pres = cm_preservation_suite(fields=("Q", 2))
    secs = time.time() - t0
    for case in pres.cases:
        results.append(CheckResult(
            "cm preservation", case.description, case.passed,
            "CM" if case.expected_cm else "non-CM",
            "; ".join(f"{name}: {'CM' if bool(r) else 'non-CM'}"
                      for (name, r) in case.reports),
            0.0))
    results.append(CheckResult(
        "cm preservation", "no theorem-contradicting outcome",
        pres.all_passed, "no defects",
        f"{len(pres.defects)} defect(s)", secs))

    # block 7: semigroup Koszul checks
    for d in (1, 2, 3):
        t0 = time.time()
        rep = koszul_necessary_test(natural_semigroup(d), 4)
        results.append(CheckResult(
            "semigroup koszul", f"free semigroup of rank {d}, intervals to rank 4",
            rep.passed, "consistent", rep.describe(), time.time() - t0))
    t0 = time.time()
    rep = koszul_necessary_test(punctured_veronese_semigroup(3), 3)
    results.append(CheckResult(
        "semigroup koszul",
        "degree-3 punctured Veronese semigroup, intervals to rank 3",
        rep.passed, "consistent", rep.describe(), time.time() - t0))
    results.append(_semigroup_interval_check())

    # block 8: homology engine oracles
    results.extend(_oracle_block(oracle_samples, seed))

    return VerificationReport(tuple(results), tuple(table_cells))


def _semigroup_interval_check() -> CheckResult:
    """Interval isomorphisms and self-duality in product semigroups."""
    from .constructions import rees as poset_rees, weighted_segre
    from .posets import closed_interval, dual, is_isomorphic
    from .semigroups import (
        build_semigroup, lower_interval, rees_semigroup, segre_semigroup,
        split_pair,
    )
    t0 = time.time()
    problems = []
    N = build_semigroup([(1,)])
    N2 = natural_semigroup(2)

    def iso_by(mapping, P, Q):
        if set(mapping) != set(P.labels) or set(mapping.values()) != set(Q.labels):
            return False
        return all(P.leq(a, b) == Q.leq(mapping[a], mapping[b])
                   for a in P.labels for b in P.labels)

    # self-duality of lower intervals, all elements of degree <= 3
    for S in (N2, punctured_veronese_semigroup(2), punctured_veronese_semigroup(3)):
        for m in range(1, 4):
            for lam in S.enumerate_up_to(3)[m]:
                P = lower_interval(S, lam)
                if not is_isomorphic(P, dual(P)):
                    problems.append(f"interval below {lam} not self-dual")

    # Segre intervals match weighted Segre products of posets
    view = segre_semigroup(N2, N, (2,))
    for k in (1, 2, 3):
        pair = ((k, k), (k,))
        P = view.lower_interval(pair)
        left = lower_interval(N2, (k, k))
        right = lower_interval(N, (k,))
        g = {y: 2 * y[0] for y in right.labels}
        W = weighted_segre(left, right, g).poset
        if not iso_by({p: p for p in P.labels}, P, W):
            problems.append(f"Segre interval below {pair} mismatch")

    # Rees intervals match principal ideals in poset Rees products
    R = rees_semigroup(N2, N)
    for lam in [(1, 1, 1), (2, 1, 2), (1, 2, 1)]:
        P = lower_interval(R, lam)
        a, b = split_pair(lam, 2)
        W = poset_rees(lower_interval(N2, a), lower_interval(N, b))
        ideal = closed_interval(W, (((0, 0)), ((0,) * 1)), (a, b))
        if not iso_by({v: split_pair(v, 2) for v in P.labels}, P, ideal):
            problems.append(f"Rees interval below {lam} mismatch")
        rk_ok = all(sum(split_pair(v, 2)[0]) >= sum(split_pair(v, 2)[1])
                    for v in P.labels)
        if not rk_ok:
            problems.append(f"rank inequality fails below {lam}")

    return CheckResult(
        "semigroup intervals",
        "self-duality, Segre and Rees interval isomorphisms (degree <= 3)",
        not problems, "all isomorphisms hold",
        "; ".join(problems) if problems else "all isomorphisms hold",
        time.time() - t0)


def _oracle_block(samples: int, seed: int) -> list[CheckResult]:
    results = []
    rng = random.Random(seed)

    # boundary composition is zero on a random corpus
    t0 = time.time()
    bad = 0
    for _ in range(40):
        K = random_complex(rng)
        if not check_chain_complex(boundary_matrices(K)):
            bad += 1
    results.append(CheckResult(
        "homology oracle", "boundary of boundary vanishes (40 random complexes)",
        bad == 0, "0 violations", f"{bad} violations", time.time() - t0))

    # SNF-derived rational Betti numbers match Bareiss ranks of the full
    # boundary matrices, which share no code with the integral engine
    t0 = time.time()
    mismatches = 0
    for _ in range(samples):
        K = random_complex(rng)
        via_snf = integral_homology(K).over_field("Q")
        mats = boundary_matrices(K)
        ranks = [rank_over_rationals(M) for M in mats] + [0]
        via_elim = make_summary("Q", {i: (M.ncols - ranks[i] - ranks[i + 1], ())
                                      for i, M in enumerate(mats)})
        if via_snf != via_elim:
            mismatches += 1
    results.append(CheckResult(
        "homology oracle",
        f"SNF Betti numbers equal elimination Betti numbers ({samples} random complexes)",
        mismatches == 0, "0 mismatches", f"{mismatches} mismatches",
        time.time() - t0))

    # Hall: Moebius values equal interval Euler characteristics
    t0 = time.time()
    mismatches = 0
    for _ in range(samples):
        P = random_bounded_pure_poset(rng)
        for x in P.labels:
            for y in P.labels:
                if x != y and P.leq(x, y):
                    e = reduced_euler(order_complex(open_interval(P, x, y)))
                    if mobius(P, x, y) != e:
                        mismatches += 1
    results.append(CheckResult(
        "homology oracle",
        f"Moebius equals interval Euler characteristic ({samples} random posets)",
        mismatches == 0, "0 mismatches", f"{mismatches} mismatches",
        time.time() - t0))

    # the minimal projective plane: torsion and field dependence
    t0 = time.time()
    rp2 = simplicial_complex(
        range(1, 7),
        [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
         (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])
    z = integral_homology(rp2)
    over2 = betti(rp2, 2)
    overq = betti(rp2, "Q")
    ok = (z == make_summary("Z", {1: (0, (2,))})
          and over2.betti(1) == 1 and over2.betti(2) == 1
          and over2.nonzero_dims() == (1, 2)
          and overq.is_trivial())
    results.append(CheckResult(
        "homology oracle",
        "six-vertex projective plane: Z/2 integrally, rank 1,1 over GF(2), trivial over Q",
        ok, "H~1 = Z/2; GF(2) ranks (1, 1); Q trivial",
        f"integral {z}; GF(2) ranks ({over2.betti(1)}, {over2.betti(2)}); "
        f"Q {'trivial' if overq.is_trivial() else 'nontrivial'}",
        time.time() - t0))

    # determinant preservation of the Smith normal form on square inputs
    t0 = time.time()
    bad = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        M = IntegerMatrix.from_rows(rows)
        r = rank_over_rationals(M)
        snf = smith_normal_form(M)
        if snf.rank != r:
            bad += 1
        nz = [d for d in snf.diagonal if d]
        if any(b % a for a, b in zip(nz, nz[1:])):
            bad += 1
    results.append(CheckResult(
        "homology oracle",
        "Smith normal form rank and divisibility chain (40 random matrices)",
        bad == 0, "0 violations", f"{bad} violations", time.time() - t0))
    return results
