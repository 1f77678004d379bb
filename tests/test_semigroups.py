import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from posettop import cohen_macaulay, semigroups
from posettop.cohen_macaulay import (
    _summary_violations,
    cm_coefficient_name,
    is_cm_poset,
)
from posettop.complexes import order_complex
from posettop.constructions import boolean, chain, rees, weighted_segre
from posettop.homology import (
    _chain_homology,
    _critical_chains,
    _place_masks,
    integral_homology,
    parse_coefficients,
)
from posettop.posets import (
    PurityFailure,
    SizeLimitError,
    dual,
    is_isomorphic,
    rank_info,
    require_rank_info,
)
from posettop.semigroups import (
    GradingMap,
    HomogeneousSemigroup,
    KoszulReport,
    SemigroupError,
    build_semigroup,
    grading_map,
    koszul_necessary_test,
    lower_interval,
    natural_semigroup,
    open_interval_below,
    punctured_veronese_semigroup,
    rees_semigroup,
    segre_semigroup,
    semigroup_from_data,
    semigroup_from_json,
    semigroup_to_json,
    split_pair,
)

from construction_oracle import (
    reference_divisibility_poset,
    reference_segre_intervals,
    reference_segre_pairs,
    reference_veronese_generators,
)
from test_constructions import is_order_isomorphism, same_order_data
from test_posets import boolean_lattice


def veronese_semigroup(d, k):
    """The k-th Veronese of N^d: all degree-k monomials in d variables."""
    gens = []
    for comp in itertools.combinations_with_replacement(range(d), k):
        gens.append(tuple(comp.count(i) for i in range(d)))
    return build_semigroup(gens, weight=(1,) * d, scale=k)


def segre_of_naturals():
    """Segre product of N^2 with itself: pairs of unit vectors."""
    view = segre_semigroup(natural_semigroup(2), natural_semigroup(2), (1, 1))
    return build_semigroup([x + y for (x, y) in view.enumerate_up_to(1)[1]])


# (name, semigroup, max rank, Koszul)
KOSZUL_CORPUS = [
    ("N^1", lambda: natural_semigroup(1), 5, True),
    ("N^2", lambda: natural_semigroup(2), 4, True),
    ("N^3", lambda: natural_semigroup(3), 4, True),
    ("punctured Veronese(2)", lambda: punctured_veronese_semigroup(2), 4, True),
    ("punctured Veronese(3)", lambda: punctured_veronese_semigroup(3), 3, True),
    ("Veronese(2,3)", lambda: veronese_semigroup(2, 3), 4, True),
    ("Segre N^2 x N^2", segre_of_naturals, 4, True),
    ("Rees N^2 * N", lambda: rees_semigroup(natural_semigroup(2), natural_semigroup(1)), 4, True),
    ("non-Koszul", lambda: build_semigroup([(3, 0), (2, 1), (0, 3)]), 3, False),
]


def reference_koszul(S, max_rank, coeffs):
    """The Koszul test one interval at a time: ``open_interval_below``, a
    purity check, then the homology engine on the interval's order
    complex."""
    mode = parse_coefficients(coeffs)
    name = cm_coefficient_name(mode)
    layers = S.enumerate_up_to(max_rank)
    checked = runs = 0
    for m in range(2, max_rank + 1):
        for lam in layers[m]:
            checked += 1
            P = open_interval_below(S, lam)
            info = rank_info(P)
            if len(P) == 0 or isinstance(info, PurityFailure):
                bad = ("empty or impure",)
            elif m == 2:
                bad = ()  # an antichain: free homology in dimension 0 only
            else:
                runs += 1
                bad = _summary_violations(integral_homology(order_complex(P)), m, mode)
            if bad:
                return KoszulReport(False, max_rank, name, witness=(lam, "; ".join(bad)),
                                    elements_checked=checked, homology_runs=runs)
    return KoszulReport(True, max_rank, name, elements_checked=checked, homology_runs=runs)


def two_poset_koszul(S, max_rank, coeffs):
    """The Koszul test as it ran on two posets: the divisibility poset,
    then its ``dual`` for the one critical-chain pass, with (0, x) judged
    inside the divisibility poset."""
    mode = parse_coefficients(coeffs)
    name = cm_coefficient_name(mode)
    layers = S.enumerate_up_to(max_rank)
    T = reference_divisibility_poset(S, [x for layer in layers for x in layer])
    D = dual(T)
    crit = _critical_chains(_place_masks(D, D.topo_order()), 0)
    extension = _place_masks(T, T.topo_order())
    checked, runs = len(layers[2]), 0
    for m in range(3, max_rank + 1):
        for lam in layers[m]:
            checked += 1
            runs += 1
            j = T.index(lam)
            if all(s == m - 1 for s in crit.sizes(j)):
                continue
            summary = cohen_macaulay._interval_homology(extension, 0, j, crit.sizes(j))
            bad = _summary_violations(summary, m, mode)
            if bad:
                return KoszulReport(False, max_rank, name, witness=(lam, "; ".join(bad)),
                                    elements_checked=checked, homology_runs=runs)
    return KoszulReport(True, max_rank, name, elements_checked=checked, homology_runs=runs)


def benchmark_semigroups():
    """(name, semigroup, max rank): the interval-sweeps benchmark's 17
    Koszul questions, then the non-Koszul semigroup."""
    N = natural_semigroup

    def segre(S, T, g):
        view = segre_semigroup(S, T, g)
        gens = [x + y for (x, y) in view.enumerate_up_to(1)[1]]
        return build_semigroup(gens, weight=(0,) * S.dim + T.weight, scale=T.scale)
    return [
        ("N^2", N(2), 5), ("N^3", N(3), 4), ("N^4", N(4), 5), ("N^5", N(5), 4),
        ("Veronese(2,2)", veronese_semigroup(2, 2), 5),
        ("Veronese(2,3)", veronese_semigroup(2, 3), 4),
        ("Veronese(3,2)", veronese_semigroup(3, 2), 5),
        ("Veronese(3,3)", veronese_semigroup(3, 3), 4),
        ("Veronese(4,2)", veronese_semigroup(4, 2), 3),
        ("pinched Veronese(3,3)", punctured_veronese_semigroup(3), 4),
        ("Segre N^2 x N^2, g = deg", segre(N(2), N(2), (1, 1)), 4),
        ("Segre N^2 x N^2, g = 2 deg", segre(N(2), N(2), (2, 2)), 3),
        ("Segre N^3 x N^2, g = deg", segre(N(3), N(2), (1, 1)), 3),
        ("Rees N^2 * N", rees_semigroup(N(2), N(1)), 4),
        ("Rees N^3 * N", rees_semigroup(N(3), N(1)), 4),
        ("Rees Veronese(2,2) * N", rees_semigroup(veronese_semigroup(2, 2), N(1)), 4),
        ("Rees Veronese(3,2) * N", rees_semigroup(veronese_semigroup(3, 2), N(1)), 3),
        ("non-Koszul", build_semigroup([(3, 0), (2, 1), (0, 3)]), 3),
    ]


class TestBuild:
    def test_naturals(self):
        N = build_semigroup([(1,)])
        assert N.degree((5,)) == 5

    def test_n2(self):
        N2 = natural_semigroup(2)
        assert N2.generators == ((0, 1), (1, 0))

    def test_non_homogeneous_rejected(self):
        with pytest.raises(SemigroupError, match="not homogeneous"):
            build_semigroup([(1, 0), (1, 1)])

    def test_zero_generator_rejected(self):
        with pytest.raises(SemigroupError, match="zero"):
            build_semigroup([(1, 0), (0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(SemigroupError, match="duplicate"):
            build_semigroup([(1,), (1,)])

    def test_scaled_functional(self):
        # generators of coordinate sum 3, weight all ones, scale 3
        S = punctured_veronese_semigroup(3)
        assert S.scale == 3
        assert S.degree((3, 0, 0)) == 1
        assert S.degree((3, 3, 0)) == 2

    def test_fractional_degree_rejected(self):
        S = punctured_veronese_semigroup(3)
        with pytest.raises(SemigroupError, match="non-integral"):
            S.degree((1, 0, 0))


class TestEnumeration:
    def test_n2_layers(self):
        N2 = natural_semigroup(2)
        layers = N2.enumerate_up_to(2)
        assert [len(x) for x in layers] == [1, 2, 3]

    def test_veronese_family_generator_counts(self):
        for d, count in [(2, 2), (3, 9), (4, 34), (5, 125)]:
            gens = punctured_veronese_semigroup(d).generators
            assert len(gens) == count and gens == reference_veronese_generators(d)

    def test_lambda3_first_layer(self):
        S = punctured_veronese_semigroup(3)
        assert S.enumerate_up_to(1)[1] == sorted(S.generators)

    def test_naturals_prefix(self):
        N = build_semigroup([(1,)])
        layers = N.enumerate_up_to(5)
        assert [x for layer in layers for x in layer] == [(m,) for m in range(6)]

    def test_element_cap(self, monkeypatch):
        # the cap counts the up covers recorded over all degrees, one per
        # element below the new layer and generator, and a refused layer
        # leaves the semigroup as it was
        monkeypatch.setattr(semigroups, "COVER_CAP", 6)
        S = build_semigroup([(1, 0), (0, 1)])
        assert [len(x) for x in S.enumerate_up_to(2)] == [1, 2, 3]
        for _ in range(2):
            with pytest.raises(SizeLimitError,
                               match="degree 3 would record 12 up covers, COVER_CAP is 6"):
                S.contains((3, 0))
            assert (len(S._labels), len(S._index), len(S._up), len(S._down),
                    S._starts) == (6, 6, 3, 6, [0, 1, 3, 6])
        assert S.contains((2, 0)) and not S.contains((2, -1))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_cover_cap_refuses_before_summing(self):
        # with 34 generators the cap is reached at degree 9, from the
        # 17,360 elements below it, before the layer's sums are formed; the
        # child reports its own time and peak resident size (VmHWM, kB)
        code = ("import time\n"
                "from posettop.posets import SizeLimitError\n"
                "from posettop.semigroups import punctured_veronese_semigroup\n"
                "S = punctured_veronese_semigroup(4)\n"
                "t = time.perf_counter()\n"
                "try:\n"
                "    S.contains((240, 0, 0, 0))\n"
                "except SizeLimitError as e:\n"
                "    print(e)\n"
                "print(time.perf_counter() - t)\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=10)
        message, seconds, peak_kb = done.stdout.splitlines()
        assert message == "degree 9 would record 590240 up covers, COVER_CAP is 400000"
        assert float(seconds) < 1.0
        assert int(peak_kb) < 100 * 1024

    def test_membership(self):
        S = punctured_veronese_semigroup(2)  # generated by (2,0) and (0,2)
        assert S.contains((2, 2))
        assert not S.contains((1, 1))
        assert not S.contains((-2, 0))


class TestLowerIntervals:
    def test_chain_interval(self):
        N = build_semigroup([(1,)])
        P = lower_interval(N, (3,))
        assert is_isomorphic(P, chain(4))

    def test_diamond_interval(self):
        N2 = natural_semigroup(2)
        P = lower_interval(N2, (1, 1))
        assert is_isomorphic(P, boolean_lattice(2))

    def test_unreachable_rejected(self):
        S = punctured_veronese_semigroup(2)
        with pytest.raises(SemigroupError):
            lower_interval(S, (1, 1))

    def test_rank_equals_degree(self):
        # generators have degree one, so [0, lam] is graded by degree
        # (hence pure) and (0, lam) holds the generators below lam: the
        # Koszul test needs no emptiness or purity check
        for name, make, _, _ in KOSZUL_CORPUS:
            S = make()
            for m, layer in enumerate(S.enumerate_up_to(4)):
                for lam in layer:
                    P = lower_interval(S, lam)
                    members = [mu for layer in S.enumerate_up_to(m) for mu in layer
                               if S.contains(tuple(a - b for a, b in zip(lam, mu)))]
                    ref = reference_divisibility_poset(S, members)
                    assert same_order_data(P, ref), (name, lam)
                    info = require_rank_info(P)
                    assert all(info.rank[v] == S.degree(v) for v in P.labels), (name, lam)
                    if m >= 2:
                        assert len(open_interval_below(S, lam)) > 0, (name, lam)

    def test_self_duality(self):
        # every computed lower interval is self-dual
        for S in (natural_semigroup(2), punctured_veronese_semigroup(2),
                  punctured_veronese_semigroup(3)):
            layers = S.enumerate_up_to(3)
            for m in range(1, 4):
                for lam in layers[m][:6]:
                    P = lower_interval(S, lam)
                    assert is_isomorphic(P, dual(P)), (S, lam)

    def test_translation_invariance(self):
        # [mu, lam] is isomorphic to [0, lam - mu] by the explicit shift
        from posettop.posets import closed_interval
        S = punctured_veronese_semigroup(2)
        layers = S.enumerate_up_to(4)
        for lam in layers[3]:
            P = lower_interval(S, lam)
            for mu in P.labels:
                diff = tuple(a - b for a, b in zip(lam, mu))
                upper = closed_interval(P, mu, lam)
                shifted = lower_interval(S, diff)
                mapping = {x: tuple(a - b for a, b in zip(x, mu))
                           for x in upper.labels}
                assert is_order_isomorphism(mapping, upper, shifted)

    def test_open_interval(self):
        N2 = natural_semigroup(2)
        P = open_interval_below(N2, (1, 1))
        assert len(P) == 2
        assert P.covers == ()


class TestKoszulTest:
    def test_free_semigroups_pass(self):
        for d in (1, 2, 3):
            for r in (2, 3, 4):
                rep = koszul_necessary_test(natural_semigroup(d), r)
                assert rep.passed, rep.describe()

    def test_non_koszul_semigroup_fails_with_witness(self):
        # the open interval below (6, 3) has two components where a
        # connected one is required
        S = build_semigroup([(3, 0), (2, 1), (0, 3)])
        for coeffs, name, detail in (("Q", "Q", "H~0 has rank 1 over Q"),
                                     (2, "GF(2)", "H~0 has rank 1 over GF(2)"),
                                     ("z-spherical", "Z-spherical", "H~0 = Z")):
            rep = koszul_necessary_test(S, 3, coeffs=coeffs)
            assert not rep.passed
            assert rep.coefficients == name
            assert rep.witness == ((6, 3), detail)
            assert rep.describe() == f"fails at (6, 3): {detail}"
            # the same violation text as the CM sweep of the closed interval
            cm = is_cm_poset(lower_interval(S, (6, 3)), coeffs)
            assert detail in [f.found for f in cm.failures]

    def test_matches_reference_sweep(self):
        for name, make, r, koszul in KOSZUL_CORPUS:
            for coeffs in ("Q", 2, "z-spherical"):
                rep = koszul_necessary_test(make(), r, coeffs)
                assert rep == reference_koszul(make(), r, coeffs), (name, coeffs)
                assert rep.passed == koszul, (name, coeffs)

    def test_witness_is_the_least_failing_element(self):
        # several intervals fail, and the critical-chain pass down from
        # the zero element meets them out of index order; the report is
        # still the early-exit reference's
        cases = [([(4, 0), (3, 1), (1, 3), (0, 4)], (3, 4, 5)),
                 ([(3, 0), (2, 1), (0, 3)], (5,))]
        for gens, ranks in cases:
            S = build_semigroup(gens)
            for r in ranks:
                for coeffs in ("Q", 2, "z-spherical"):
                    rep = koszul_necessary_test(S, r, coeffs)
                    assert rep == reference_koszul(S, r, coeffs), (gens, r, coeffs)
                    assert not rep.passed
            layers = S.enumerate_up_to(ranks[-1])
            failing = [lam for m in range(3, ranks[-1] + 1) for lam in layers[m]
                       if _summary_violations(
                           integral_homology(order_complex(open_interval_below(S, lam))), m, "Q")]
            assert len(failing) > 1
            assert rep.witness[0] == failing[0]
            D = dual(semigroups._divisibility_order(S, ranks[-1]))
            crit = _critical_chains(_place_masks(D, D.topo_order()), 0)
            met = list(map(D.labels.__getitem__, crit.chains))
            assert sorted(failing, key=met.index) != failing

    def test_matches_the_two_poset_path(self):
        # the recorded divisibility order and the dict-based one give the
        # same dual poset, critical-chain ids and reports
        cases = benchmark_semigroups()
        assert len(cases) == 18
        for name, S, r in cases:
            layers = S.enumerate_up_to(r)
            D = dual(semigroups._divisibility_order(S, r))
            T = dual(reference_divisibility_poset(S, [x for layer in layers for x in layer]))
            assert (D.labels, D.covers, D._index) == (T.labels, T.covers, T._index), name
            assert (D._up_adj, D._down_adj) == (T._up_adj, T._down_adj), name
            assert D.topo_order() == T.topo_order(), name
            assert (_critical_chains(_place_masks(D, D.topo_order()), 0)
                    == _critical_chains(_place_masks(T, T.topo_order()), 0)), name
            for coeffs in ("Q", 2, "z-spherical"):
                rep = koszul_necessary_test(S, r, coeffs)
                assert rep == two_poset_koszul(S, r, coeffs), (name, coeffs)
                assert rep.passed == (name != "non-Koszul"), (name, coeffs)

    def test_one_poset_and_engine_only_where_needed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-element interval built")
        monkeypatch.setattr(semigroups, "open_interval_below", refuse)
        monkeypatch.setattr(cohen_macaulay, "augment", refuse)
        computed = []

        def spy(above, members):
            computed.append(members)
            return _chain_homology(above, members)
        monkeypatch.setattr(cohen_macaulay, "_chain_homology", spy)
        assert koszul_necessary_test(natural_semigroup(3), 4).passed
        assert computed == []
        S = punctured_veronese_semigroup(3)
        rep = koszul_necessary_test(S, 4)
        assert computed
        monkeypatch.undo()
        assert rep.passed
        assert rep == reference_koszul(S, 4, "Q")

    def test_chain_sizes_decide_free_semigroup_intervals(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def traced(*args):
                calls.append(name)
                return fn(*args)
            return traced
        for name in ("_interval_homology", "_morse_summary"):
            monkeypatch.setattr(cohen_macaulay, name, spy(name, getattr(cohen_macaulay, name)))
        rep = koszul_necessary_test(natural_semigroup(3), 4)
        assert calls == []
        # the counts are those of the sweep that summarised every interval
        assert (rep.passed, rep.elements_checked, rep.homology_runs) == (True, 31, 25)
        for coeffs in ("Q", 2, "z-spherical"):
            rep = koszul_necessary_test(veronese_semigroup(2, 2), 5, coeffs)
            assert (rep.passed, rep.elements_checked, rep.homology_runs) == (True, 32, 27)

    def test_one_critical_chain_pass_per_test(self, monkeypatch):
        calls = []

        def spy(extension, y):
            calls.append(y)
            return _critical_chains(extension, y)
        monkeypatch.setattr(cohen_macaulay, "_critical_chains", spy)
        for S in (natural_semigroup(3), punctured_veronese_semigroup(3)):
            calls.clear()
            rep = koszul_necessary_test(S, 4)
            assert rep.passed and rep.homology_runs > 1
            assert len(calls) == 1

    def test_lambda3_passes_rank3(self):
        S = punctured_veronese_semigroup(3)
        rep = koszul_necessary_test(S, 3)
        assert rep.passed, rep.describe()
        assert rep.elements_checked > 0
        # degree-2 intervals are antichains and need no homology
        assert rep.homology_runs == len(S.enumerate_up_to(3)[3])

    def test_rees_of_lambda3_passes_rank3(self):
        # Rees products of Koszul semigroup rings are Koszul; its intervals
        # include isomorphic pairs that find_isomorphism takes minutes on
        S = rees_semigroup(punctured_veronese_semigroup(3), natural_semigroup(2))
        rep = koszul_necessary_test(S, 3)
        assert rep.passed, rep.describe()
        assert rep.elements_checked == 718

    def test_lambda2_passes(self):
        rep = koszul_necessary_test(punctured_veronese_semigroup(2), 4)
        assert rep.passed

    def test_rank_bound_validated(self):
        with pytest.raises(SemigroupError):
            koszul_necessary_test(natural_semigroup(2), 1)

    def test_field_selector(self):
        rep = koszul_necessary_test(natural_semigroup(2), 3, coeffs=2)
        assert rep.passed
        assert rep.coefficients == "GF(2)"


def grown_past(make, r):
    """Two copies of a semigroup enumerated beyond degree ``r``: one to
    degree r + 2 by ``contains``, one by ``enumerate_up_to(r + 2)``."""
    by_membership, by_layers = make(), make()
    assert by_membership.contains(tuple((r + 2) * a for a in by_membership.generators[0]))
    by_layers.enumerate_up_to(r + 2)
    return by_membership, by_layers


class TestRecordedOrder:
    """The divisibility order is recorded while the layers are enumerated,
    so what is read from it must not depend on how far a semigroup has
    been enumerated before."""

    def test_divisibility_order_after_growth(self):
        for name, make, r, _ in KOSZUL_CORPUS:
            labels = [x for layer in make().enumerate_up_to(r) for x in layer]
            for S in grown_past(make, r):
                assert len(S._labels) > len(labels), name
                ref = reference_divisibility_poset(S, labels)
                assert same_order_data(semigroups._divisibility_order(S, r), ref), name

    def test_koszul_report_after_growth(self):
        for name, make, r, _ in KOSZUL_CORPUS:
            for coeffs in ("Q", 2, "z-spherical"):
                fresh = koszul_necessary_test(make(), r, coeffs)
                for S in grown_past(make, r):
                    assert koszul_necessary_test(S, r, coeffs) == fresh, (name, coeffs)

    def test_lower_interval_after_growth(self):
        for name, make, r, _ in KOSZUL_CORPUS:
            grown = grown_past(make, r)
            for layer in make().enumerate_up_to(min(r, 3)):
                for lam in layer:
                    fresh = lower_interval(make(), lam)
                    for S in grown:
                        assert same_order_data(lower_interval(S, lam), fresh), (name, lam)


class TestSegreSemigroup:
    def test_veronese_shape(self):
        N = build_semigroup([(1,)])
        view = segre_semigroup(N, N, (2,))  # g(1) = 2
        layers = view.enumerate_up_to(3)
        for m in range(4):
            assert layers[m] == [((2 * m,), (m,))]

    def test_veronese_intervals_are_chains(self):
        N = build_semigroup([(1,)])
        view = segre_semigroup(N, N, (2,))
        for k in (1, 2, 3):
            P = view.lower_interval(((2 * k,), (k,)))
            assert is_isomorphic(P, chain(k + 1))

    def test_standard_grading_is_plain_segre(self):
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        view = segre_semigroup(N2, N, (1,))
        layers = view.enumerate_up_to(2)
        # pairs (x, m) with |x| = m: layer sizes 1, 2, 3
        assert [len(x) for x in layers] == [1, 2, 3]

    def test_interval_matches_weighted_segre_of_posets(self):
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        view = segre_semigroup(N2, N, (2,))
        lam, gam = (2, 2), (2,)
        assert view.contains((lam, gam))
        P = view.lower_interval((lam, gam))
        left = lower_interval(N2, lam)
        right = lower_interval(N, gam)
        g = {y: 2 * y[0] for y in right.labels}
        W = weighted_segre(left, right, g).poset
        mapping = {p: p for p in P.labels}
        assert is_order_isomorphism(mapping, P, W)

    def test_grading_positivity_enforced(self):
        N2 = natural_semigroup(2)
        with pytest.raises(SemigroupError, match="positive"):
            grading_map(N2, (1, 0))
        # a ready GradingMap is checked by the same rule, its length too
        with pytest.raises(SemigroupError, match="positive"):
            segre_semigroup(N2, N2, GradingMap((1, 0)))
        with pytest.raises(SemigroupError, match="length 1, expected 2"):
            segre_semigroup(N2, N2, GradingMap((1,)))
        view = segre_semigroup(N2, N2, GradingMap((1, 2)))
        assert view.grading == grading_map(N2, (1, 2))

    def test_membership(self):
        N = build_semigroup([(1,)])
        view = segre_semigroup(N, N, (2,))
        assert view.contains(((4,), (2,)))
        assert not view.contains(((3,), (2,)))


# (name, first factor, second factor, grading weight)
SEGRE_VIEWS = [
    ("N^2 x N^2, g = (1,1)", lambda: natural_semigroup(2), lambda: natural_semigroup(2), (1, 1)),
    ("N^2 x N^2, g = (2,2)", lambda: natural_semigroup(2), lambda: natural_semigroup(2), (2, 2)),
    ("N^3 x N^2", lambda: natural_semigroup(3), lambda: natural_semigroup(2), (1, 1)),
    ("N^2 x N, g = (2,)", lambda: natural_semigroup(2), lambda: natural_semigroup(1), (2,)),
    ("punctured Veronese(3) x N^2", lambda: punctured_veronese_semigroup(3),
     lambda: natural_semigroup(2), (1, 1)),
    ("Veronese(2,2) x N^2, g = (1,2)", lambda: veronese_semigroup(2, 2),
     lambda: natural_semigroup(2), (1, 2)),
    ("N^2 x Veronese(2,2)", lambda: natural_semigroup(2), lambda: veronese_semigroup(2, 2),
     (1, 1)),
]


def near_pairs(pair):
    """The pair, and the pair with one coordinate moved by one: up, down,
    or over to another coordinate of the same half."""
    out = [pair]
    for h, half in enumerate(pair):
        for i in range(len(half)):
            for step in (1, -1):
                out.append(_moved(pair, h, {i: step}))
            out += [_moved(pair, h, {i: -1, j: 1}) for j in range(len(half)) if j != i]
    return out


def _moved(pair, h, steps):
    half = tuple(a + steps.get(i, 0) for i, a in enumerate(pair[h]))
    return (half, pair[1]) if h == 0 else (pair[0], half)


@pytest.mark.parametrize("name, first, second, g", SEGRE_VIEWS, ids=[v[0] for v in SEGRE_VIEWS])
class TestSegreViewAgainstReference:
    """The view's layers, membership and lower intervals to degree 5 equal
    those of the nested-loop pair listing."""

    def test_layers(self, name, first, second, g):
        S, T = first(), second()
        assert segre_semigroup(S, T, g).enumerate_up_to(5) == \
            reference_segre_pairs(S, T, grading_map(T, g), 5)

    def test_contains(self, name, first, second, g):
        # from pairs of degree 4 and below, a moved coordinate gives pairs
        # with deg x != g(y), negative entries and non-integral degrees, all
        # of degree 5 at most
        S, T = first(), second()
        ref = reference_segre_pairs(S, T, grading_map(T, g), 5)
        listed = {p for layer in ref for p in layer}
        view = segre_semigroup(first(), second(), g)
        seen = {True: 0, False: 0}
        for layer in ref[:5]:
            for pair in layer:
                for q in near_pairs(pair):
                    assert view.contains(q) == (q in listed), (name, q)
                    seen[q in listed] += 1
        assert seen[True] and seen[False]

    def test_lower_intervals(self, name, first, second, g):
        S, T = first(), second()
        ref = reference_segre_intervals(reference_segre_pairs(S, T, grading_map(T, g), 5))
        view = segre_semigroup(first(), second(), g)
        for pair, P in ref.items():
            assert same_order_data(view.lower_interval(pair), P), (name, pair)


class TestReesSemigroup:
    def test_naturals_rees_ring_shape(self):
        N = build_semigroup([(1,)])
        R = rees_semigroup(N, N)
        layers = R.enumerate_up_to(4)
        for m in range(5):
            assert layers[m] == [(m, b) for b in range(m + 1)]

    def test_interval_matches_rees_of_posets(self):
        # the semigroup interval [0, (a, b)] is the principal ideal below
        # (a, b) inside the Rees product of the coordinate intervals;
        # the full Rees product can hold extra elements incomparable to
        # the top (e.g. (2, 0) under (2, 1) over N * N)
        from posettop.posets import closed_interval
        N = build_semigroup([(1,)])
        R = rees_semigroup(N, N)
        for (a, b) in [(2, 1), (3, 2), (3, 0), (2, 2)]:
            P = lower_interval(R, (a, b))
            left = lower_interval(N, (a,))
            right = lower_interval(N, (b,))
            W = rees(left, right)
            ideal = closed_interval(W, ((0,), (0,)), ((a,), (b,)))
            mapping = {v: split_pair(v, 1) for v in P.labels}
            assert is_order_isomorphism(mapping, P, ideal)

    def test_rees_product_can_exceed_the_ideal(self):
        N = build_semigroup([(1,)])
        R = rees_semigroup(N, N)
        P = lower_interval(R, (2, 1))
        W = rees(lower_interval(N, (2,)), lower_interval(N, (1,)))
        assert len(W) == len(P) + 1  # (2, 0) is not below (2, 1)

    def test_interval_matches_rees_n2(self):
        from posettop.posets import closed_interval
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        R = rees_semigroup(N2, N)
        lam = (1, 1, 1)
        P = lower_interval(R, lam)
        W = rees(lower_interval(N2, (1, 1)), lower_interval(N, (1,)))
        ideal = closed_interval(W, (((0, 0)), ((0,))), ((1, 1), (1,)))
        mapping = {v: split_pair(v, 2) for v in P.labels}
        assert is_order_isomorphism(mapping, P, ideal)

    def test_rank_inequality_below_elements(self):
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        R = rees_semigroup(N2, N)
        P = lower_interval(R, (2, 1, 2))
        for v in P.labels:
            x, y = split_pair(v, 2)
            assert sum(x) >= sum(y)

    def test_koszul_test_on_rees(self):
        N = build_semigroup([(1,)])
        rep = koszul_necessary_test(rees_semigroup(N, N), 3)
        assert rep.passed, rep.describe()


class TestSerialization:
    def test_round_trip(self):
        S = punctured_veronese_semigroup(3)
        text = semigroup_to_json(S)
        S2 = semigroup_from_json(text)
        assert semigroup_to_json(S2) == text
        assert S2.generators == S.generators

    def test_bad_data(self):
        with pytest.raises(SemigroupError):
            semigroup_from_json('{"generators": [[1]]}')
        # "dim" is required and must be the generators' length
        data = {"generators": [[1, 0], [0, 1]], "weight": [1, 1], "scale": 1}
        assert semigroup_from_data({**data, "dim": 2}).dim == 2
        for bad in ({**data, "dim": 3}, {**data, "dim": "2"}, data):
            with pytest.raises(SemigroupError, match='"dim"'):
                semigroup_from_data(bad)

    def test_numbers_must_be_integers(self):
        # a float or a bool is refused: read as 1, 1.7 and true would make
        # the answers be about another semigroup
        data = {"dim": 2, "generators": [[1, 0], [0, 1]], "weight": [1, 1], "scale": 1}
        bad = [{**data, "generators": [[1.7, 0], [0, 1]], "scale": 1.9},
               {**data, "generators": [[1.0, 0], [0, 1]]},
               {**data, "generators": [[True, 0], [0, 1]]},
               {**data, "weight": [1, 1.0]}, {**data, "weight": [False, 1]},
               {**data, "scale": 1.0}, {**data, "scale": True}, {**data, "scale": "1"}]
        for case in bad:
            with pytest.raises(SemigroupError, match="integer"):
                semigroup_from_data(case)
        assert semigroup_from_data(data).generators == ((0, 1), (1, 0))


class TestSelfDualityDegreeFour:
    def test_lower_intervals_to_degree_four(self):
        for S in (natural_semigroup(2), punctured_veronese_semigroup(2)):
            layers = S.enumerate_up_to(4)
            for m in range(1, 5):
                for lam in layers[m]:
                    P = lower_interval(S, lam)
                    assert is_isomorphic(P, dual(P)), (S, lam)
