import random

import pytest

from posettop import cohen_macaulay
from posettop.cohen_macaulay import (
    CMFailure,
    CMReport,
    _interval_homology,
    _interval_items,
    _order_homology,
    _summary_violations,
    cm_preservation_suite,
    cm_report_to_data,
    is_acyclic_over,
    is_cm_complex,
    is_cm_poset,
)
from posettop.complexes import (
    face_poset,
    order_complex,
    simplex_boundary,
    simplicial_complex,
)
from posettop.constructions import (
    boolean,
    boolean_minus_bottom,
    chain,
    fiber_ideal,
    minors,
    rank_select,
    rees,
    rees_deranged,
    subword,
    weighted_segre,
)
from posettop.homology import _chain_homology, _critical_chains, _morse_summary, _place_masks, \
    integral_homology, make_summary, parse_coefficients
from posettop.posets import (
    Poset,
    PosetError,
    PurityFailure,
    augment,
    build_poset,
    iter_bits,
    open_interval,
    rank_info,
    rank_map,
)
from posettop.verification import random_bounded_pure_poset, random_complex

from test_homology import projective_plane, shuffled
from test_posets import boolean_top_first, random_pure_bounded_poset


def reference_cm_failures(P, mode):
    """CM failures of ``P`` from the homology of every open interval of
    its bounded extension but the empty ones, which pass by convention,
    in the sweep's order."""
    A = augment(P)
    rank = rank_info(A).rank
    failures = []
    for i, x in enumerate(A.labels):
        for j in iter_bits(A.above_masks()[i]):
            y = A.labels[j]
            gap = rank[y] - rank[x]
            if gap == 1:
                continue
            summary = integral_homology(order_complex(open_interval(A, x, y)))
            bad = _summary_violations(summary, gap, mode)
            if bad:
                failures.append(CMFailure(x, y, gap - 2, "; ".join(bad)))
    return tuple(failures)


def per_pair_interval_items(P):
    """``_interval_items`` as it yielded its items one pair at a time: the
    pairs found by walking each element's up-set mask, the summaries
    keyed by pair."""
    A = augment(P)
    info = rank_info(A)
    if isinstance(info, PurityFailure):
        raise PosetError("interval analysis needs a pure poset")
    rank = [info.rank[x] for x in A.labels]
    summaries = {}
    extension = _place_masks(A, A.topo_order())
    for j in range(len(A)):
        if rank[j] < 3:
            continue
        crit = _critical_chains(extension, j)
        for i, chains in crit.chains.items():
            k = rank[j] - rank[i] - 1
            if k > 1 and any(crit.size[c] != k for c in chains):
                summaries[i, j] = _interval_homology(extension, i, j, crit.sizes(i))
    for i in range(len(A)):
        for j in iter_bits(A.above_masks()[i]):
            yield (A.labels[i], A.labels[j], rank[j] - rank[i], summaries.get((i, j)))


def disjoint_chains():
    """The non-strict weighting counterexample: two disjoint 1-chains."""
    return weighted_segre(build_poset(["a", "b"], []),
                          build_poset(["x", "y"], [("x", "y")]),
                          {"x": 0, "y": 0}).poset


def wide_poset(n):
    """``n`` minimal elements, each below both of two maximal ones."""
    labels = [f"m{i}" for i in range(n)] + ["a", "b"]
    return build_poset(labels, [(f"m{i}", t) for i in range(n) for t in "ab"])


class TestIsCMPoset:
    def test_boolean_lattice_cm(self):
        r = is_cm_poset(boolean(3), "Q")
        assert r.verdict
        assert r.coefficients == "Q"
        assert not r.failures

    def test_disjoint_chains_not_cm(self):
        r = is_cm_poset(disjoint_chains(), "Q")
        assert not r.verdict
        # disconnected where a 1-dimensional interval is required
        assert any(f.expected_dim == 1 for f in r.failures)

    def test_projective_plane_face_poset_field_dependence(self):
        P = face_poset(projective_plane())
        assert is_cm_poset(P, "Q").verdict
        assert not is_cm_poset(P, 2).verdict
        assert is_cm_poset(P, 3).verdict

    def test_spherical_mode_detects_torsion(self):
        P = face_poset(projective_plane())
        r = is_cm_poset(P, "z-spherical")
        assert not r.verdict
        assert any("Z/2" in f.found for f in r.failures)
        assert is_cm_poset(boolean(3), "z-spherical").verdict

    def test_impure_reported_not_raised(self):
        P = build_poset(["a", "b", "c", "x", "y"],
                        [("a", "c"), ("b", "c"), ("a", "x"), ("x", "y")])
        r = is_cm_poset(P, "Q")
        assert not r.verdict
        assert r.purity_witness is not None

    def test_empty_poset_excluded(self):
        with pytest.raises(PosetError):
            is_cm_poset(build_poset([], []), "Q")

    def test_matches_reference_sweep(self):
        # the sweep skips the homology of rank-gap-2 intervals; the
        # reference computes every nonempty open interval
        rng = random.Random(19)
        posets = [random_pure_bounded_poset(rng, max_mid=5) for _ in range(12)]
        # the random posets are all CM; these two fail in some mode
        posets.append(disjoint_chains())
        posets.append(face_poset(projective_plane()))
        posets.append(boolean_top_first(4))
        for P in posets:
            for f in ("Q", 2, "z-spherical"):
                r = is_cm_poset(P, f)
                failures = reference_cm_failures(P, parse_coefficients(f))
                assert r.verdict == (not failures)
                # augment's fresh bounds compare by identity, so compare text
                assert [str(x) for x in r.failures] == [str(x) for x in failures]

    def test_items_match_the_per_pair_generator(self):
        # the per-pair generator's items that carry a summary, in the same
        # order; the fresh bounds compare by identity, so labels compare
        # as text
        rng = random.Random(31)
        corpus = [random_pure_bounded_poset(rng) for _ in range(40)]
        corpus += [disjoint_chains(), face_poset(projective_plane()), boolean_top_first(4),
                   boolean(5), subword(4), rees_deranged(4), wide_poset(40),
                   weighted_segre(boolean(3), boolean(3), rank_map(boolean(3))).poset,
                   rees(boolean_minus_bottom(4), chain(4))]
        summarised = 0
        for P in corpus:
            got = [(str(x), str(y), gap, s) for x, y, gap, s in _interval_items(P)]
            want = [(str(x), str(y), gap, s) for x, y, gap, s in per_pair_interval_items(P)
                    if s is not None]
            assert got == want
            summarised += bool(want)
        assert summarised >= 2  # RP^2 and the disjoint chains among them
        with pytest.raises(PosetError):
            list(_interval_items(build_poset("abc", [("a", "b")])))

    def test_engine_only_where_critical_chains_touch(self, monkeypatch):
        computed = []

        def spy(above, members):
            summary = _chain_homology(above, members)
            computed.append(str(summary))
            return summary
        monkeypatch.setattr(cohen_macaulay, "_chain_homology", spy)
        # RP^2's critical chains sit in dimensions 1 and 2: the engine
        # finds the torsion
        r = is_cm_poset(face_poset(projective_plane()), "z-spherical")
        assert "H~1 = Z/2 (Z)" in computed
        assert [f.found for f in r.failures if f.expected_dim == 2] == ["H~1 = Z/2"]
        # the counterexample's lone critical chain sits in dimension 0,
        # one below the required 1: decided without the engine
        computed.clear()
        r = is_cm_poset(disjoint_chains(), "Q")
        assert not r.verdict
        assert computed == []
        assert is_cm_poset(boolean(4), "z-spherical").verdict
        assert computed == []

    def test_fallback_builds_no_poset_or_complex(self, monkeypatch):
        # RP^2's critical chains sit in adjacent dimensions, so the engine
        # runs on (0^, 1^), from the sweep's place masks alone
        from posettop import posets
        from posettop.complexes import SimplicialComplex
        A = augment(face_poset(projective_plane()))
        top = len(A) - 1
        extension = _place_masks(A, A.topo_order())
        sizes = list(_critical_chains(extension, top).sizes(0))
        assert _morse_summary(sizes) is None

        def refuse(*args, **kwargs):
            raise AssertionError("a poset or complex was built")
        monkeypatch.setattr(Poset, "_assemble", refuse)
        monkeypatch.setattr(posets, "_induced_by_indices", refuse)
        monkeypatch.setattr(cohen_macaulay, "_induced_by_indices", refuse, raising=False)
        monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
        assert str(_interval_homology(extension, 0, top, sizes)) == "H~1 = Z/2 (Z)"

    def test_chain_sizes_decide_cm_intervals(self, monkeypatch):
        # every critical chain of an interval of B5 sits in its top
        # dimension, so no interval needs a homology summary
        calls = []

        def spy(name, fn):
            def traced(*args):
                calls.append(name)
                return fn(*args)
            return traced
        for name in ("_interval_homology", "_morse_summary"):
            monkeypatch.setattr(cohen_macaulay, name, spy(name, getattr(cohen_macaulay, name)))
        for f in ("Q", 2, "z-spherical"):
            assert is_cm_poset(boolean(5), f).verdict
        assert calls == []

    def test_large_verdicts(self):
        assert is_cm_poset(boolean(7), "Q").verdict
        assert is_cm_poset(subword(5), "Z").verdict

    def test_report_serialization(self):
        r = is_cm_poset(boolean(2), "Q")
        data = cm_report_to_data(r)
        assert data["verdict"] is True
        assert data["coefficients"] == "Q"

    def test_coefficient_parsing(self):
        for spelling in ("z", "Z-spherical", "spherical", "integral-spherical"):
            assert parse_coefficients(spelling) == "Z"
        for spelling in ("Q", "rational", "rationals"):
            assert parse_coefficients(spelling) == "Q"
        assert parse_coefficients("gf:5") == parse_coefficients("5") == 5
        with pytest.raises(ValueError):
            parse_coefficients("gf:6")
        with pytest.raises(ValueError):
            parse_coefficients("reals")
        assert is_cm_poset(boolean(2), "z").coefficients == "Z-spherical"

    def test_wide_intervals_past_isomorphism_limit(self):
        # two isomorphic 600-element intervals, above the 512-element
        # limit of find_isomorphism: the sweep must not compare them
        P = wide_poset(600)
        for f in ("Q", 2, "z-spherical"):
            assert is_cm_poset(P, f).verdict


class TestIsCMComplex:
    def test_sphere_cm(self):
        assert is_cm_complex(simplex_boundary(4), "Q").verdict

    def test_disjoint_edges_not_cm(self):
        K = simplicial_complex(range(4), [[0, 1], [2, 3]])
        assert not is_cm_complex(K, "Q").verdict

    def test_point_cm(self):
        K = simplicial_complex("a", [["a"]])
        assert is_cm_complex(K, "Q").verdict

    def test_barycentric_invariance(self):
        # CM verdict of a poset equals that of its order complex's face poset
        samples = [
            boolean(2),
            chain(3),
            rank_select(boolean(3), {1, 2}),
            build_poset(["a", "b"], []),
        ]
        for P in samples:
            for f in ("Q", 2):
                direct = is_cm_poset(P, f).verdict
                subdivided = is_cm_poset(face_poset(order_complex(P)), f).verdict
                assert direct == subdivided


class TestAcyclicity:
    def test_chain_acyclic(self):
        assert is_acyclic_over(chain(3), "Q")
        assert is_acyclic_over(chain(3), 2)

    def test_bottomless_boolean_acyclic(self):
        assert is_acyclic_over(boolean_minus_bottom(3), "Q")

    def test_circle_not_acyclic(self):
        assert not is_acyclic_over(rank_select(boolean(3), {1, 2}), "Q")

    def test_projective_plane_depends_on_field(self):
        # critical chains in adjacent dimensions: the engine decides
        P = face_poset(projective_plane())
        assert is_acyclic_over(P, "Q")
        assert is_acyclic_over(P, 3)
        assert not is_acyclic_over(P, 2)
        assert not is_acyclic_over(P, "Z")

    def test_empty_poset_not_acyclic(self):
        assert not is_acyclic_over(build_poset([], []), "Q")


class TestOrderHomology:
    def test_matches_the_homology_engine(self):
        # the critical-chain route against the cell engine on the order
        # complex; most answers come from chain sizes, a few (RP^2's
        # torsion among them) from the route's fall-back to the engine
        corpus = [build_poset([], []), build_poset(["a"], []), build_poset(["a", "b"], [])]
        corpus += [fiber_ideal(n, range(1, n + 1), i).poset
                   for n in range(1, 6) for i in range(1, n + 1)]
        corpus += [rees_deranged(n) for n in range(2, 6)]
        corpus += [subword(n) for n in range(1, 5)]
        corpus += [boolean(n) for n in range(1, 6)]
        rng = random.Random(5)
        corpus += [random_bounded_pure_poset(rng, 10) for _ in range(300)]
        rng = random.Random(7)
        faces = [face_poset(random_complex(rng)) for _ in range(200)]
        corpus += faces + [face_poset(projective_plane())]
        for P in corpus:
            assert _order_homology(P) == integral_homology(order_complex(P))
        impure = sum(isinstance(rank_info(P), PurityFailure) for P in faces)
        assert impure >= 50
        assert _order_homology(corpus[-1]) == make_summary("Z", {1: (0, (2,))})
        assert str(_order_homology(corpus[0])) == "empty complex (Z)"

    def test_relabelling_changes_no_answer(self):
        # both routes number an order complex along topo_order(), so a
        # relabelling may change what the cascade leaves, never an answer:
        # each route returns the same summary object for P and a copy of
        # P with shuffled labels
        corpus = [fiber_ideal(n, range(1, n + 1), i).poset
                  for n in range(1, 5) for i in range(1, n + 1)]
        corpus += [rees_deranged(3), rees_deranged(4), subword(3), subword(4)]
        corpus.append(face_poset(projective_plane()))
        rng = random.Random(41)
        corpus += [random_bounded_pure_poset(rng) for _ in range(30)]
        faces = [face_poset(random_complex(rng)) for _ in range(40)]
        corpus += [F for F in faces if isinstance(rank_info(F), PurityFailure)][:10]
        assert len(corpus) == 55
        moved = 0
        for P in corpus:
            Q = shuffled(P, rng)
            moved += Q.labels != P.labels
            assert integral_homology(order_complex(Q)) is integral_homology(order_complex(P))
            assert _order_homology(Q) is _order_homology(P)
        assert moved >= 50
        assert integral_homology(order_complex(corpus[14])) is make_summary("Z", {1: (0, (2,))})


class TestPreservationSuite:
    def test_suite_passes(self):
        report = cm_preservation_suite(fields=("Q", 2))
        assert report.all_passed, report.describe()

    def test_counterexample_case_fails_cm(self):
        report = cm_preservation_suite(fields=("Q",))
        bad = [c for c in report.cases if "counterexample" in c.description]
        assert len(bad) == 1
        assert not bad[0].expected_cm
        assert bad[0].passed  # it fails CM, which is the expected outcome
        assert not bad[0].hypotheses_ok

    def test_named_instances(self):
        assert is_cm_poset(minors(3), "Q").verdict
        assert is_cm_poset(rees_deranged(3), "Q").verdict
        assert is_cm_poset(rank_select(boolean(4), {1, 3}), "Q").verdict


class TestBarycentricSpotCheck:
    def test_twenty_corpus_posets(self):
        # Cohen-Macaulay verdicts survive barycentric subdivision
        # (face poset of the order complex), spot-checked broadly
        rng = random.Random(29)
        corpus = [boolean(2), boolean(3), chain(2), chain(4),
                  rank_select(boolean(3), {1, 2}),
                  build_poset(["a", "b"], []),
                  build_poset(["a", "b", "c"], [("a", "b")]),
                  rees_deranged(2),
                  minors(2),
                  face_poset(simplicial_complex(range(4), [[0, 1], [2, 3]])),
                  ]
        while len(corpus) < 20:
            corpus.append(random_pure_bounded_poset(rng, max_mid=4))
        assert len(corpus) >= 20
        for P in corpus:
            direct = is_cm_poset(P, "Q").verdict
            subdivided = is_cm_poset(face_poset(order_complex(P)), "Q").verdict
            assert direct == subdivided
