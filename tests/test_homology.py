import gc
import importlib
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import compress
from pathlib import Path

import pytest

from posettop.complexes import (
    SimplicialComplex,
    empty_complex,
    f_vector,
    order_complex,
    reduced_euler,
    simplex_boundary,
    simplicial_complex,
    void_complex,
)
from posettop.homology import (
    HomologySummary,
    _cascade,
    _cell_complex,
    _chain_cells,
    _critical_chains,
    _morse_summary,
    _place_masks,
    betti,
    boundary_matrices,
    check_chain_complex,
    homology,
    integral_homology,
    make_summary,
    parse_coefficients,
    summary_to_data,
)
from posettop.posets import _induced_by_indices, build_poset, iter_bits, mobius, open_interval

from homology_oracle import (
    decode_critical_chains,
    element_keyed_critical_chains,
    elimination_betti,
    reference_critical_chains,
    revisiting_cascade,
    snf_homology,
    tuple_cell_complex,
)
from test_complexes import random_complex
from test_posets import boolean_lattice, boolean_top_first, random_poset, random_pure_bounded_poset

homology_module = importlib.import_module("posettop.homology")


# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def projective_plane():
    return simplicial_complex(range(1, 7), RP2_FACETS)


def hexagon():
    return order_complex(open_interval(boolean_lattice(3), (), (1, 2, 3)))


def shuffled(P, rng):
    """``P`` rebuilt with its labels in random order, so that index order
    is usually not a linear extension."""
    labels = list(P.labels)
    rng.shuffle(labels)
    return build_poset(labels, [(P.labels[i], P.labels[j]) for (i, j) in P.covers])


def topo_extension(P):
    """The critical-chain pass's input for ``P``'s own linear extension."""
    return _place_masks(P, P.topo_order())


def levels(P):
    """Length of the longest chain below each element: the rank of a pure
    poset, and strictly increasing along every cover of any poset."""
    level = [0] * len(P)
    for i in P.topo_order():
        level[i] = max((level[j] + 1 for j in P._down_adj[i]), default=0)
    return level


def random_linear_extension(P, rng):
    """A linear extension of ``P`` that takes a random minimal element of
    what is left at each step."""
    indeg = [len(d) for d in P._down_adj]
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for j in P._up_adj[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    return order


def extensions(P, rng):
    """``P``'s own linear extension, by rank then index, by rank then
    reverse index, and one random one."""
    level = levels(P)
    return [P.topo_order(),
            sorted(range(len(P)), key=lambda i: (level[i], i)),
            sorted(range(len(P)), key=lambda i: (level[i], -i)),
            random_linear_extension(P, rng)]


def engine_corpus():
    """The complexes the engine's layers are checked on one by one: order
    complexes of shuffled random posets, random complexes, and the
    boundaries of the simplices on 1 to 8 vertices."""
    rng = random.Random(17)
    posets = [random_poset(rng, rng.randint(1, 9), rng.random()) for _ in range(80)]
    complexes = [order_complex(shuffled(P, rng)) for P in posets]
    complexes.append(order_complex(boolean_top_first(4)))
    complexes += [random_complex(rng) for _ in range(120)]
    complexes += [empty_complex(), *(simplex_boundary(n) for n in range(1, 9))]
    return complexes


class TestBoundaryMatrices:
    def test_single_edge(self):
        K = simplicial_complex("ab", [["a", "b"]])
        mats = boundary_matrices(K)
        assert mats[0].to_rows() == [[1, 1]]
        assert mats[1].to_rows() == [[-1], [1]]

    def test_boundary_squared_zero_tetrahedron(self):
        assert check_chain_complex(boundary_matrices(simplex_boundary(4)))

    def test_boundary_squared_zero_random(self):
        rng = random.Random(71)
        for _ in range(40):
            K = random_complex(rng)
            assert check_chain_complex(boundary_matrices(K))

    def test_hexagon_shape(self):
        mats = boundary_matrices(hexagon())
        d1 = mats[1]
        assert (d1.nrows, d1.ncols) == (6, 6)
        per_col = {}
        for (r, c), v in d1.entries.items():
            per_col[c] = per_col.get(c, 0) + 1
            assert v in (1, -1)
        assert all(n == 2 for n in per_col.values())

    def test_void_rejected(self):
        with pytest.raises(Exception):
            boundary_matrices(void_complex())


class TestFieldBetti:
    def test_point_trivial(self):
        K = simplicial_complex("a", [["a"]])
        assert betti(K, "Q").is_trivial()

    def test_hexagon_circle(self):
        s = betti(hexagon(), "Q")
        assert s.betti(0) == 0 and s.betti(1) == 1
        assert s.nonzero_dims() == (1,)

    def test_projective_plane_by_field(self):
        K = projective_plane()
        over_q = betti(K, "Q")
        assert over_q.is_trivial()
        over_2 = betti(K, 2)
        assert over_2.betti(1) == 1 and over_2.betti(2) == 1
        over_3 = betti(K, 3)
        assert over_3.is_trivial()

    def test_empty_complex_marker(self):
        s = betti(empty_complex(), "Q")
        assert s.empty_complex
        assert s.concentrated_in(-1)

    def test_field_selector_parsing(self):
        assert parse_coefficients("gf:2") == parse_coefficients(2) == 2
        with pytest.raises(ValueError, match="not prime"):
            parse_coefficients(4)
        with pytest.raises(ValueError):
            parse_coefficients("gf:notanumber")
        K = hexagon()
        assert betti(K, "gf:2") == betti(K, 2)
        with pytest.raises(ValueError, match="not a field"):
            betti(K, "z")


class TestIntegralHomology:
    def test_sphere(self):
        s = integral_homology(simplex_boundary(4))
        assert s.nonzero_dims() == (2,)
        assert s.betti(2) == 1 and s.torsion(2) == ()

    def test_projective_plane_torsion(self):
        s = integral_homology(projective_plane())
        assert s.nonzero_dims() == (1,)
        assert s.betti(1) == 0
        assert s.torsion(1) == (2,)

    def test_direct_path_agrees(self):
        for K in (simplex_boundary(3), simplex_boundary(4),
                  projective_plane(), hexagon()):
            assert integral_homology(K) == snf_homology(K)

    def test_direct_path_agrees_random(self):
        for K in engine_corpus():
            assert integral_homology(K) == snf_homology(K), K.facets

    def test_full_simplex_contractible(self):
        P = build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert integral_homology(order_complex(P)).is_trivial()

    def test_universal_coefficients(self):
        from posettop.constructions import rees_deranged, subword
        rng = random.Random(79)
        corpus = [random_complex(rng) for _ in range(50)]
        corpus += [order_complex(subword(3)), order_complex(rees_deranged(4))]
        for K in corpus:
            z = integral_homology(K)
            for f in ("Q", 2, 3):
                assert z.over_field(f) == elimination_betti(K, f), (K.facets, f)

    def test_over_field_keeps_torsion_above_the_top_group(self):
        # Tor(Z/2, GF(2)) puts a class in dimension 2 of the projective
        # plane, one above its top integral group
        z = integral_homology(projective_plane())
        assert len(z.groups) == 2
        over2 = z.over_field(2)
        assert over2.nonzero_dims() == (1, 2)
        assert str(over2) == "H~1 = GF(2), H~2 = GF(2) (GF(2))"
        assert z.over_field(3).is_trivial()

    def test_over_field_parses_its_field_once(self, monkeypatch):
        calls = []

        def spy(c):
            calls.append(c)
            return parse_coefficients(c)
        monkeypatch.setattr(homology_module, "parse_coefficients", spy)
        z = make_summary("Z", {0: (1, (2,)), 3: (2, (2, 6)), 5: (0, (3,))})
        assert str(z.over_field("gf:2")) == (
            "H~0 = GF(2)^2, H~1 = GF(2), H~3 = GF(2)^4, H~4 = GF(2)^2 (GF(2))")
        assert calls == ["gf:2"]
        assert [z.field_betti(i, 3) for i in range(-1, 8)] == [0, 1, 0, 0, 3, 1, 1, 1, 0]
        with pytest.raises(ValueError, match="needs an integral summary"):
            z.over_field("Q").field_betti(0, "Q")
        with pytest.raises(ValueError, match="Z is not a field"):
            z.field_betti(0, "z")

    def test_many_disjoint_projective_planes(self):
        # the cascade leaves 6,179 cells and SNF finds 200 pivots of 2, so
        # a pivot choice or a divisibility check that scans the whole
        # matrix would blow the budget
        facets = [[6 * k + v for v in f] for k in range(200) for f in RP2_FACETS]
        K = simplicial_complex(range(1, 1201), facets)
        start = time.perf_counter()
        s = integral_homology(K)
        assert time.perf_counter() - start < 1.0
        assert s.nonzero_dims() == (0, 1)
        assert s.betti(0) == 199 and s.torsion(0) == ()
        assert s.betti(1) == 0 and s.torsion(1) == (2,) * 200

    def test_disjoint_edges(self):
        K = simplicial_complex(range(4), [[0, 1], [2, 3]])
        s = integral_homology(K)
        assert s.nonzero_dims() == (0,)
        assert s.betti(0) == 1


class TestCellComplex:
    def test_matches_tuple_builder(self):
        # the chain tree gives the arrays a face-tuple index gives, cell
        # for cell, also where index order is not a linear extension; the
        # layers of I(5,3) (up to 18,480 cells) span several blocks
        from posettop.constructions import fiber_ideal
        extra = [order_complex(fiber_ideal(5, range(1, 6), 3).poset),
                 order_complex(build_poset([], [])),
                 order_complex(build_poset(["a"], []))]
        for K in engine_corpus() + extra:
            cx, ref = _cell_complex(K), tuple_cell_complex(K)
            assert cx.sizes == ref.sizes
            assert cx.boundary == ref.boundary, K.facets
            assert {a.typecode for a in cx.boundary} == {"i"}

    @pytest.mark.parametrize("block", [1, 3])
    def test_matches_tuple_builder_in_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(homology_module, "_BLOCK", block)
        self.test_matches_tuple_builder()

    def test_interval_masks_match_the_induced_order_complex(self):
        # the chain tree built from the masks of an interval of augment(P)
        # is the one of the rebuilt interval's order complex, byte for byte:
        # renumbering the members in increasing order keeps every vertex
        # list's order.  Each poset gives (0^, 1^) and up to 150 proper
        # intervals.
        from posettop.constructions import fiber_ideal, rees_deranged, subword
        from posettop.posets import augment
        from posettop.verification import random_bounded_pure_poset
        rng = random.Random(31)
        posets = [fiber_ideal(n, range(1, n + 1), i).poset
                  for n in range(1, 6) for i in range(1, n + 1)]
        posets += [rees_deranged(4), subword(4)]
        posets += [random_bounded_pure_poset(rng) for _ in range(30)]
        proper = 0
        for P in posets:
            A = augment(P)
            above, below = A.above_masks(), A.below_masks()
            pairs = [(i, j) for i in range(len(A)) for j in iter_bits(above[i])]
            pairs.remove((0, len(A) - 1))
            proper += min(150, len(pairs))
            for i, j in [(0, len(A) - 1)] + rng.sample(pairs, min(150, len(pairs))):
                between = above[i] & below[j]
                cx = _chain_cells(above, between)
                ref = _cell_complex(order_complex(_induced_by_indices(A, list(iter_bits(between)))))
                assert cx.sizes == ref.sizes, (P, i, j)
                assert ([(b.typecode, b.tobytes()) for b in cx.boundary]
                        == [(b.typecode, b.tobytes()) for b in ref.boundary]), (P, i, j)
        assert proper > 2000

    def test_explicit_complex_matches_order_path(self):
        # where index order is a linear extension, the explicit complex on an
        # order complex's facets lays out the order path's chain tree: the
        # parts of a chain's state cover exactly the elements above its top
        from posettop.constructions import boolean, fiber_ideal, rees_deranged, subword
        posets = [boolean(4), subword(4), rees_deranged(4), fiber_ideal(5, range(1, 6), 3).poset]
        for P in posets:
            assert all(m & ((2 << i) - 1) == 0 for i, m in enumerate(P.above_masks()))
            K = order_complex(P)
            cx = _cell_complex(K)
            ex = _cell_complex(SimplicialComplex(K.vertices, K.facets))
            assert ex.sizes == cx.sizes
            assert ex.boundary == cx.boundary

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_build_memory_stays_near_the_arrays(self):
        # growth of peak RSS during the build of I(6,2)'s cell complex, against
        # the bytes of its boundary arrays: 1.6 when the layers are built in
        # blocks, 3.6 when each column is built for a whole layer at once.
        # The peak is read from VmHWM: a child's ru_maxrss starts at its
        # parent's RSS (Linux carries it across fork and exec), which hides
        # the growth when the parent is pytest.
        script = (
            "import importlib, re\n"
            "from posettop.complexes import order_complex\n"
            "from posettop.constructions import fiber_ideal\n"
            "H = importlib.import_module('posettop.homology')\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)) * 1024\n"
            "K = order_complex(fiber_ideal(6, range(1, 7), 2).poset)\n"
            "K.source_poset.above_masks()\n"
            "before = peak()\n"
            "cx = H._cell_complex(K)\n"
            "print(peak() - before, sum(len(b) * b.itemsize for b in cx.boundary))\n")
        path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        growth, arrays = map(int, proc.stdout.split())
        assert arrays == 6_380_332
        assert growth <= 3 * arrays, growth / arrays

    def test_order_complex_homology_lists_no_chain(self, monkeypatch):
        from posettop import complexes
        from posettop.constructions import subword
        calls = []

        def spy(name, fn):
            def called(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return called

        chains = complexes.poset_chains_by_size
        for module in (complexes, homology_module):
            monkeypatch.setattr(module, "poset_chains_by_size",
                                spy("poset_chains_by_size", chains), raising=False)
        monkeypatch.setattr(SimplicialComplex, "faces_by_dim",
                            spy("faces_by_dim", SimplicialComplex.faces_by_dim))
        monkeypatch.setattr(SimplicialComplex, "facets",
                            property(spy("facets", SimplicialComplex.facets.fget)))
        K = order_complex(subword(4))
        assert str(integral_homology(K)) == "H~3 = Z^9 (Z)"
        assert calls == []
        assert K._facets is None


class TestCascade:
    @pytest.mark.parametrize("block", [1, 3])
    def test_survivors_per_layer_in_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(homology_module, "_BLOCK", block)
        self.test_survivors_per_layer()

    def test_survivors_per_layer(self):
        # live cells per layer after the cascade, pinned; layer k holds the
        # cells with k vertices, so layer 0 is the empty face
        from posettop.constructions import boolean, fiber_ideal, rees_deranged, subword
        cases = [
            ("K(4)", order_complex(subword(4)), [0, 0, 0, 0, 9]),
            ("R(5)", order_complex(rees_deranged(5)), [0, 0, 0, 0, 0, 44]),
            ("I(5,3)", order_complex(fiber_ideal(5, range(1, 6), 3).poset),
             [0, 0, 0, 0, 544, 544]),
            ("boundary of the 11-simplex", simplex_boundary(12), [0] * 11 + [1]),
            ("B5", order_complex(boolean(5)), [0] * 7),
            ("empty complex", empty_complex(), [1]),
        ]
        for name, K, survivors in cases:
            cx = _cell_complex(K)
            alive = _cascade(cx)
            assert [len(a) for a in alive] == list(f_vector(K)), name
            assert sum(cx.counts) == sum(f_vector(K)[1:]), name
            assert [a.count(1) for a in alive] == survivors, name

    def test_survivors_on_random_complexes(self):
        # pinned; the sweeps do coreductions only, so another sweep order
        # or reduction rule changes this total
        rng = random.Random(11)
        total = sum(a.count(1) for _ in range(200)
                    for a in _cascade(_cell_complex(random_complex(rng))))
        assert total == 91

    def test_stuck_cells_skipped_exactly(self):
        # skipping the cells with no live facet leaves every alive flag as
        # the sweeps that revisit every live cell leave it
        from posettop.constructions import fiber_ideal, rees_deranged, subword
        posets = [fiber_ideal(5, range(1, 6), 3).poset, subword(5), rees_deranged(6)]
        posets += [f(n) for n in (3, 4) for f in (rees_deranged, subword)]  # field-betti's
        for K in engine_corpus() + [order_complex(P) for P in posets]:
            cx = _cell_complex(K)
            assert _cascade(cx) == revisiting_cascade(cx), K.facets[:3]

    def test_no_coreduction_is_left(self):
        # at the fixpoint no live cell has exactly one live facet
        for K in engine_corpus():
            cx = _cell_complex(K)
            alive = _cascade(cx)
            assert all(set(flags) <= {0, 1} for flags in alive), K.facets
            for k in range(1, len(alive)):
                bnd, below = cx.boundary[k], alive[k - 1]
                for j in compress(range(len(alive[k])), alive[k]):
                    assert sum(below[i] for i in bnd[j * k:j * k + k]) != 1, (K.facets, k, j)


class TestSummaries:
    def test_euler_from_betti(self):
        rng = random.Random(83)
        for _ in range(40):
            K = random_complex(rng)
            s = betti(K, "Q")
            euler = sum((-1) ** i * s.betti(i) for i in range(len(s.groups)))
            assert euler == reduced_euler(K)

    def test_summary_json_shape(self):
        s = make_summary("Z", {1: (1, (2,)), 3: (0, ())})
        assert summary_to_data(s) == {
            "coefficients": "Z", "dims": {"1": {"betti": 1, "torsion": [2]}}}

    def test_concentration(self):
        s = make_summary("Z", {2: (3, ())})
        assert s.concentrated_in(2)
        assert not s.concentrated_in(1)
        assert make_summary("Z", {}).concentrated_in(5)  # trivial: any dim
        assert HomologySummary("Z", (), empty_complex=True).concentrated_in(-1)

    def test_group_rendering(self):
        s = make_summary("Z", {1: (2, (2, 4))})
        assert s.group_str(1) == "Z^2 + Z/2 + Z/4"
        assert s.group_str(0) == "0"
        assert make_summary("GF(2)", {3: (9, ())}).group_str(3) == "GF(2)^9"
        assert make_summary("Q", {2: (2, ())}).group_str(2) == "Q^2"
        over2 = betti(projective_plane(), 2)
        assert str(over2) == "H~1 = GF(2), H~2 = GF(2) (GF(2))"

    def test_equal_summaries_are_one_object_while_alive(self):
        table = importlib.import_module("posettop.homology")._summaries
        facets = [[6 * k + v for v in f] for k in range(3) for f in RP2_FACETS]
        a = integral_homology(simplicial_complex(range(1, 19), facets))
        b = integral_homology(simplicial_complex(range(1, 19), facets))
        assert a is b and str(a) == "H~0 = Z^2, H~1 = Z/2 + Z/2 + Z/2 (Z)"
        assert betti(projective_plane(), 2) is betti(projective_plane(), 2)
        key = (a.coefficients, a.groups, a.empty_complex)
        assert table[key] is a
        del a, b
        gc.collect()
        assert key not in table

    def test_homology_coefficient_dispatch(self):
        K = projective_plane()
        assert homology(K) == integral_homology(K)
        assert homology(K, "Z") == integral_homology(K)
        assert homology(K, "z-spherical") == integral_homology(K)
        assert homology(K, 2) == elimination_betti(K, 2)
        assert homology(K, "Q") == elimination_betti(K, "Q")


class TestHallCrossCheck:
    def test_mobius_equals_interval_euler(self):
        rng = random.Random(97)
        for _ in range(30):
            P = random_pure_bounded_poset(rng)
            for x in P.labels:
                for y in P.labels:
                    if P.leq(x, y) and x != y:
                        K = order_complex(open_interval(P, x, y))
                        assert mobius(P, x, y) == reduced_euler(K)




def reference_corpus(rng):
    """Shuffled random posets and three small ones of the paper's kind."""
    from posettop.complexes import face_poset
    from posettop.constructions import rees_deranged
    posets = [shuffled(random_pure_bounded_poset(rng), rng) for _ in range(40)]
    return posets + [boolean_top_first(4), face_poset(projective_plane()), rees_deranged(3)]


def sweep_corpus():
    """Bounded extensions the CM sweep passes over, and the dual
    divisibility poset of the Koszul test."""
    from posettop.constructions import (
        boolean, boolean_minus_bottom, chain, fiber_ideal, rees,
        rees_deranged, subword, weighted_segre)
    from posettop.posets import augment, dual, rank_map
    from posettop.semigroups import (
        _divisibility_order, natural_semigroup, punctured_veronese_semigroup,
        rees_semigroup)
    S = rees_semigroup(punctured_veronese_semigroup(3), natural_semigroup(2))
    T = _divisibility_order(S, 3)
    return [augment(boolean(5)), augment(subword(5)), augment(rees_deranged(5)),
            augment(fiber_ideal(5, range(1, 6), 3).poset),
            augment(weighted_segre(boolean(4), boolean(3), rank_map(boolean(3))).poset),
            augment(rees(boolean_minus_bottom(4), chain(4))), dual(T)]


class TestPlaceMasks:
    def test_the_order_is_given_back(self):
        rng = random.Random(5)
        for _ in range(30):
            P = random_poset(rng, rng.randint(0, 12))
            for order in (P.topo_order(), random_linear_extension(P, rng)):
                assert _place_masks(P, order)[0] == tuple(order)

    def test_above_by_place_are_above_masks(self):
        rng = random.Random(7)
        for _ in range(30):
            P = random_poset(rng, rng.randint(0, 12))
            for order in (P.topo_order(), random_linear_extension(P, rng)):
                up = _place_masks(P, order)[1]
                for i in range(len(P)):
                    assert {order[p] for p in iter_bits(up[i])} == set(iter_bits(P.above_masks()[i]))

    def test_below_by_place_are_below_masks(self):
        rng = random.Random(11)
        for _ in range(30):
            P = random_poset(rng, rng.randint(0, 12))
            for order in (P.topo_order(), random_linear_extension(P, rng)):
                down = _place_masks(P, order)[2]
                for i in range(len(P)):
                    assert {order[p] for p in iter_bits(down[i])} == set(iter_bits(P.below_masks()[i]))

    def test_built_once_per_swept_poset(self, monkeypatch):
        # every pass of a sweep reads the masks of the one poset it sweeps,
        # and a CM sweep's only two closures build them
        from posettop import cohen_macaulay
        from posettop.constructions import boolean, rees_deranged
        from posettop.posets import Poset, rank_info
        from posettop.semigroups import koszul_necessary_test, punctured_veronese_semigroup
        built, closures, closure = [], [], Poset._closure

        def spy_masks(P, order):
            built.append(P)
            return _place_masks(P, order)

        def spy_closure(P, *args):
            closures.append(P)
            return closure(P, *args)
        monkeypatch.setattr(cohen_macaulay, "_place_masks", spy_masks)
        monkeypatch.setattr(Poset, "_closure", spy_closure)
        for P in (boolean(4), rees_deranged(4)):
            P.above_masks(), P.below_masks(), rank_info(P)  # augment reuses these
            built.clear(), closures.clear()
            assert cohen_macaulay.is_cm_poset(P)
            assert len(built) == 1 and closures == built * 2
        built.clear()
        assert koszul_necessary_test(punctured_veronese_semigroup(3), 4).homology_runs > 1
        assert len(built) == 1
        built.clear()
        assert cohen_macaulay.is_acyclic_over(boolean(3), "Q")  # a cone
        assert len(built) == 1


class TestCriticalChains:
    def test_matches_reference_recursion(self):
        # skipping the elements without critical chains changes nothing
        for P in reference_corpus(random.Random(109)):
            above, extension = P.above_masks(), topo_extension(P)
            for y in range(len(P)):
                crit = _critical_chains(extension, y)
                assert decode_critical_chains(crit) == reference_critical_chains(P, y)
                # ids 1, 2, ... each name one distinct chain: w below its
                # rest, and one element more than the rest
                masks = {0: 0}
                for w, ext in crit.ext.items():
                    for rest, c in ext.items():
                        assert masks[rest] & ~above[w] == 0
                        assert crit.size[c] == crit.size[rest] + 1
                        masks[c] = 1 << w | masks[rest]
                assert crit.size[0] == 0
                assert sorted(masks) == list(range(len(crit.size)))
                assert len(set(masks.values())) == len(masks)

    def test_matches_element_keyed_pass(self):
        # the place-indexed pass hands out the same ids, in the same order,
        # as the element-keyed one, on the sweeps' posets and on the dual
        # divisibility poset of the Koszul test
        for P in sweep_corpus():
            extension = topo_extension(P)
            for y in range(len(P)):
                crit, ref = _critical_chains(extension, y), element_keyed_critical_chains(P, y)
                assert list(crit.chains.items()) == list(ref.chains.items())
                assert crit.size == ref.size
                assert ([(w, list(e.items())) for w, e in crit.ext.items()]
                        == [(w, list(e.items())) for w, e in ref.ext.items()])

    def test_an_extension_is_a_relabelling(self):
        # the pass under a linear extension of P gives what the pass under
        # index order gives on P relabelled along that extension: the same
        # ids, sizes and chain tables, element k of the relabelled poset
        # standing for order[k]
        rng = random.Random(127)
        for P in reference_corpus(rng) + sweep_corpus():
            for order in extensions(P, rng):
                R = _induced_by_indices(P, order)
                extension, identity = _place_masks(P, order), _place_masks(R, range(len(R)))
                for k, y in enumerate(order):
                    crit, ref = _critical_chains(extension, y), _critical_chains(identity, k)
                    assert list(crit.chains.items()) == [(order[z], ids) for z, ids in ref.chains.items()]
                    assert crit.size == ref.size
                    assert ([(w, list(e.items())) for w, e in crit.ext.items()]
                            == [(order[w], list(e.items())) for w, e in ref.ext.items()])

    def test_top_pass_of_the_word_ideals_by_extension(self):
        # critical cells per dimension of (0^, 1^) in augment(I(6,i)) under
        # the default linear extension, by rank then index, and by rank
        # then reverse index
        from posettop.constructions import fiber_ideal
        from posettop.posets import augment
        cells = {3: ({3: 1, 4: 36, 5: 35}, {2: 1, 3: 12, 4: 47, 5: 36}, {3: 1, 4: 36, 5: 35}),
                 4: ({2: 1, 3: 15, 4: 53, 5: 39}, {3: 1, 4: 36, 5: 35}, {2: 1, 3: 12, 4: 47, 5: 36}),
                 5: ({1: 1, 2: 5, 3: 10, 4: 10, 5: 4}, {4: 1, 5: 1}, {1: 1, 2: 5, 3: 10, 4: 10, 5: 4})}
        for i, expected in cells.items():
            A = augment(fiber_ideal(6, range(1, 7), i).poset)
            level = levels(A)
            orders = (A.topo_order(),
                      sorted(range(len(A)), key=lambda k: (level[k], k)),
                      sorted(range(len(A)), key=lambda k: (level[k], -k)))
            for order, want in zip(orders, expected):
                crit = _critical_chains(_place_masks(A, order), len(A) - 1)
                assert Counter(s - 1 for s in crit.sizes(0)) == want, (i, order[:3])

    def test_alternating_count_is_mobius(self):
        # the matching pairs off every chain it leaves uncritical, so the
        # critical chains have the reduced Euler characteristic: mu by Hall
        rng = random.Random(101)
        for _ in range(30):
            P = shuffled(random_pure_bounded_poset(rng), rng)
            extension = topo_extension(P)
            for y in range(len(P)):
                crit = _critical_chains(extension, y)
                for z, chains in decode_critical_chains(crit).items():
                    euler = sum((-1) ** (c.bit_count() - 1) for c in chains)
                    assert euler == mobius(P, P.labels[z], P.labels[y])
                    assert sorted(crit.sizes(z)) == sorted(map(int.bit_count, chains))

    def test_chains_lie_in_the_interval(self):
        rng = random.Random(103)
        for _ in range(20):
            P = shuffled(random_pure_bounded_poset(rng), rng)
            above, below, extension = P.above_masks(), P.below_masks(), topo_extension(P)
            for y in range(len(P)):
                for z, chains in decode_critical_chains(_critical_chains(extension, y)).items():
                    inside = above[z] & below[y]
                    for c in chains:
                        assert c & ~inside == 0
                        elems = list(iter_bits(c))
                        assert all(above[a] >> b & 1 or above[b] >> a & 1
                                   for a in elems for b in elems if a != b)

    def test_certified_summary_matches_engine(self):
        from posettop.complexes import face_poset
        from posettop.constructions import boolean, rees_deranged
        rng = random.Random(107)
        posets = [shuffled(random_pure_bounded_poset(rng), rng) for _ in range(20)]
        posets += [face_poset(projective_plane()), boolean(4), rees_deranged(3)]
        certified = 0
        for P in posets:
            extension = topo_extension(P)
            for y in range(len(P)):
                crit = _critical_chains(extension, y)
                for z in crit.chains:
                    if crit.chains[z] == {0}:
                        continue  # an empty interval: its lone chain is empty
                    summary = _morse_summary(crit.sizes(z))
                    if summary is None:
                        continue
                    certified += 1
                    interval = open_interval(P, P.labels[z], P.labels[y])
                    assert summary == integral_homology(order_complex(interval))
        assert certified > 0

    def test_adjacent_dimensions_are_not_certified(self):
        # chains are given by their sizes: two critical chains in
        # dimensions 1 and 2 may cancel or leave torsion
        assert _morse_summary([2, 3]) is None
        assert _morse_summary([1, 0]) is None
        assert str(_morse_summary([1, 3, 3])) == "H~0 = Z, H~2 = Z^2 (Z)"
        assert _morse_summary([]).is_trivial()

    def test_chains_in_dim(self):
        # the interval sweep leaves (z, y) open exactly when a critical
        # chain has other than gap - 1 elements; the intervals it passes
        # have free homology in dimension gap - 2, and the ones it leaves
        # come with their homology
        from posettop.cohen_macaulay import _undecided_intervals
        from posettop.complexes import face_poset
        from posettop.posets import augment, rank_info
        rng = random.Random(113)
        posets = [shuffled(random_pure_bounded_poset(rng), rng) for _ in range(20)]
        # these two fail the CM test
        posets += [augment(face_poset(projective_plane())),
                   augment(build_poset("abcd", [("a", "b"), ("c", "d")]))]
        passed = left = 0
        for P in posets:
            rank = [rank_info(P).rank[x] for x in P.labels]
            extension = topo_extension(P)
            for y in range(len(P)):
                crit = _critical_chains(extension, y)
                undecided = {z: s for z, _, s in _undecided_intervals(P, rank, [y])}
                for z, chains in decode_critical_chains(crit).items():
                    gap = rank[y] - rank[z]
                    if all(c.bit_count() == gap - 1 for c in chains):
                        passed += 1
                        assert z not in undecided
                        if gap == 1:
                            assert chains == {0}  # the empty interval's empty chain
                            continue
                        summary = _morse_summary(crit.sizes(z))
                        assert summary.is_free() and summary.concentrated_in(gap - 2)
                    else:
                        left += 1
                        interval = open_interval(P, P.labels[z], P.labels[y])
                        assert undecided.pop(z) == integral_homology(order_complex(interval))
                assert undecided == {}
        assert passed > 0 and left > 0

    def test_top_pass_on_the_papers_posets(self):
        # critical cells per dimension of (0^, 1^) in augment(P) under the
        # default linear extension
        from posettop.constructions import fiber_ideal, rees_deranged, subword
        from posettop.posets import augment
        cases = [(fiber_ideal(6, range(1, 7), 2).poset, {4: 1, 5: 1}),
                 (fiber_ideal(6, range(1, 7), 3).poset, {3: 1, 4: 36, 5: 35}),
                 (fiber_ideal(6, range(1, 7), 4).poset, {2: 1, 3: 15, 4: 53, 5: 39}),
                 (fiber_ideal(6, range(1, 7), 5).poset, {1: 1, 2: 5, 3: 10, 4: 10, 5: 4}),
                 (rees_deranged(7), {6: 1854}),
                 (subword(6), {5: 265})]
        for P, cells in cases:
            A = augment(P)
            crit = _critical_chains(topo_extension(A), len(A) - 1)
            assert Counter(s - 1 for s in crit.sizes(0)) == cells

    def test_top_pass_memory(self):
        # each distinct chain is one small int; with a fresh bitmask per
        # chain this pass peaked at 8.8 MiB
        import tracemalloc
        from posettop.constructions import subword
        from posettop.posets import augment
        A = augment(subword(6))
        extension = topo_extension(A)  # the order data is not measured
        tracemalloc.start()
        try:
            crit = _critical_chains(extension, len(A) - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(crit.chains[0]) == 265
        assert peak <= 6 * 2 ** 20


class TestDirectPathOnRealPosets:
    def test_subword_and_deranged_rees_medium(self):
        # the engine and the full-matrix SNF agree on real mid-size complexes
        from posettop.constructions import rees_deranged, subword, fiber_ideal
        for P in (subword(4), rees_deranged(4),
                  fiber_ideal(4, (1, 2, 3, 4), 2).poset):
            K = order_complex(P)
            assert integral_homology(K) == snf_homology(K)

    def test_derangement_ranks_over_q(self):
        # the free rank is the derangement number in the top dimension
        from posettop.constructions import rees_deranged, subword
        assert str(betti(order_complex(rees_deranged(5)), "Q")) == "H~4 = Q^44 (Q)"
        assert str(betti(order_complex(subword(4)), "Q")) == "H~3 = Q^9 (Q)"

    def test_barycentric_projective_plane(self):
        K = projective_plane()
        from posettop.complexes import barycentric_subdivision
        B = barycentric_subdivision(K)
        s = integral_homology(B)
        assert s.torsion(1) == (2,)
        assert s == snf_homology(B)
