"""The benchmark's independent checks accept right answers and reject wrong ones.

Run with ``python3 -m pytest bench/tests``.
"""

import json

import pytest

import oracles
import posettop as api
import tracing
import workloads
from run import BENCH

SMALL_POSETS = {
    "B3": api.boolean(3),
    "chain(4)": api.chain(4),
    "K(3)": api.subword(3),
    "R(3)": api.rees_deranged(3),
    "I(4,2)": api.fiber_ideal(4, range(1, 5), 2).poset,
    "two points": api.build_poset(["a", "b"], []),
}

I32 = {1: (1, ()), 2: (1, ())}  # the published cell I(3, 2); reduced Euler 0


def test_derangement_recurrence():
    assert [oracles.derangements(n) for n in range(2, 8)] == [1, 2, 9, 44, 265, 1854]


@pytest.mark.parametrize("name", sorted(SMALL_POSETS))
def test_chain_counter_matches_f_vector(name):
    P = SMALL_POSETS[name]
    counts = oracles.chain_counts(len(P), P.covers)
    assert (1, *counts) == api.f_vector(api.order_complex(P))


@pytest.mark.parametrize("name", sorted(SMALL_POSETS))
def test_mobius_equals_chain_euler(name):
    P = SMALL_POSETS[name]
    euler = oracles.euler_from_chains(oracles.chain_counts(len(P), P.covers))
    assert oracles.mobius_bounded(len(P), P.covers) == euler
    assert euler == api.reduced_euler(api.order_complex(P))


def test_word_ideal_check_accepts_the_published_cell():
    assert oracles.check_word_ideal(3, 2, I32, 0, 0, {1: 1, 2: 1}) == []
    assert oracles.check_word_ideal(4, 2, {}, 0, 0, {}) == []


@pytest.mark.parametrize("groups", [
    {1: (2, ()), 2: (1, ())},        # a Betti number off by one
    {1: (1, ()), 2: (0, ())},
    {1: (1, (2,)), 2: (1, ())},      # added torsion
    {1: (1, ()), 2: (1, ()), 0: (0, (3,))},
])
def test_word_ideal_check_rejects_perturbed_answers(groups):
    assert oracles.check_word_ideal(3, 2, groups, 0, 0, None)


def test_word_ideal_check_rejects_disagreements():
    assert oracles.check_word_ideal(3, 2, I32, 0, 0, {1: 1, 2: 2})  # field path
    assert oracles.check_word_ideal(3, 2, I32, 0, 1, None)  # chain count vs Mobius
    assert oracles.check_word_ideal(4, 2, I32, 0, 0, None)  # not the published cell


def test_concentration_check():
    assert oracles.check_concentrated({3: (9, ())}, 3, 9) == []
    assert oracles.check_concentrated({}, 0, 0) == []
    assert oracles.check_concentrated({3: (10, ())}, 3, 9)
    assert oracles.check_concentrated({3: (9, (2,))}, 3, 9)
    assert oracles.check_concentrated({2: (9, ())}, 3, 9)
    assert oracles.check_concentrated({3: (9, ()), 1: (1, ())}, 3, 9)


def test_flipped_verdicts_are_rejected():
    assert oracles.check_verdict(True, True) == []
    assert oracles.check_verdict(False, True)
    assert oracles.check_verdict(True, False)
    assert oracles.check_koszul(True, 10, 10) == []
    assert oracles.check_koszul(False, 10, 10)
    assert oracles.check_koszul(True, 9, 10)


def test_semigroup_layers_match_the_program():
    gens = [v for v in oracles.monomials(3, 3) if v != (1, 1, 1)]
    S = api.punctured_veronese_semigroup(3)
    assert sorted(S.generators) == sorted(gens)
    sizes = oracles.semigroup_layer_sizes(gens, 4)
    assert sizes == [len(layer) for layer in S.enumerate_up_to(4)]
    assert oracles.semigroup_layer_sizes(oracles.unit_vectors(2), 4) == [1, 2, 3, 4, 5]


def test_wide_poset_is_cm():
    assert api.is_cm_poset(workloads.wide_poset(), "Q", use_cache=False).verdict


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "wall_s", "slowest_op_s", "peak_rss_mb"}
    traced = set(tracing.layer_metrics([], 0, 0, {})) | {"constructions.build_s", "traced_wall_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tracer_records_spans_and_restores_the_program():
    original = api.integral_homology
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert api.integral_homology is not original
        api.integral_homology(api.order_complex(api.boolean(3)))
    finally:
        tracer.uninstall()
    assert api.integral_homology is original
    assert tracer.absent == []
    m = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans), tracer.counters)
    assert m["homology.integral_calls"] == 1
    assert m["homology.cells_built"] == sum(api.f_vector(api.order_complex(api.boolean(3)))[1:])
    assert m["homology.integral_s"] >= m["homology.cascade_s"] > 0


def test_layer_metrics_count_one_round_only():
    spans = [["homology.integral", 0.0, 1.0, -1, None],   # round 1
             ["homology.integral", 2.0, 2.5, -1, None],   # round 2
             ["intmatrix.snf", 2.1, 2.2, 1, {"nnz": 7}]]
    m = tracing.layer_metrics(spans, 1, 3, {})
    assert m["homology.integral_calls"] == 1
    assert m["homology.integral_s"] == 0.5
    assert m["intmatrix.snf_nnz"] == 7
    assert abs(m["intmatrix.snf_s"] - 0.1) < 1e-9
