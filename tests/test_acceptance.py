"""Acceptance suite: every exit criterion, exact, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The shared verification report computes the full evidence battery once
(the n = 6 table row dominates; the module took 65 s single-threaded on
a 2-core Intel Xeon host with Python 3.11, and POSETTOP_THREADS can
parallelize the heavy cells).
"""

import os

import pytest

from posettop.verification import (
    WORD_IDEAL_HOMOLOGY,
    run_verification,
)


@pytest.fixture(scope="module")
def report():
    return run_verification(
        table_max_n=6,
        rees_max_n=6,
        subword_max_n=5,
        mobius_max_n=5,
        oracle_samples=100,
    )


def _block(report, name):
    return [r for r in report.results if r.block == name]


def _announce(num, text, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_word_ideal_table(report):
    """Integral homology of I(n, i) matches the known table for n <= 6."""
    rows = _block(report, "word-ideal homology")
    assert len(rows) == 21  # all 1 <= i <= n <= 6
    ok = all(r.passed for r in rows)
    # spot-pin the nonzero cells against the frozen expectations
    cells = dict(report.table_cells)
    assert cells[(3, 2)] == "H~1=Z, H~2=Z"
    assert cells[(5, 3)] == "H~3=Z^6, H~4=Z^6"
    assert cells[(6, 3)] == "H~4=Z^13, H~5=Z^13"
    assert cells[(6, 4)] == "H~4=Z^13, H~5=Z^13"
    for (n, i), _ in cells.items():
        if (n, i) not in WORD_IDEAL_HOMOLOGY:
            assert cells[(n, i)] == "0"
    heavy = sum(r.seconds for r in rows if r.name.startswith("I(6"))
    assert heavy <= 600, f"n=6 row took {heavy:.0f}s, target is 600s"
    _announce(1, f"word-ideal homology table exact for n <= 6 "
                 f"(n=6 row in {heavy:.0f}s)", ok)


def test_criterion_2_word_ideal_euler(report):
    """Reduced Euler characteristic of every I(n, i) is zero."""
    rows = _block(report, "word-ideal euler")
    assert len(rows) == 21
    ok = all(r.passed for r in rows)
    _announce(2, "reduced Euler characteristic 0 for every word ideal, n <= 6", ok)


def test_criterion_3_deranged_rees_ranks(report):
    """R(n) carries free homology of derangement rank in dimension n-1."""
    rows = _block(report, "deranged Rees homology")
    assert [r.name for r in rows] == [f"R({n})" for n in range(2, 7)]
    expected_ranks = {2: 1, 3: 2, 4: 9, 5: 44, 6: 265}
    for r in rows:
        n = int(r.name[2:-1])
        want = f"H~{n - 1}=Z" if expected_ranks[n] == 1 else \
            f"H~{n - 1}=Z^{expected_ranks[n]}"
        assert r.expected == want
    ok = all(r.passed for r in rows)
    total = sum(r.seconds for r in rows)
    assert total <= 600, f"Rees block took {total:.0f}s, target is 600s"
    _announce(3, f"deranged Rees homology free of derangement rank, "
                 f"2 <= n <= 6 ({total:.0f}s)", ok)


def test_criterion_3_optional_n7():
    """Optional flagged run: R(7); enable with POSETTOP_RUN_R7=1."""
    if not os.environ.get("POSETTOP_RUN_R7"):
        pytest.skip("optional n=7 run; set POSETTOP_RUN_R7=1 to enable")
    from posettop.complexes import order_complex
    from posettop.constructions import rees_deranged
    from posettop.homology import integral_homology, make_summary
    from posettop.permutations import derangements
    s = integral_homology(order_complex(rees_deranged(7)))
    assert s == make_summary("Z", {6: (derangements(7), ())})


def test_criterion_4_subword_homology(report):
    """K(n) is a homology wedge of derangement-many (n-1)-spheres, n <= 5."""
    rows = _block(report, "subword homology")
    assert [r.name for r in rows] == [f"K({n})" for n in range(1, 6)]
    ok = all(r.passed for r in rows)
    _announce(4, "subword posets carry derangement-rank homology, n <= 5", ok)


def test_criterion_5_moebius_identities(report):
    """Four derivations of the Segre-square Moebius number agree, n <= 5."""
    rows = _block(report, "moebius identities")
    assert len(rows) == 5
    ok = all(r.passed for r in rows)
    assert "equal 1" in rows[0].expected
    assert "equal 3" in rows[1].expected
    assert "equal 19" in rows[2].expected
    _announce(5, "Moebius = no-common-ascent = falling chains = alpha*beta, "
                 "n <= 5 (1, 3, 19 pinned)", ok)


def test_criterion_6_cm_preservation(report):
    """Preservation suite over Q and GF(2); the counterexample fails CM."""
    rows = _block(report, "cm preservation")
    ok = all(r.passed for r in rows)
    names = [r.name for r in rows]
    assert any("counterexample" in n for n in names)
    assert any("no theorem-contradicting outcome" == n for n in names)
    _announce(6, "Cohen-Macaulay preservation suite exact over Q and GF(2)", ok)


def test_criterion_7_semigroup_suite(report):
    """Koszul interval tests and product-semigroup interval isomorphisms."""
    rows = _block(report, "semigroup koszul") + _block(report, "semigroup intervals")
    assert len(rows) == 5
    ok = all(r.passed for r in rows)
    total = sum(r.seconds for r in rows)
    assert total <= 300, f"semigroup block took {total:.0f}s, target is 300s"
    _announce(7, f"semigroup Koszul and interval checks exact ({total:.0f}s)", ok)


def test_criterion_8_homology_oracles(report):
    """Engine cross-validation: boundary identity, SNF vs elimination,
    Hall cross-check, projective-plane values."""
    rows = _block(report, "homology oracle")
    ok = all(r.passed for r in rows)
    assert any("100 random complexes" in r.name for r in rows)
    assert any("100 random posets" in r.name for r in rows)
    assert any("projective plane" in r.name for r in rows)
    _announce(8, "homology engine oracle suite exact", ok)


def test_overall(report):
    assert report.all_passed, report.describe()
