"""Slow reference homology, kept only to check the engine in the tests.

Both functions work on the full, unreduced boundary matrices and share
no code with the engine's cascade or with its derivation of field
answers from integral ones.  ``elimination_betti`` takes field ranks by
fraction-free elimination over Q and modular elimination over GF(p);
``snf_homology`` takes the Smith normal form of every boundary matrix.
"""

from posettop.homology import (
    HomologySummary,
    _field,
    boundary_matrices,
    field_name,
    make_summary,
)
from posettop.intmatrix import rank_mod_p, rank_over_rationals, smith_normal_form


def elimination_betti(K, f="Q") -> HomologySummary:
    """Reduced Betti numbers of ``K`` over a field by dense rank elimination."""
    f = _field(f)
    name = field_name(f)
    if K.is_empty:
        return HomologySummary(name, (), empty_complex=True)
    mats = boundary_matrices(K)
    if f == "Q":
        ranks = [rank_over_rationals(M) for M in mats]
    else:
        ranks = [rank_mod_p(M, f) for M in mats]
    ranks.append(0)
    return make_summary(name, {i: (M.ncols - ranks[i] - ranks[i + 1], ())
                               for i, M in enumerate(mats)})


def snf_homology(K) -> HomologySummary:
    """Integral reduced homology of ``K`` from the Smith normal forms of
    its full boundary matrices."""
    if K.is_empty:
        return HomologySummary("Z", (), empty_complex=True)
    mats = boundary_matrices(K)
    snfs = [smith_normal_form(M) for M in mats]
    ranks = [s.rank for s in snfs] + [0]
    groups = {}
    for i, M in enumerate(mats):
        t = snfs[i + 1].nontrivial() if i + 1 < len(snfs) else ()
        groups[i] = (M.ncols - ranks[i] - ranks[i + 1], t)
    return make_summary("Z", groups)
