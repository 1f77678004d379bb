"""Finite poset and simplicial-complex topology toolkit.

Segre and Rees products of posets, rank selection, order complexes,
exact reduced homology over Z, Q, and prime fields, Cohen-Macaulay
analysis, affine semigroup Koszul tests, and the permutation statistics
tying them together.
"""

from .posets import (
    Bound,
    ImpurePosetError,
    Poset,
    PosetError,
    PosetMap,
    PurityFailure,
    RankInfo,
    SizeLimitError,
    augment,
    bounds,
    build_poset,
    closed_interval,
    dual,
    find_isomorphism,
    induced_subposet,
    is_isomorphic,
    is_pure,
    mobius,
    open_interval,
    poset_from_data,
    poset_from_json,
    poset_to_data,
    poset_to_json,
    rank_info,
    rank_map,
    require_rank_info,
)
from .complexes import (
    ComplexError,
    SimplicialComplex,
    barycentric_subdivision,
    complex_from_data,
    complex_from_json,
    complex_segre,
    complex_to_data,
    complex_to_json,
    empty_complex,
    f_vector,
    face_poset,
    full_simplex,
    order_complex,
    rank_coloring,
    reduced_euler,
    simplex_boundary,
    simplicial_complex,
    type_select,
    void_complex,
)
from .intmatrix import (
    IntegerMatrix,
    MatrixError,
    SNFDecomposition,
    is_prime,
    rank_mod_p,
    rank_over_rationals,
    smith_normal_form,
)
from .homology import (
    HomologySummary,
    betti,
    boundary_matrices,
    check_chain_complex,
    homology,
    integral_homology,
    summary_to_data,
)
from .cohen_macaulay import (
    CMFailure,
    CMReport,
    cm_preservation_suite,
    cm_report_to_data,
    is_acyclic_over,
    is_cm_complex,
    is_cm_poset,
)
from .constructions import (
    FiberIdeal,
    ReesAsSegreResult,
    WeightedSegreResult,
    boolean,
    boolean_minus_bottom,
    chain,
    fiber_ideal,
    minors,
    product,
    rank_select,
    rees,
    rees_as_segre,
    rees_deranged,
    segre,
    subword,
    support_descents,
    weighted_segre,
    word_descents,
)
from .semigroups import (
    GradingMap,
    HomogeneousSemigroup,
    SegreSemigroupView,
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
    semigroup_to_data,
    semigroup_to_json,
)

__version__ = "0.1.0"

# ``permutations`` and ``verification`` load on first use of a name they
# export (PEP 562): most callers need neither, and they are a large part
# of the package's import time.
_LAZY = {
    **dict.fromkeys(("FlagVector", "ascent_set", "derangements", "descent_set",
                     "falling_chains_segre_square", "flag_vector_boolean",
                     "no_common_ascent_pairs"), "permutations"),
    **dict.fromkeys(("VerificationReport", "run_verification"), "verification"),
}


def __getattr__(name):
    from importlib import import_module
    if name in ("permutations", "verification"):
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# every name ``import *`` gave when all submodules loaded eagerly
__all__ = [name for name in globals() if not name.startswith("_")] + \
    ["permutations", "verification", *_LAZY]
