"""Command-line front end.

Subcommands compose through files (or stdin/stdout): every intermediate
object is serializable JSON, so a pipeline like

    posettop family boolean --n 3 | posettop cm --field q

is reproducible step by step.  Exit codes: 0 on success, 1 when a
mathematical check fails (a non-CM verdict, a failed Koszul test, a
failed verification run), 2 on usage errors and on size limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .cohen_macaulay import cm_report_to_data, is_cm_poset
from .complexes import (
    barycentric_subdivision,
    complex_from_json,
    complex_segre,
    complex_to_json,
    order_complex,
    type_select,
)
from .constructions import (
    boolean,
    chain,
    fiber_ideal,
    minors,
    product,
    rank_select,
    rees,
    rees_deranged,
    segre,
    subword,
)
from .homology import homology, parse_coefficients, summary_to_data
from .posets import PosetError, poset_from_json, poset_to_json, rank_map
from .semigroups import (
    koszul_necessary_test,
    natural_semigroup,
    punctured_veronese_semigroup,
    semigroup_from_json,
    semigroup_to_json,
)


def _coefficients(value: str):
    try:
        return parse_coefficients(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return n


def _rank_bound(value: str) -> int:
    n = int(value)
    if n < 2:
        raise argparse.ArgumentTypeError("must be at least 2")
    return n


def _int_set(value: str) -> set[int]:
    try:
        return {int(x) for x in value.split(",") if x != ""}
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_text(text: str, path: Optional[str]):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _load_poset(path: str):
    return poset_from_json(_read_text(path))


def _load_labelled(path: str, key: str) -> dict:
    """The JSON object under ``key`` of the file's JSON object, keyed by
    label strings: a map file's ``"values"`` or a coloring's ``"colors"``."""
    data = json.loads(_read_text(path))
    inner = data.get(key) if isinstance(data, dict) else None
    if not isinstance(inner, dict):
        raise PosetError(f'{path}: needs a JSON object with a "{key}" object')
    return {str(k): v for k, v in inner.items()}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="posettop",
        description="Poset topology toolkit: constructions, homology, "
                    "Cohen-Macaulay analysis, semigroup Koszul tests.")
    top.add_argument("-o", "--output", default=None,
                     help="output file (default: stdout)")
    # the same flag is accepted after the subcommand; SUPPRESS keeps a
    # value given before the subcommand from being clobbered
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", default=argparse.SUPPRESS,
                     help="output file (default: stdout)")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="binary poset constructions")
    csub = c.add_subparsers(dest="construction", required=True)
    for name in ("product", "segre", "rees"):
        p = csub.add_parser(name, parents=[out])
        p.add_argument("first", help="poset JSON file, or - for stdin")
        p.add_argument("second", help="poset JSON file")
        if name == "segre":
            p.add_argument("--f-map", default=None,
                           help='map JSON {"values": {...}} for the first factor '
                                "(default: its rank function)")
            p.add_argument("--g-map", default=None,
                           help="map JSON for the second factor (default: rank)")
    p = csub.add_parser("rank-select", parents=[out])
    p.add_argument("first", nargs="?", default="-",
                   help="poset JSON file (default: stdin)")
    p.add_argument("--ranks", type=_int_set, required=True,
                   help="comma-separated ranks to keep")

    f = sub.add_parser("family", help="named poset families")
    fsub = f.add_subparsers(dest="family", required=True)
    for name in ("boolean", "chain", "minors", "subword", "rees-deranged"):
        p = fsub.add_parser(name, parents=[out])
        p.add_argument("--n", type=_positive_int, required=True)
    p = fsub.add_parser("fiber-ideal", parents=[out])
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--letters", type=_int_set, default=None,
                   help="letter set (default: 1..n)")
    p.add_argument("--i", type=_positive_int, required=True,
                   help="descent class, 1-based")

    x = sub.add_parser("complex", help="simplicial complex operations")
    xsub = x.add_subparsers(dest="complex_op", required=True)
    p = xsub.add_parser("order-complex", parents=[out])
    p.add_argument("poset", nargs="?", default="-",
                   help="poset JSON file (default: stdin)")
    p = xsub.add_parser("subdivision", parents=[out])
    p.add_argument("complex", nargs="?", default="-",
                   help="complex JSON file (default: stdin)")
    p = xsub.add_parser("type-select", parents=[out])
    p.add_argument("complex", nargs="?", default="-",
                   help="complex JSON file (default: stdin)")
    p.add_argument("--colors", required=True, help='coloring JSON {"colors": {...}}')
    p.add_argument("--keep", type=_int_set, required=True)
    p = xsub.add_parser("segre", parents=[out])
    p.add_argument("first", help="complex JSON file")
    p.add_argument("first_colors", help="coloring JSON file")
    p.add_argument("second", help="complex JSON file")
    p.add_argument("second_colors", help="coloring JSON file")

    h = sub.add_parser("homology", parents=[out], help="reduced homology of a complex")
    h.add_argument("complex", nargs="?", default="-",
                   help="complex JSON file (default: stdin)")
    h.add_argument("--coefficients", type=_coefficients, default="z",
                   help="z | q | gf:p (default z)")

    m = sub.add_parser("cm", parents=[out], help="Cohen-Macaulay analysis of a poset")
    m.add_argument("poset", nargs="?", default="-",
                   help="poset JSON file (default: stdin)")
    m.add_argument("--field", type=_coefficients, default="q",
                   help="q | gf:p | z-spherical")
    m.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("semigroup", help="affine semigroup operations")
    ssub = s.add_subparsers(dest="semigroup_op", required=True)
    p = ssub.add_parser("koszul-test", parents=[out])
    p.add_argument("semigroup", nargs="?", default="-",
                   help="semigroup JSON file (default: stdin)")
    p.add_argument("--max-rank", type=_rank_bound, required=True)
    p.add_argument("--field", type=_coefficients, default="q")
    p = ssub.add_parser("natural", parents=[out])
    p.add_argument("--d", type=_positive_int, required=True)
    p = ssub.add_parser("veronese-punctured", parents=[out])
    p.add_argument("--d", type=_positive_int, required=True)
    p = ssub.add_parser("interval", parents=[out])
    p.add_argument("semigroup", nargs="?", default="-")
    p.add_argument("--element", required=True, type=_int_set_ordered,
                   help="comma-separated coordinates")

    e = sub.add_parser("enumerate", parents=[out], help="permutation statistics")
    e.add_argument("statistic", choices=("derangements", "nca-pairs",
                                         "flag-vector", "falling-chains"))
    e.add_argument("--n", type=_positive_int, required=True)
    e.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser("verify-paper", parents=[out],
                       help="re-run the built-in evidence suite")
    v.add_argument("--max-n", type=_positive_int, default=None,
                   help="cap every block at one bound (individual flags win)")
    v.add_argument("--table-max-n", type=_positive_int, default=None)
    v.add_argument("--rees-max-n", type=_positive_int, default=None)
    v.add_argument("--subword-max-n", type=_positive_int, default=None)
    v.add_argument("--mobius-max-n", type=_positive_int, default=None)
    v.add_argument("--oracle-samples", type=_positive_int, default=100)
    v.add_argument("--format", choices=("text", "json"), default="text")
    return top


def _int_set_ordered(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def _cmd_construct(args) -> int:
    if args.construction == "product":
        out = product(_load_poset(args.first), _load_poset(args.second))
    elif args.construction == "rees":
        out = rees(_load_poset(args.first), _load_poset(args.second))
    elif args.construction == "segre":
        P = _load_poset(args.first)
        Q = _load_poset(args.second)
        f = _load_labelled(args.f_map, "values") if args.f_map else rank_map(P)
        g = _load_labelled(args.g_map, "values") if args.g_map else rank_map(Q)
        out = segre(P, f, Q, g)
    else:  # rank-select
        out = rank_select(_load_poset(args.first), args.ranks)
    _write_text(poset_to_json(out), args.output)
    return 0


def _cmd_family(args) -> int:
    if args.family == "boolean":
        out = boolean(args.n)
    elif args.family == "chain":
        out = chain(args.n)
    elif args.family == "minors":
        out = minors(args.n)
    elif args.family == "subword":
        out = subword(args.n)
    elif args.family == "rees-deranged":
        out = rees_deranged(args.n)
    else:  # fiber-ideal
        letters = args.letters if args.letters is not None else range(1, args.n + 1)
        out = fiber_ideal(args.n, letters, args.i).poset
    _write_text(poset_to_json(out), args.output)
    return 0


def _cmd_complex(args) -> int:
    if args.complex_op == "order-complex":
        out = order_complex(_load_poset(args.poset))
    elif args.complex_op == "subdivision":
        out = barycentric_subdivision(complex_from_json(_read_text(args.complex)))
    elif args.complex_op == "type-select":
        K = complex_from_json(_read_text(args.complex))
        out = type_select(K, _load_labelled(args.colors, "colors"), args.keep)
    else:  # segre
        K1 = complex_from_json(_read_text(args.first))
        K2 = complex_from_json(_read_text(args.second))
        out = complex_segre(K1, _load_labelled(args.first_colors, "colors"),
                            K2, _load_labelled(args.second_colors, "colors"))
    _write_text(complex_to_json(out), args.output)
    return 0


def _cmd_homology(args) -> int:
    K = complex_from_json(_read_text(args.complex))
    summary = homology(K, args.coefficients)
    _write_text(json.dumps(summary_to_data(summary)) + "\n", args.output)
    return 0


def _cmd_cm(args) -> int:
    P = _load_poset(args.poset)
    report = is_cm_poset(P, args.field)
    if args.format == "json":
        _write_text(json.dumps(cm_report_to_data(report)) + "\n", args.output)
    else:
        _write_text(report.describe() + "\n", args.output)
    return 0 if report.verdict else 1


def _cmd_semigroup(args) -> int:
    if args.semigroup_op == "natural":
        _write_text(semigroup_to_json(natural_semigroup(args.d)), args.output)
        return 0
    if args.semigroup_op == "veronese-punctured":
        _write_text(semigroup_to_json(punctured_veronese_semigroup(args.d)),
                    args.output)
        return 0
    S = semigroup_from_json(_read_text(args.semigroup))
    if args.semigroup_op == "interval":
        from .semigroups import lower_interval
        _write_text(poset_to_json(lower_interval(S, args.element)), args.output)
        return 0
    report = koszul_necessary_test(S, args.max_rank, coeffs=args.field)
    _write_text(report.describe() + "\n", args.output)
    return 0 if report.passed else 1


def _cmd_enumerate(args) -> int:
    from .permutations import (
        derangements,
        falling_chains_segre_square,
        flag_vector_boolean,
        no_common_ascent_pairs,
    )
    n = args.n
    if args.statistic == "derangements":
        payload = {"n": n, "derangements": derangements(n)}
        text = f"derangements({n}) = {payload['derangements']}"
    elif args.statistic == "nca-pairs":
        payload = {"n": n, "no_common_ascent_pairs": no_common_ascent_pairs(n)}
        text = f"pairs of permutations of [{n}] with no common ascent: " \
               f"{payload['no_common_ascent_pairs']}"
    elif args.statistic == "falling-chains":
        payload = {"n": n, "falling_chains": falling_chains_segre_square(n)}
        text = f"falling maximal chains of the submatrix poset ({n}): " \
               f"{payload['falling_chains']}"
    else:  # flag-vector
        fv = flag_vector_boolean(n)
        items = sorted(((sorted(J), fv.alpha[J], fv.beta[J]) for J in fv.alpha),
                       key=lambda t: (len(t[0]), t[0]))
        payload = {"n": n,
                   "flag_vector": [{"set": J, "alpha": a, "beta": b}
                                   for (J, a, b) in items],
                   "alpha_beta_sum": fv.alpha_beta_sum()}
        lines = [f"J={set(J) if J else '{}'}  alpha={a}  beta={b}"
                 for (J, a, b) in items]
        lines.append(f"sum of alpha*beta = {fv.alpha_beta_sum()}")
        text = "\n".join(lines)
    if args.format == "json":
        _write_text(json.dumps(payload) + "\n", args.output)
    else:
        _write_text(text + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verification import run_verification
    cap = args.max_n

    def bound(explicit, default):
        # --max-n lowers every block bound; raising past a default needs
        # the block's own flag
        if explicit is not None:
            return explicit
        if cap is not None:
            return min(cap, default)
        return default

    report = run_verification(
        table_max_n=bound(args.table_max_n, 6),
        rees_max_n=bound(args.rees_max_n, 6),
        subword_max_n=bound(args.subword_max_n, 5),
        mobius_max_n=bound(args.mobius_max_n, 5),
        oracle_samples=args.oracle_samples)
    if args.format == "json":
        _write_text(report.to_json(), args.output)
    else:
        _write_text(report.describe() + "\n", args.output)
    return 0 if report.all_passed else 1


_HANDLERS = {
    "construct": _cmd_construct,
    "family": _cmd_family,
    "complex": _cmd_complex,
    "homology": _cmd_homology,
    "cm": _cmd_cm,
    "semigroup": _cmd_semigroup,
    "enumerate": _cmd_enumerate,
    "verify-paper": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, RuntimeError) as e:
        # RuntimeError covers SizeLimitError: a limit is not a verdict
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # nor is running out of memory
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
