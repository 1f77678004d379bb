"""Traced per-layer rows for single integral homology questions.

    python3 bench/baseline.py 'I(6,3)' 'I(6,4)' 'R(6)' 'K(5)'

Each name is a word ideal I(n,i), a deranged Rees poset R(n) or a subword
poset K(n).  Each is computed once in this process with the spans of
``tracing`` on, and printed as one row: poset size, cells built, cells
surviving the cascade, seconds in chain enumeration plus cell complex,
cascade and SNF, total seconds, the homology found and, for a word
ideal, whether it matches the published table.  Asking for I(6,1) to
I(6,6) recomputes the n = 6 row of that table.
"""

from __future__ import annotations

import re
import sys
import time

from run import import_program


def poset(name: str):
    import posettop as api
    m = re.fullmatch(r"I\((\d+),(\d+)\)|([RK])\((\d+)\)", name)
    if not m:
        sys.exit(f"baseline: cannot read {name!r}; use I(n,i), R(n) or K(n)")
    if m[1]:
        n = int(m[1])
        return api.fiber_ideal(n, range(1, n + 1), int(m[2])).poset
    return (api.rees_deranged if m[3] == "R" else api.subword)(int(m[4]))


def main(names):
    import_program()
    import posettop as api
    import oracles
    import tracing
    from workloads import plain

    print("| question | poset | cells | survivors | chains + cell cx | cascade | SNF "
          "| total | homology | published |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name in names:
        P = poset(name)
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            groups = plain(api.integral_homology(api.order_complex(P)))
        finally:
            total = time.perf_counter() - start
            tracer.uninstall()
        m = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans), tracer.counters)
        published = ""
        if name.startswith("I"):
            n, i = map(int, re.findall(r"\d+", name))
            cell = {d: b for d, (b, t) in groups.items()}
            ok = cell == oracles.PUBLISHED_WORD_IDEAL_TABLE.get((n, i), {}) and \
                not any(t for (_, t) in groups.values())
            published = "match" if ok else "DIFFERS"
        homology = ", ".join(f"H~{d} = Z^{b}" + "".join(f" + Z/{t}" for t in tor)
                             for d, (b, tor) in sorted(groups.items())) or "0"
        print(f"| {name} | {len(P)} | {m['homology.cells_built']:,} | "
              f"{m['homology.survivors']:,} | "
              f"{m['complexes.order_complex_s'] + m['homology.cell_complex_s']:.2f} s | "
              f"{m['homology.cascade_s']:.2f} s | {m['intmatrix.snf_s']:.2f} s | "
              f"{total:.2f} s | {homology} | {published} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or ["I(6,3)", "I(6,4)", "R(6)", "K(5)"])
