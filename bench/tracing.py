"""Spans around the calls into posettop's layers, for the traced run.

``Tracer.install`` wraps each target function wherever a posettop module
binds it (callers often import functions by name), and ``uninstall``
puts the originals back.  A target that no longer exists is listed in
``absent`` and its metrics read 0; the run goes on.  Spans stay in
memory as ``[name, start, end, parent, info]`` and are written out at
the end.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from statistics import median


def _nnz_rows(rows, cols):
    return {"nnz": sum(len(r) for r in rows.values())}


def _nnz_matrix(M, *rest):
    return {"nnz": len(M.entries)}


def _cells(cx):
    return {"cells": sum(cx.counts)}


def _survivors(alive):
    # alive[0] is the empty face; the rest hold one flag per cell
    return {"in": sum(len(a) for a in alive[1:]),
            "out": sum(a.count(1) for a in alive[1:])}


def _chains(layers):
    return {"chains": sum(len(layer) for layer in layers)}


def _found(result):
    return {"found": result is not None}


# (span name, module, attribute, info from the arguments, info from the result)
TARGETS = [
    ("complexes.order_complex", "posettop.complexes", "order_complex", None, None),
    ("complexes.chains", "posettop.complexes", "poset_chains_by_size", None, _chains),
    ("homology.integral", "posettop.homology", "integral_homology", None, None),
    ("homology.cell_complex", "posettop.homology", "_cell_complex", None, _cells),
    ("homology.cascade", "posettop.homology", "_cascade", None, _survivors),
    ("homology.residual", "posettop.homology", "_residual_homology", None, None),
    ("intmatrix.snf", "posettop.intmatrix", "_snf_divisors", _nnz_rows, None),
    ("homology.field_betti", "posettop.homology", "betti", None, None),
    ("intmatrix.rank_q", "posettop.intmatrix", "rank_over_rationals", _nnz_matrix, None),
    ("intmatrix.rank_mod_p", "posettop.intmatrix", "rank_mod_p", _nnz_matrix, None),
    ("posets.iso", "posettop.posets", "find_isomorphism", None, _found),
    ("cohen_macaulay.is_cm", "posettop.cohen_macaulay", "is_cm_poset", None, None),
    ("semigroups.koszul", "posettop.semigroups", "koszul_necessary_test", None, None),
    ("semigroups.lower_interval", "posettop.semigroups", "open_interval_below", None, None),
]

# (module, generator function): counts the non-cover intervals it yields
INTERVAL_GENERATOR = ("posettop.cohen_macaulay", "_interval_items")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(int)
        self.absent: list[str] = []
        self._rebound: list = []  # (module, attribute, original)

    # -- spans -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, info=None):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        self.spans[idx][4] = info

    def wrap(self, name, fn, before=None, after=None):
        # the hooks run outside the span, so they add to the caller's time
        def traced(*args, **kwargs):
            info = before(*args, **kwargs) if before else None
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, info)
            if after:
                self.spans[idx][4] = {**(info or {}), **after(result)}
            return result
        return traced

    def wrap_generator(self, gen):
        counters = self.counters

        def counted(*args, **kwargs):
            for item in gen(*args, **kwargs):
                if item[2] > 1:  # rank gap 1 is a cover pair: no homology
                    counters["cm.intervals"] += 1
                yield item
        return counted

    # -- installing ----------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname == "posettop" or modname.startswith("posettop."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebound.append((mod, attr, original))
                        setattr(mod, attr, replacement)

    def install(self):
        for name, modname, attr, before, after in TARGETS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._rebind(fn, self.wrap(name, fn, before, after))
        modname, attr = INTERVAL_GENERATOR
        gen = getattr(sys.modules.get(modname), attr, None)
        if gen is None:
            self.absent.append("cohen_macaulay.intervals")
        else:
            self._rebind(gen, self.wrap_generator(gen))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        with open(path, "w") as fh:
            fh.write(json.dumps({"span_names": names, "absent": self.absent}) + "\n")
            for name, t0, t1, parent, info in self.spans:
                fh.write(json.dumps([name, round(t0, 7), round(t1, 7), parent, info]) + "\n")


# -- per-layer metrics -------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, first: int, last: int, counters: dict) -> dict:
    """Per-layer figures of one round: the spans ``first`` to ``last - 1``."""
    own = spans[first:last]
    child_time = defaultdict(float)
    for name, t0, t1, parent, info in own:
        if parent >= first:
            child_time[parent] += t1 - t0
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    info_sum = defaultdict(int)
    under = defaultdict(int)  # (span name, enclosing sweep) -> count
    for k, (name, t0, t1, parent, info) in enumerate(own, start=first):
        self_s[name] += t1 - t0 - child_time[k]
        total_s[name] += t1 - t0
        calls[name] += 1
        for key, v in (info or {}).items():
            info_sum[name, key] += v
        if name in ("homology.integral", "semigroups.lower_interval"):
            p = parent
            while p >= first:
                sweep = spans[p][0]
                if sweep in ("cohen_macaulay.is_cm", "semigroups.koszul"):
                    under[name, sweep] += 1
                    break
                p = spans[p][3]
    cm_intervals = counters.get("cm.intervals", 0)
    kz_intervals = under["semigroups.lower_interval", "semigroups.koszul"]
    iso_calls = calls["posets.iso"]
    cascade_in = info_sum["homology.cascade", "in"]
    survivors = info_sum["homology.cascade", "out"]
    return {
        "complexes.order_complex_s": self_s["complexes.order_complex"] + self_s["complexes.chains"],
        "complexes.chains": info_sum["complexes.chains", "chains"],
        "homology.integral_s": total_s["homology.integral"],
        "homology.integral_calls": calls["homology.integral"],
        "homology.cell_complex_s": self_s["homology.cell_complex"],
        "homology.cells_built": info_sum["homology.cell_complex", "cells"],
        "homology.cascade_s": self_s["homology.cascade"],
        "homology.survivors": survivors,
        "homology.cancel_ratio": _ratio(cascade_in - survivors, cascade_in),
        "homology.residual_s": self_s["homology.residual"],
        "intmatrix.snf_s": self_s["intmatrix.snf"],
        "intmatrix.snf_calls": calls["intmatrix.snf"],
        "intmatrix.snf_nnz": info_sum["intmatrix.snf", "nnz"],
        "homology.field_betti_s": total_s["homology.field_betti"],
        "intmatrix.rank_q_s": self_s["intmatrix.rank_q"],
        "intmatrix.rank_mod_p_s": self_s["intmatrix.rank_mod_p"],
        "intmatrix.elim_nnz": info_sum["intmatrix.rank_q", "nnz"] + info_sum["intmatrix.rank_mod_p", "nnz"],
        "posets.iso_s": self_s["posets.iso"],
        "posets.iso_calls": iso_calls,
        "posets.iso_found_ratio": _ratio(info_sum["posets.iso", "found"], iso_calls),
        "cohen_macaulay.is_cm_s": total_s["cohen_macaulay.is_cm"],
        "cohen_macaulay.intervals": cm_intervals,
        "cohen_macaulay.cache_hit_ratio": _ratio(
            cm_intervals - under["homology.integral", "cohen_macaulay.is_cm"], cm_intervals),
        "semigroups.koszul_s": total_s["semigroups.koszul"],
        "semigroups.lower_interval_s": total_s["semigroups.lower_interval"],
        "semigroups.intervals": kz_intervals,
        "semigroups.dedup_ratio": _ratio(
            kz_intervals - under["homology.integral", "semigroups.koszul"], kz_intervals),
    }


def median_metrics(rounds: list[dict]) -> dict:
    return {name: median(r[name] for r in rounds) for name in rounds[0]}
