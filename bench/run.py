"""Run one posettop benchmark workload and print its metrics.

    python3 bench/run.py --workload chain-homology --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; posettop is imported from its
``src`` directory.  One process, one thread, a closed loop with a single
caller: the workload's questions are asked in rounds, one after another,
until ``--seconds`` have passed (at least one whole round).  Afterwards,
untimed, the first answer to every question is checked against
``oracles`` and every later answer must equal it.  Reported times are
scaled by the run's speed factor (see ``calibrate``).

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` spans are recorded around the calls into each layer and
the result carries the per-layer metrics, and the spans are written to
``bench/out/``.  The last line of standard output is the result as one
JSON object; progress and problems go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# The calibration job's typical time on the 2-core host the reference
# figures in README.md were measured on; only scales the reported times.
CALIBRATION_REF_S = 0.04
CALIBRATE_EVERY_S = 1.0


def monotonic() -> float:
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import posettop
    except ImportError as exc:
        sys.exit(f"bench: cannot import posettop from {src}: {exc}")
    if not Path(posettop.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: posettop came from {posettop.__file__}, not {src}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to having built the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"]
    start = monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"bench: set-up probe exited with {done.returncode}")
    return float(done.stdout.split()[-1]) - start


def calibrate() -> float:
    """Seconds taken by a small fixed pure-Python job: tuples, dicts, sets, ints.

    On a shared host the machine's speed drifts by tens of percent within
    minutes.  The job runs between questions about every
    ``CALIBRATE_EVERY_S`` seconds; a run's times are scaled by
    ``CALIBRATION_REF_S`` over the median of its samples (see README.md).
    The collector is held off so that no collection of the workload's
    heap lands in a sample.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        distinct = acc = 0
        for _ in range(4):
            table = {}
            for i in range(5_000):
                key = (i, i >> 1, i & 7)
                table[key] = table.get(key[1:], 0) + i * 3
            distinct += len(set(table.values()))
        for i in range(250_000):
            acc += i * i % 7
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if distinct <= 0 or acc <= 0:
        raise RuntimeError("calibration job went wrong")
    return elapsed


def ask_rounds(questions, seconds: float, tracer):
    """Ask every question in rounds until ``seconds`` have passed.

    Returns the rounds and the run's speed factor: ``CALIBRATION_REF_S``
    over the median calibration time.  A round's ``wall`` is the time
    spent answering its questions, without the calibration samples.
    """
    rounds, samples = [], [calibrate()]
    last_sample = time.perf_counter()
    deadline = last_sample + seconds
    while True:
        gc.collect()
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counters.clear()
        times, answers = [], []
        for q in questions:
            t0 = time.perf_counter()
            try:
                answer = q.ask()
            except Exception as exc:  # a failed question is counted, not fatal
                answer = exc
            t1 = time.perf_counter()
            times.append(t1 - t0)
            answers.append(answer)
            if t1 - last_sample >= CALIBRATE_EVERY_S:
                samples.append(calibrate())
                last_sample = time.perf_counter()
        rounds.append({"wall": sum(times), "times": times, "answers": answers,
                       "spans": (first_span, len(tracer.spans) if tracer else 0),
                       "counters": dict(tracer.counters) if tracer else {}})
        if time.perf_counter() >= deadline:
            samples.append(calibrate())
            return rounds, CALIBRATION_REF_S / median(samples)


def check_answers(questions, rounds) -> tuple[int, list[str]]:
    """Number of failed questions, and what is wrong with the given answers."""
    failed, wrong = 0, []
    for k, q in enumerate(questions):
        answers = [r["answers"][k] for r in rounds]
        errors = [a for a in answers if isinstance(a, Exception)]
        given = [q.digest(a) for a in answers if not isinstance(a, Exception)]
        failed += len(errors)
        if errors:
            sys.stderr.write(f"bench: {q.name} failed {len(errors)} time(s): "
                             f"{type(errors[0]).__name__}: {errors[0]}\n")
        if given:
            wrong += [f"{q.name}: {p}" for p in q.check(given[0])]
            if any(a != given[0] for a in given[1:]):
                wrong.append(f"{q.name}: answers differ between rounds")
    for w in wrong:
        sys.stderr.write(f"bench: WRONG {w}\n")
    return failed, wrong


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["chain-homology", "interval-sweeps", "field-betti"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe:
        import_program()
        import workloads
        workloads.build(args.workload, args.seed)
        print(repr(monotonic()))
        return

    setups = [] if args.trace else [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    import_program()
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        build_span = tracer.open("constructions.build")
    questions = workloads.build(args.workload, args.seed)
    if tracer:
        tracer.close(build_span)
        tracer.install()
    rounds, speed = ask_rounds(questions, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    failed, wrong = check_answers(questions, rounds)
    correct = not wrong

    if tracer:
        per_round = []
        for r in rounds:
            m = tracing.layer_metrics(tracer.spans, *r["spans"], r["counters"])
            m["traced_wall_s"] = r["wall"]
            per_round.append(m)
        build = tracer.spans[build_span]
        values = {"constructions.build_s": build[2] - build[1],
                  **tracing.median_metrics(per_round)}
        # seconds are scaled like wall_s, so traced and untraced runs compare
        values = {k: v * speed if unit(k) == "s" else v for k, v in values.items()}
        for name in tracer.absent:
            sys.stderr.write(f"bench: stage {name} is absent; its metrics read 0\n")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": median(r["wall"] for r in rounds) * speed,
            "slowest_op_s": median(max(r["times"]) for r in rounds) * speed,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
    for name, m in metrics.items():
        sys.stderr.write(f"{name:32s} {m['value']:>14.6g} {m['unit']}\n")
    sys.stderr.write(f"unscaled: wall {median(r['wall'] for r in rounds)!r} s, slowest "
                     f"{median(max(r['times']) for r in rounds)!r} s, speed factor {speed!r}\n")
    sys.stderr.write(f"{len(rounds)} round(s) of {len(questions)} questions, "
                     f"{failed} failed, answers {'correct' if correct else 'WRONG'}\n")
    print(json.dumps({"correct": correct, "attempted": len(rounds) * len(questions),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
