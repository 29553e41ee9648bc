"""Benchmark of the brodmann command line, run in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ass_profile --seed 1 --seconds 20 --trace 0

One client, closed loop: each CLI call (``brodmann.cli.main(argv)``, stdout
captured) starts after the previous one returns, in this single process.
Inputs are written from the seed before timing; the program sees only the
ideal and system files.  A run repeats whole passes over the workload's
pool until --seconds have elapsed and enough ops ran for the tail
percentile.  The power and delete_variable caches are cleared between ops,
because each real CLI call is a fresh process.  Outputs are checked after
timing, by the reference routes in oracles.py.

Times are reported at a nominal machine speed.  A shared 2-vCPU host was
measured changing speed by about 20% over a few seconds, which moved whole
runs by more than any useful bound.  So every op, and every set-up launch,
is timed between two runs of a fixed pure-Python reference computation
(benchmark code, which no change to the library can speed up), and its
time is scaled by NOMINAL_REF_S / (mean of those two reference times).
The raw wall-clock rate is printed to stderr.

--trace 0 prints the end-to-end metrics.  --trace 1 runs whole untraced
passes for half of --seconds, then the same passes traced, and prints
per-layer metrics per pass, the traced and untraced rates (tracing overhead)
and, on ass_profile, the time of the same passes at --jobs 2.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 9

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

_ref_rng = random.Random(0)
REF_POINTS = [tuple(_ref_rng.randint(0, 9) for _ in range(3)) for _ in range(120)]
NOMINAL_REF_S = 0.0015  # a typical reference() on a shared 2-vCPU host, CPython 3.11


def reference() -> float:
    """Seconds for a fixed mix of integer arithmetic and tuple/set work."""
    start = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    for _ in range(3):
        oracles.minimal(REF_POINTS)
    return time.perf_counter() - start


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * NOMINAL_REF_S * 2 / (ref_before + ref_after)


def load_library():
    """Import brodmann from this checkout's src/, and from nowhere else."""
    if not (SRC / "brodmann" / "cli.py").is_file():
        sys.exit(f"bench: no brodmann sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import brodmann
    import brodmann.cli

    if Path(brodmann.__file__).resolve().parent != SRC / "brodmann":
        sys.exit(f"bench: imported brodmann from {brodmann.__file__}, not {SRC}")
    return brodmann


SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import brodmann.cli
brodmann.cli.build_parser()
print(time.perf_counter() - t)
"""


def measure_setup() -> float:
    """Median over fresh interpreters of `import brodmann.cli` + build_parser()."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        before = reference()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )  # fmt: skip
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append(nominal(seconds, before, reference()))
    return statistics.median(times)


class Runner:
    """Runs ops through brodmann.cli.main, one at a time."""

    def __init__(self, b, tracer=None):
        self.b = b
        self.tracer = tracer
        self.clears = (b.monomials.power.cache_clear, b.monomials.delete_variable.cache_clear)

    def __call__(self, index: int, op) -> tuple[int, float, float, object, str]:
        """(op index, nominal latency, wall latency, status, stdout)."""
        for clear in self.clears:
            clear()
        if self.tracer is not None:
            self.tracer.op += 1
        before = reference()
        out, err = io.StringIO(), io.StringIO()
        status: object
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = self.b.cli.main(op.argv)
            except SystemExit as exc:
                status = f"SystemExit({exc.code})"
            except Exception as exc:  # every failure is counted, none stops the run
                status = f"{type(exc).__name__}: {str(exc)[:120]}"
            latency = time.perf_counter() - start
        if status != 0 and not isinstance(status, str):
            status = f"exit {status}: {err.getvalue().strip()[:120]}"
        return index, nominal(latency, before, reference()), latency, status, out.getvalue()


def run_passes(ops, runner, seconds: float, min_ops: int, passes: int | None = None):
    """Whole passes over ops: a fixed number, or until seconds and min_ops."""
    results = []
    start = time.perf_counter()
    done = 0
    while True:
        for i, op in enumerate(ops):
            results.append(runner(i, op))
        done += 1
        if passes is not None:
            if done == passes:
                break
        elif time.perf_counter() - start >= seconds and len(results) >= min_ops:
            break
    return results, done


def op_seconds(results, nominal_time: bool = True) -> float:
    return sum(res[1] if nominal_time else res[2] for res in results)


def check_outputs(ops, results, cache: dict, verdicts: dict) -> tuple[int, int, dict]:
    """Check every completed op; returns (failed, wrong, failure reasons).

    A failed op raised, exited nonzero or gave a wrong answer; only a wrong
    answer makes the run incorrect.  Verdicts are cached per (op, output),
    since repeated passes repeat inputs.
    """
    failed = wrong = 0
    reasons: Counter = Counter()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # outputs past 4300 digits must still parse
    try:
        for index, _, _, status, out in results:
            op = ops[index]
            if status != 0:
                failed += 1
                reasons[f"{op.kind}: {status.split(':')[0]}"] += 1
                continue
            key = (index, out)
            if key not in verdicts:
                try:
                    verdicts[key] = op.check(out, cache)
                except Exception as exc:  # malformed output is a wrong answer
                    verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
            if verdicts[key] is not None:
                failed += 1
                wrong += 1
                reasons[f"{op.kind}: wrong: {verdicts[key][:200]}"] += 1
    finally:
        sys.set_int_max_str_digits(limit)
    return failed, wrong, reasons


def tail(latencies: list[float], q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(latencies)
    return ordered[ceil(q * len(ordered)) - 1]


def end_to_end(b, wl, seconds: float):
    setup_s = measure_setup()
    results, _ = run_passes(wl.ops, Runner(b), seconds, wl.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [res[1] for res in results]
    failed, wrong, reasons = check_outputs(wl.ops, results, {}, {})
    ok = len(results) - failed
    print(
        f"bench: wall-clock {ok / op_seconds(results, False):.4g} ops/s, "
        f"nominal {ok / op_seconds(results):.4g} ops/s",
        file=sys.stderr,
    )
    metrics = {
        "ops_per_s": (ok / op_seconds(results), "ops/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail(latencies, wl.tail_q), "s"),
        "ok_frac": (ok / len(results), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return results, failed, wrong, reasons, metrics


def traced(b, wl, seconds: float, spans_path: Path):
    from spans import Tracer, layer_metrics

    batches = {}
    # half the time untraced, the same passes traced: --seconds in all
    batches["untraced"], passes = run_passes(wl.ops, Runner(b), seconds / 2, 1)
    tracer = Tracer()
    tracer.install(b)
    try:
        batches["traced"], _ = run_passes(wl.ops, Runner(b, tracer), 0, 1, passes=passes)
        if wl.name == "ass_profile":
            # same ops at --jobs 2; its spans would blur the per-layer numbers
            mark = tracer.mark()
            jobs = [workloads.Op(op.kind, op.argv + ["--jobs", "2"], op.check) for op in wl.ops]
            batches["jobs2"], _ = run_passes(jobs, Runner(b, tracer), 0, 1, passes=passes)
            tracer.rewind(mark)
    finally:
        tracer.uninstall()
    tracer.finish(b)

    cache, verdicts, reasons = {}, {}, Counter()
    failed, wrong = {}, 0
    for name, batch in batches.items():
        failed[name], w, why = check_outputs(wl.ops, batch, cache, verdicts)
        wrong += w
        reasons.update(why)
    metrics = layer_metrics(tracer, passes)
    ok = len(batches["traced"]) - failed["traced"]
    ok_plain = len(batches["untraced"]) - failed["untraced"]
    traced_s = op_seconds(batches["traced"])
    metrics["trace.traced_ops_per_s"] = (ok / traced_s, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (ok_plain / op_seconds(batches["untraced"]), "ops/s")
    ratio = op_seconds(batches["jobs2"]) / traced_s if "jobs2" in batches else 0.0
    metrics["assprimes.pool.wall_ratio"] = (ratio, "ratio")
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    everything = [res for batch in batches.values() for res in batch]
    return everything, sum(failed.values()), wrong, reasons, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    b = load_library()
    inputs = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, inputs)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            outcome = traced(b, wl, args.seconds, spans_path)
        else:
            outcome = end_to_end(b, wl, args.seconds)
        results, failed, wrong, reasons, metrics = outcome
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    for why, n in sorted(reasons.items()):
        print(f"bench: {n} failed: {why}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
