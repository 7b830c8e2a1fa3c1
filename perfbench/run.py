"""Benchmark of stochsched: one workload per process, judged and timed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

builds the workload's seeded pass of verdicts, then judges the whole
pass again and again until `--seconds` have elapsed.  Every verdict's
bound and golden digest is checked on every repetition.  It prints a
summary and, as the last line, one JSON object.

Times are CPU seconds of this process (`harness.clock`), so that the
stretches in which a shared host runs other tenants instead of this one
are not charged to the program.  With `--trace 0` it reports the
end-to-end metrics.  Each verdict is timed on every repetition and
figures at its fastest one.  The latency percentiles are taken over the
pass's verdicts, and throughput is the pass's verdict count over the
sum of their times.  Set-up is the median of SETUP_REPEATS set-ups,
each a fresh import of stochsched and a build of the seeded inputs:
one before the timed phase and the rest spread over it.

With `--trace 1` it judges the pass once to warm up, then alternates
untraced and traced repetitions of it until `--seconds` have elapsed
in all.  It reports the per-layer metrics of `layers.LAYERS` per pass
(medians over the traced repetitions) and `trace.overhead_s`, the
traced pass time minus the untraced one.

Without `--workload` it runs every workload, each in a fresh process,
untraced and then traced.  `--record-golden` rewrites the golden digests
from every member of each workload's input universe, and
`--record-strata` the cost order (fastest of STRATA_REPEATS rounds over
the universe, cheapest first) of the members a workload draws by
stratum.  A new cost order changes what every seed judges, so it is
recorded with the benchmark, not again when the program gets faster.
Only the standard library and `src/stochsched` of this checkout are
used; SCHED_THREADS is removed from the environment, so Monte Carlo runs
on the calling thread.
"""
import argparse
import functools
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

SETUP_REPEATS = 5  # set-ups per run; the median is reported
STRATA_REPEATS = 5
ALL = ("sweep", "tightness", "cli-pipeline")
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import stochsched from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stochsched
    except ImportError as exc:
        raise SystemExit(f"error: cannot import stochsched from {src}: {exc}")
    if Path(stochsched.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: stochsched came from {stochsched.__file__}, not {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden digests of the chosen workload, or of all")
    parser.add_argument("--record-strata", action="store_true",
                        help="rewrite the cost order of the chosen workload, or of all")
    return parser.parse_args(argv)


def _load_golden(workload: str) -> dict[str, str]:
    with open(GOLDEN / f"{workload}.txt", encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def _program_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "workloads" or name.partition(".")[0] == "stochsched"}


def _set_up(workload: str, seed: int, workdir: str):
    """One set-up: import stochsched (and the workloads that use it)
    afresh and build the seeded inputs.  Returns the inputs and the
    set-up seconds."""
    for name in _program_modules():
        del sys.modules[name]
    gc.collect()  # so that no set-up pays for its predecessor's garbage
    start = harness.clock()
    workloads = importlib.import_module("workloads")
    items = workloads.WORKLOADS[workload][0](seed, workdir)
    return items, harness.clock() - start


def _set_up_again(workload: str, seed: int, workdir: str) -> float:
    """Time one more set-up, then restore the modules the timed inputs
    were built with, so that every later call resolves to them."""
    kept = _program_modules()
    _, seconds = _set_up(workload, seed, workdir)
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


def _run_pass(items, tally) -> float:
    start = harness.clock()
    for key, verdict in items:
        tally.judge(key, verdict)
    return harness.clock() - start


def _end_to_end(items, tally, seconds: float, setups: list[float], set_up_again):
    """Judge passes for `seconds`.  The set-ups beyond the first are
    spread over the run, since the host's speed drifts over seconds and
    consecutive set-ups would all land in one stretch of it."""
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        _run_pass(items, tally)
        passes += 1
        if len(setups) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setups.append(set_up_again())
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_again())
    best = list(tally.best.values())
    n = len(best)
    pct = harness.tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": n / sum(best),
        "verdict_p50_ms": harness.percentile(best, 50) * 1e3,
        "verdict_tail_ms": harness.percentile(best, pct or 50) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "verdicts_per_s": (f"{n} verdicts at their fastest of {passes} passes; "
                           f"{tally.attempted} judged in {time.perf_counter() - start:.2f} s wall"),
        "verdict_tail_ms": (f"p{pct:g}, {harness.beyond(n, pct)} of {n} verdicts beyond"
                            if pct else f"p50: {n} verdicts leave fewer than "
                                        f"{harness.TAIL_MIN_BEYOND} beyond any percentile"),
    }
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, notes


def _per_layer(items, tally, seconds: float):
    recorder = harness.Recorder()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    _run_pass(items, tally)  # warm-up: the first pass fills the program's cached properties
    while not traced or time.perf_counter() - start < seconds:
        if len(traced) % 2:  # alternate which side goes first, so drift cancels
            plain.append(_run_pass(items, tally))
        layers.install(recorder)
        try:
            traced.append(_run_pass(items, tally))
        finally:
            recorder.unpatch()
        summaries.append(layers.layer_values(recorder.summary()))
        recorder.spans.clear()
        if len(plain) < len(traced):
            plain.append(_run_pass(items, tally))
    for name in layers.COUNTS:
        seen = {s[name] for s in summaries}
        if len(seen) > 1:
            raise SystemExit(f"error: work count {name} differs between passes: {sorted(seen)}")
    units = dict(layers.metric_names())
    metrics = {name: (statistics.median(s[name] for s in summaries), units[name])
               for name in units if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    notes = {"trace.overhead_s": f"median traced pass {statistics.median(traced):.3f} s, "
                                 f"untraced {statistics.median(plain):.3f} s, "
                                 f"{len(traced)} of each; layer figures are per pass"}
    return metrics, notes


def _report(workload, args, metrics, notes, tally, threads) -> None:
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"SCHED_THREADS={'unset' if threads is None else threads} (removed for the run)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:<44} {value:>16.6g} {unit:<6}" + (f"  {note}" if note else ""))
    print(f"  {'failed_share':<44} {tally.failed_share:>16.6g} {'ratio':<6}  "
          f"{tally.failed} of {tally.attempted} verdicts failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def _record_golden(names) -> int:
    import workloads

    for workload in names:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            lines = []
            for key, verdict in workloads.WORKLOADS[workload][1](workdir):
                ok, text = verdict()
                if not ok:
                    print(f"error: {workload} verdict {key} fails its bound", file=sys.stderr)
                    return 1
                lines.append(f"{key} {harness.digest(text)}\n")
        (GOLDEN / f"{workload}.txt").write_text("".join(lines), encoding="utf-8")
        print(f"{workload}: {len(lines)} digests")
    return 0


def _record_strata(names) -> int:
    import workloads

    for workload in names:
        prefix = workloads.STRATIFIED.get(workload)
        if prefix is None:
            continue
        tally = harness.Tally(_load_golden(workload))
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            items = [(key, verdict) for key, verdict in workloads.WORKLOADS[workload][1](workdir)
                     if key.startswith(prefix)]
            for _ in range(STRATA_REPEATS):
                _run_pass(items, tally)
        if tally.failed:
            print(f"error: {workload}: {tally.failed} verdicts failed", file=sys.stderr)
            return 1
        cost = tally.best
        order = sorted(cost, key=lambda key: (cost[key], key))
        (workloads.STRATA / f"{workload}.txt").write_text(
            "".join(f"{key}\n" for key in order), encoding="utf-8")
        print(f"{workload}: {len(order)} members, {cost[order[0]] * 1e3:.2f} "
              f"to {cost[order[-1]] * 1e3:.2f} ms")
    return 0


def _run_all(args) -> int:
    results = {}
    for workload in ALL:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"error: {workload} trace {trace} exited {out.returncode}", file=sys.stderr)
                return 1
            *summary, last = out.stdout.splitlines()
            print("\n".join(summary))
            results[f"{workload}/trace{trace}"] = json.loads(last)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    threads = os.environ.pop("SCHED_THREADS", None)
    _import_program()

    if args.record_golden:
        return _record_golden([args.workload] if args.workload else ALL)
    if args.record_strata:
        return _record_strata([args.workload] if args.workload else ALL)
    if args.workload is None:
        return _run_all(args)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        items, setup = _set_up(args.workload, args.seed, workdir)
        tally = harness.Tally(_load_golden(args.workload))
        if args.trace:
            metrics, notes = _per_layer(items, tally, args.seconds)
        else:
            again = functools.partial(_set_up_again, args.workload, args.seed, workdir)
            metrics, notes = _end_to_end(items, tally, args.seconds, [setup], again)
    _report(args.workload, args, metrics, notes, tally, threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
