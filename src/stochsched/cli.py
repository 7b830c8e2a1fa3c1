"""Command-line front end: instance I/O, experiment runs, report output.

Instances travel as versioned JSON (`SCHED v1`) with rationals encoded
as "p/q" strings; float literals are rejected outright so results never
depend on parsing luck.  Reports render as human text, a flat CSV
table, or JSON mirroring the Report structure.  Output bytes are a pure
function of (instance, flags, seed).

Exit codes are stable: 0 all checks passed, 1 a check failed, 2 schema
problem, 3 unschedulable job, 4 LP infeasible/unbounded/horizon too
small, 5 enumeration limits exceeded, 6 other usage errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import dualfit, greedy_list, greedy_time, lp, oracle
from .core import Instance, Job, ProcDist, as_fraction, max_scv
from .errors import (
    BadMError,
    HorizonTooSmallError,
    InfeasibleError,
    SchedError,
    SchemaError,
    TooLargeError,
    UnboundedError,
    UnschedulableError,
    ZeroMeanError,
)
from .report import Report, jsonable

__all__ = ["RunConfig", "parse_instance", "emit_instance", "run", "render", "main"]

FORMATS = ("human", "csv", "json")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_UNSCHEDULABLE = 3
EXIT_LP = 4
EXIT_TOO_LARGE = 5
EXIT_USAGE = 6


# ---------------------------------------------------------------- instance I/O

def _field(row: dict, context: str, key: str, kind: type):
    if key not in row:
        raise SchemaError(f"{context}: missing field {key!r}")
    value = row[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SchemaError(f"{context}.{key}: expected an integer, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise SchemaError(f"{context}.{key}: expected an array")
    return value


def _rational(value, context: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{context}: rationals are integers or 'p/q' strings, got {value!r}")
    try:
        return as_fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{context}: cannot parse rational {value!r}") from None


def parse_instance(text: str) -> Instance:
    """Strict reader for the `SCHED v1` schema."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError("top level must be an object")
    if payload.get("format") != "SCHED v1":
        raise SchemaError("missing or wrong format marker, expected 'SCHED v1'")
    extra = set(payload) - {"format", "machines", "jobs"}
    if extra:
        raise SchemaError(f"unknown top-level fields {sorted(extra)}")
    machines = _field(payload, "instance", "machines", int)
    if machines < 1:
        raise SchemaError("machines must be at least 1")
    rows = _field(payload, "instance", "jobs", list)
    if not rows:
        raise SchemaError("instance must have at least one job")
    jobs = []
    for pos, row in enumerate(rows):
        context = f"jobs[{pos}]"
        if not isinstance(row, dict):
            raise SchemaError(f"{context}: expected an object")
        extra = set(row) - {"id", "w", "r", "proc"}
        if extra:
            raise SchemaError(f"{context}: unknown fields {sorted(extra)}")
        job_id = _field(row, context, "id", int)
        weight = _rational(_field(row, context, "w", object), f"{context}.w")
        release = _field(row, context, "r", int)
        proc_rows = _field(row, context, "proc", list)
        dists: list[Optional[ProcDist]] = []
        for m, entry in enumerate(proc_rows):
            where = f"{context}.proc[{m}]"
            if entry is None:
                dists.append(None)
                continue
            if not isinstance(entry, list) or not entry:
                raise SchemaError(f"{where}: expected null or a nonempty array of [value, prob]")
            pmf = {}
            for pair in entry:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SchemaError(f"{where}: entries are [value, prob] pairs")
                value, prob = pair
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise SchemaError(f"{where}: support value {value!r} must be a "
                                      "nonnegative integer")
                if value in pmf:
                    raise SchemaError(f"{where}: duplicate support value {value}")
                pmf[value] = _rational(prob, where)
            try:
                dists.append(ProcDist(pmf))
            except SchemaError:
                raise
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
        try:
            jobs.append(Job(job_id, weight, release, tuple(dists)))
        except ValueError as exc:
            raise SchemaError(f"{context}: {exc}") from None
    try:
        return Instance(machines, jobs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def emit_instance(inst: Instance) -> str:
    """Canonical text: `parse_instance(emit_instance(x)) == x`, and equal
    instances produce identical bytes."""
    payload = {
        "format": "SCHED v1",
        "machines": inst.machines,
        "jobs": [
            {
                "id": job.id,
                "w": str(job.weight),
                "r": job.release,
                "proc": [None if d is None else [[v, str(p)] for v, p in d.pmf]
                         for d in job.proc],
            }
            for job in inst.jobs
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# ------------------------------------------------------------------ subcommands

@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    instance: Optional[Instance] = None
    f: Fraction = Fraction(2)
    samples: int = 10000
    seed: int = 0
    horizon: Optional[int] = None
    fmt: str = "human"
    mode: str = "forced-idle"
    variant: str = "S"
    k: int = 2
    export: Optional[str] = None

    def __post_init__(self):
        if self.f < 1:
            raise ValueError(f"speed factor must be >= 1, got {self.f}")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")


def _run_list(config: RunConfig) -> Report:
    inst = config.instance
    assignment, increases = greedy_list.assign(inst)
    alg = greedy_list.greedy_cost(inst)
    cert = dualfit.build_list_certificate(inst)
    feasibility = dualfit.check_list_feasibility(inst, cert)
    speed = dualfit.check_speedf(inst, config.f)
    optimum = lp.solve_lp(lp.build_primal(inst, "P", config.horizon)).value
    factor = config.f * config.f / (config.f - 1) if config.f > 1 else None
    chain_ok = factor is not None and alg <= factor * optimum
    weak_ok = speed.metrics["objective_actual"] <= optimum
    return Report(
        name="list",
        passed=feasibility.passed and speed.passed and chain_ok and weak_ok,
        metrics={
            "alg_value": alg,
            "alpha_sum": cert.alpha_sum,
            "f": config.f,
            "lp_value": optimum,
            "chain_factor": factor,
            "alg_within_chain": chain_ok,
            "weak_duality_ok": weak_ok,
        },
        checks=(feasibility, speed),
        rows=tuple({"job": job.id, "machine": assignment.machine_of(job.id),
                    "increase": increases[job.id - 1]} for job in inst.jobs),
    )


def _run_time(config: RunConfig) -> Report:
    inst = config.instance
    assignment = greedy_time.assign(inst, config.f)
    det_cost = greedy_time.deterministic_cost(inst, config.f)
    estimate = greedy_time.estimate_cost(inst, config.f, config.samples,
                                         config.seed, config.mode)
    bound = oracle.check_lemma5(inst, config.f, config.samples, config.seed)
    rows = []
    for job in inst.jobs:
        machine = assignment.machine_of(job.id)
        rows.append({
            "job": job.id,
            "machine": machine,
            "modified_release": greedy_time.modified_release(inst, job.id, machine, config.f),
            "mean_completion": estimate.per_job_mean[job.id - 1],
            "ci95": estimate.per_job_ci95[job.id - 1],
        })
    return Report(
        name="time",
        passed=bound.passed,
        metrics={
            "f": config.f,
            "mode": config.mode,
            "det_cost": det_cost,
            "estimate_mean": estimate.mean,
            "estimate_ci95": estimate.ci95,
            "samples": config.samples,
            "seed": config.seed,
        },
        checks=(bound,),
        rows=tuple(rows),
    )


def _run_lp(config: RunConfig) -> Report:
    inst = config.instance
    model = lp.build_primal(inst, config.variant, config.horizon)
    if config.export is not None:
        text = lp.export_lp(model)
        if config.export == "-":
            sys.stdout.write(text)
        else:
            with open(config.export, "w", encoding="utf-8") as fh:
                fh.write(text)
    solution = lp.solve_lp(model)
    metrics = {
        "variant": config.variant,
        "horizon": model.horizon,
        "value": solution.value,
        "variables": len(model.variables),
        "constraints": len(model.constraints),
    }
    if config.export is not None:
        metrics["exported"] = config.export
    return Report(name="lp", passed=True, metrics=metrics,
                  rows=tuple({"variable": name, "value": value}
                             for name, value in solution.primal.items() if value != 0))


def _run_verify(config: RunConfig) -> Report:
    inst = config.instance
    cert = dualfit.build_list_certificate(inst)
    checks = (
        dualfit.check_list_feasibility(inst, cert),
        dualfit.check_speedf(inst, config.f),
        dualfit.check_online(inst, config.f, solve=True, horizon=config.horizon),
    )
    return Report(
        name="verify",
        passed=all(c.passed for c in checks),
        metrics={"f": config.f},
        checks=checks,
        rows=tuple({"check": c.name, "passed": c.passed, "min_slack": c.min_slack,
                    "violations": len(c.violations)} for c in checks),
    )


def _run_oracle(config: RunConfig) -> Report:
    inst = config.instance
    deterministic = all(d is None or d.is_point for job in inst.jobs for d in job.proc)
    opt = oracle.det_opt(inst) if deterministic else oracle.stoch_opt(inst)
    alg = greedy_list.greedy_cost(inst)
    delta = max_scv(inst)
    factor = 4 + 2 * delta
    within = alg <= factor * opt
    return Report(
        name="oracle",
        passed=within,
        metrics={
            "method": "exhaustive" if deterministic else "adaptive-dp",
            "opt_value": opt,
            "alg_value": alg,
            "ratio": alg / opt,
            "delta": delta,
            "bound_factor": factor,
            "within_bound": within,
        },
    )


def _run_lowerbound(config: RunConfig) -> Report:
    if config.k < 1:
        raise ValueError("k must be at least 1")
    if config.k > oracle.LOWER_BOUND_MAX_K:
        # fail before grinding through the affordable prefix
        raise TooLargeError(
            f"k is capped at {oracle.LOWER_BOUND_MAX_K} (machine count grows as lcm)")
    rows = []
    ratios = []
    for k in range(1, config.k + 1):
        greedy, opt, ratio = oracle.lower_bound_ratio(k)
        ratios.append(ratio)
        rows.append({"k": k, "greedy": greedy, "opt": opt, "ratio": ratio,
                     "ratio_float": float(ratio)})
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    below_four = all(r < 4 for r in ratios)
    return Report(
        name="lowerbound",
        passed=increasing and below_four,
        metrics={"k": config.k, "strictly_increasing": increasing,
                 "below_four": below_four},
        rows=tuple(rows),
    )


def _run_appendix(config: RunConfig) -> Report:
    cases = 500
    b1, moments = oracle.identity_fuzz(random.Random(f"{config.seed}:appendix"), cases)
    threshold = Fraction(8)
    processes = [
        oracle.constant_process(threshold),
        oracle.doubling_process(threshold),
        oracle.staged_process(threshold),
        oracle.heavy_process(threshold),
    ]
    checks = (b1, moments, *(oracle.check_b2(p, config.samples, config.seed)
                             for p in processes))
    return Report(
        name="appendix",
        passed=all(c.passed for c in checks),
        metrics={"cases": cases, "trials": config.samples, "seed": config.seed},
        checks=checks,
        rows=tuple({"check": c.name, "passed": c.passed} for c in checks),
    )


_RUNNERS = {
    "list": _run_list,
    "time": _run_time,
    "lp": _run_lp,
    "verify": _run_verify,
    "oracle": _run_oracle,
    "lowerbound": _run_lowerbound,
    "appendix": _run_appendix,
}


def run(config: RunConfig) -> Report:
    """Execute one subcommand; `passed` decides exit code 0 versus 1."""
    return _RUNNERS[config.subcommand](config)


# -------------------------------------------------------------------- rendering

def _human_value(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value)
        try:
            return f"{value} ({float(value):.6g})"
        except OverflowError:  # beyond float range: the exact value alone
            return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _csv_value(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _render_human(report: Report) -> str:
    lines = [f"{report.name}: {'PASS' if report.passed else 'FAIL'}"]
    for key, value in report.metrics.items():
        lines.append(f"  {key}: {_human_value(value)}")
    if report.min_slack is not None:
        lines.append(f"  min_slack: {_human_value(report.min_slack)}")
    for violation in report.violations[:5]:
        lines.append(f"  violated {violation.constraint}: "
                     f"{_human_value(violation.lhs)} > {_human_value(violation.rhs)}")
    if report.checks:
        lines.append("  checks:")
        for child in report.checks:
            mark = "PASS" if child.passed else "FAIL"
            extras = []
            if child.min_slack is not None:
                extras.append(f"min_slack={_human_value(child.min_slack)}")
            if child.violations:
                extras.append(f"violations={len(child.violations)}")
            suffix = f" ({', '.join(extras)})" if extras else ""
            lines.append(f"    [{mark}] {child.name}{suffix}")
            for key, value in child.metrics.items():
                lines.append(f"        {key}: {_human_value(value)}")
    if report.rows:
        columns = list(report.rows[0])
        table = [columns] + [[_human_value(row[c]) for c in columns] for row in report.rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
        for line in table:
            lines.append(("  " + "  ".join(v.ljust(w) for v, w in zip(line, widths))).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if report.rows:
        columns = list(report.rows[0])
        writer.writerow(columns)
        writer.writerows([_csv_value(row[c]) for c in columns] for row in report.rows)
    else:
        writer.writerow(["key", "value"])
        writer.writerow(["passed", _csv_value(report.passed)])
        writer.writerows([key, _csv_value(value)] for key, value in report.metrics.items())
    return buffer.getvalue()


def render(report: Report, fmt: str) -> str:
    if fmt == "human":
        return _render_human(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "json":
        return json.dumps(jsonable(report), indent=2) + "\n"
    raise ValueError(f"format must be one of {FORMATS}")


# ------------------------------------------------------------------ entry point

def _build_parser() -> argparse.ArgumentParser:
    """Options carry no defaults: one left out never reaches the
    namespace, so RunConfig's field defaults apply."""
    parser = argparse.ArgumentParser(
        prog="stochsched",
        description="Greedy scheduling policies for stochastic jobs on unrelated "
                    "machines, with LP relaxations and verifiable bound certificates.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, summary, instance=True, f=False, samples=False, horizon=False, mode=False):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if instance:
            p.add_argument("instance", help="instance file (SCHED v1 JSON), or - for stdin")
        if f:
            p.add_argument("--f", help="speed factor, a rational like 2 or 5/2")
        if samples:
            p.add_argument("--samples", type=int, help="Monte Carlo replications")
            p.add_argument("--seed", type=int, help="RNG seed")
        if horizon:
            p.add_argument("--horizon", type=int, help="override the time-indexed horizon")
        if mode:
            p.add_argument("--mode", choices=greedy_time.MODES,
                           help="idle for the expected duration, or stretch short runs")
        p.add_argument("--format", choices=FORMATS, dest="fmt")
        return p

    add("list", "arrival-order greedy, certificates, LP cross-check", f=True, horizon=True)
    add("time", "release-aware greedy with Monte Carlo estimate", f=True, samples=True,
        mode=True)
    p = add("lp", "build, solve, optionally export one LP variant", horizon=True)
    p.add_argument("--variant", choices=lp.VARIANTS)
    p.add_argument("--export", metavar="PATH",
                   help="write the model text here ('-' for stdout)")
    add("verify", "build and verify all bound certificates", f=True, horizon=True)
    add("oracle", "exhaustive or adaptive optimum on a tiny instance")
    p = add("lowerbound", "tightness family table up to k", instance=False)
    p.add_argument("k", type=int)
    add("appendix", "identity fuzz and stopped-sum simulations", instance=False,
        samples=True)
    return parser


def _load_instance(path: str) -> Instance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _speed_factor(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"speed factor {text!r} has a zero denominator") from None


def _config_from(args: argparse.Namespace) -> RunConfig:
    settings = dict(vars(args))
    if "instance" in settings:
        settings["instance"] = _load_instance(settings["instance"])
    if "f" in settings:
        settings["f"] = _speed_factor(settings["f"])
    return RunConfig(**settings)


# first match wins, so subclasses come before their bases
_EXIT_CODES = (
    ((SchemaError, ZeroMeanError), EXIT_SCHEMA),  # SchemaError includes ProbSumError
    ((UnschedulableError,), EXIT_UNSCHEDULABLE),
    ((HorizonTooSmallError, InfeasibleError, UnboundedError), EXIT_LP),
    ((TooLargeError, BadMError), EXIT_TOO_LARGE),
    ((SchedError, ValueError, OSError), EXIT_USAGE),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from(args)
        report = run(config)
        sys.stdout.write(render(report, config.fmt))
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED
    except (SchedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
