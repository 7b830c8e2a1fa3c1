"""Command-line front end: the argument parser, experiment runs, exit codes.

Each subcommand reads its instance with `core.parse_instance` (the
`SCHED v1` reader), runs into a `Report`, and writes it with
`report.render`.  `--f` follows `core`'s rational grammar.  Output
bytes are a pure function of (instance, flags, seed).

Exit codes are stable: 0 all checks passed, 1 a check failed, 2 schema
problem, 3 unschedulable job, 4 LP infeasible/unbounded/horizon too
small, 5 enumeration limits exceeded, 6 other usage errors.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import dualfit, greedy_list, greedy_time, lp, oracle
# emit_instance is not used here: perfbench/workloads.py writes its
# instance files through `cli.emit_instance`
from .core import Instance, as_fraction, emit_instance, max_scv, parse_instance  # noqa: F401
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
from .report import FORMATS, Report, render

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_UNSCHEDULABLE = 3
EXIT_LP = 4
EXIT_TOO_LARGE = 5
EXIT_USAGE = 6


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


def _list_checks(inst: Instance, f: Fraction) -> tuple[dualfit.ListRun, Report, Report]:
    """The list greedy run once, and the list and speed-f checks on it."""
    run = dualfit.list_run(inst)
    return run, dualfit.check_list_feasibility(inst, run), dualfit.check_speedf(inst, f, run)


def _run_list(config: RunConfig) -> Report:
    inst = config.instance
    run, feasibility, speed = _list_checks(inst, config.f)
    assignment, increases = run.greedy
    alg = run.cost
    optimum = lp.optimum(inst, "P", config.horizon)
    factor = config.f * config.f / (config.f - 1)  # _list_checks has refused f < 2
    chain_ok = alg <= factor * optimum
    weak_ok = speed.metrics["objective_actual"] <= optimum
    return Report(
        name="list",
        passed=feasibility.passed and speed.passed and chain_ok and weak_ok,
        metrics={
            "alg_value": alg,
            "alpha_sum": feasibility.metrics["alpha_sum"],
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
    _, det_cost = greedy_time.deterministic_schedule(inst, config.f, assignment)
    estimate = greedy_time.estimate_cost(inst, config.f, config.samples, config.seed,
                                         assignment, config.mode)
    # the bound judges the forced-idle policy, so a max-proc run draws
    # that policy's estimate for it; on point masses the bound is exact
    # and reads no estimate
    forced = (estimate if config.mode == "forced-idle" or inst.deterministic
              else greedy_time.estimate_cost(inst, config.f, config.samples, config.seed,
                                             assignment))
    bound = oracle.check_lemma5(inst, config.f, assignment, forced)
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
    """The three certificate checks; the online one's lower bound is
    compared with the P_o optimum, which chains into det_cost <=
    3f/(f-1) times that optimum."""
    inst, f = config.instance, config.f
    _, feasibility, speed = _list_checks(inst, f)
    online = dualfit.check_online(inst, f)
    optimum = lp.optimum(inst, "P_o", config.horizon)
    bound_ok = online.metrics["lower_bound"] <= optimum
    chain_ok = online.metrics["det_cost"] <= 3 * f / (f - 1) * optimum
    online = replace(online, passed=online.passed and bound_ok and chain_ok, metrics={
        **online.metrics, "lp_value": optimum, "lower_bound_le_lp": bound_ok,
        "cost_within_chain": chain_ok})
    checks = (feasibility, speed, online)
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
    opt = oracle.det_opt(inst) if inst.deterministic else oracle.stoch_opt(inst)
    alg = greedy_list.greedy_cost(inst)
    delta = max_scv(inst)
    factor = 4 + 2 * delta
    within = alg <= factor * opt
    return Report(
        name="oracle",
        passed=within,
        metrics={
            "method": "exhaustive" if inst.deterministic else "adaptive-dp",
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
    last = oracle.lower_bound_ratio(config.k)  # first: past the cap, 1..k-1 never run
    rows = []
    ratios = []
    for k in range(1, config.k + 1):
        greedy, opt, ratio = oracle.lower_bound_ratio(k) if k < config.k else last
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
    checks = oracle.appendix_checks(random.Random(f"{config.seed}:appendix"), cases,
                                    config.samples, config.seed)
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


# ------------------------------------------------------------------ entry point

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Options carry no defaults: one left out never reaches the
    namespace, so RunConfig's field defaults apply.  Built on the first
    `main` call and reused: parsing leaves the parser unchanged."""
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
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"instance is not UTF-8 text: {exc}") from None
    return parse_instance(text)


def _config_from(args: argparse.Namespace) -> RunConfig:
    settings = dict(vars(args))
    if "instance" in settings:
        settings["instance"] = _load_instance(settings["instance"])
    if "f" in settings:  # by the rational grammar of `core.as_fraction`
        try:
            settings["f"] = as_fraction(settings["f"])
        except ValueError as exc:
            raise ValueError(f"speed factor --f {exc}") from None
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error code, 2, is the schema code here
        if exc.code != 2:  # --help
            raise
        return EXIT_USAGE
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
