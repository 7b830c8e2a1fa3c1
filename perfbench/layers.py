"""Which calls into `stochsched` the traced run wraps, and the work each
one is charged with.

A wrapper goes on every module attribute that holds the function, since
that is where callers look it up: `greedy_cost` reaches
`greedy_list.fixed_assignment_cost`, `cli` reaches `lp.solve_lp`
through `lp.`, and `Instance.__init__` is wrapped on the class.  Work
counts are computed here from arguments and return values, never read
from the program; Monte Carlo draws are counted, not traced.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Optional

from harness import Recorder


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _permitted(inst) -> list[int]:
    return [len(job.proc) - job.proc.count(None) for job in inst.jobs]


# (span name, where the function lives, work counts, counter returning them)
LAYERS: tuple[tuple[str, str, tuple[str, ...], Optional[Callable]], ...] = (
    ("core.Instance", "core.Instance.__init__", ("pairs",),
     lambda a, k, r: {"pairs": sum(_permitted(a[0]))}),
    ("core.fixed_assignment_cost", "core.fixed_assignment_cost", (), None),
    ("greedy_list.assign", "greedy_list.assign", ("probes",),
     lambda a, k, r: {"probes": sum(_permitted(_arg(a, k, 0, "inst")))}),
    ("oracle.det_opt", "oracle.det_opt", ("assignments",),
     lambda a, k, r: {"assignments": math.prod(_permitted(_arg(a, k, 0, "inst")))}),
    ("oracle.stoch_opt", "oracle.stoch_opt", (), None),
    ("oracle.gen_lower_bound", "oracle.gen_lower_bound", (), None),
    ("oracle.check_lemma5", "oracle.check_lemma5", (), None),
    ("greedy_time.estimate_cost", "greedy_time.estimate_cost", ("draws",),
     lambda a, k, r: {"draws": _arg(a, k, 2, "samples") * _arg(a, k, 0, "inst").n}),
    ("greedy_time.assign", "greedy_time.assign", (), None),
    ("greedy_time.assign_with_increases", "greedy_time.assign_with_increases", (), None),
    ("greedy_time.deterministic_schedule", "greedy_time.deterministic_schedule", (), None),
    ("greedy_time.simulate_wall_clock", "greedy_time.simulate_wall_clock", (), None),
    ("lp.build_primal", "lp.build_primal", ("variables", "constraints"),
     lambda a, k, r: {"variables": len(r.variables), "constraints": len(r.constraints)}),
    ("lp.solve_lp", "lp.solve_lp", (), None),
    ("simplex.solve_standard", "simplex.solve_standard", ("cells",),
     lambda a, k, r: {"cells": len(_arg(a, k, 1, "rows")) * len(_arg(a, k, 0, "costs"))}),
    ("dualfit.verify_certificate", "dualfit.verify_certificate", ("constraints",),
     lambda a, k, r: {"constraints": r.metrics["constraints_checked"]}),
    ("dualfit.build_list_certificate", "dualfit.build_list_certificate", (), None),
    ("dualfit.build_speed_certificate", "dualfit.build_speed_certificate", (), None),
    ("dualfit.build_online_certificate", "dualfit.build_online_certificate", (), None),
    ("cli.parse_instance", "cli.parse_instance", ("bytes",),
     lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode("utf-8"))}),
    ("cli.render", "cli.render", ("bytes",), lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    ("cli.run", "cli.run", (), None),
)

# work counts that are also reported per second of their span
RATES = {"greedy_list.assign": "probes", "greedy_time.estimate_cost": "draws"}

UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes"}

# metrics that are counts of work, so they must repeat exactly
COUNTS = tuple(f"{span}.{stat}" for span, _, counts, _ in LAYERS for stat in ("calls",) + counts)


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function at each attribute that holds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "stochsched" or name.startswith("stochsched.")]
    for span, where, _, work in LAYERS:
        module, _, rest = where.partition(".")
        owner = sys.modules[f"stochsched.{module}"]
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(span, original, work)
        if path:  # a method: the class is the only place it is looked up
            recorder.patch(owner, attr, wrapper)
            continue
        for home in modules:
            for name, value in list(vars(home).items()):
                if value is original:
                    recorder.patch(home, name, wrapper)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, _, counts, _ in LAYERS:
        for stat in ("s", "self_s", "calls") + counts:
            out.append((f"{span}.{stat}", UNITS.get(stat, "count")))
        if span in RATES:
            out.append((f"{span}.{RATES[span]}_per_s", "1/s"))
    out.append(("trace.overhead_s", "s"))
    return out


def layer_values(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Flatten one pass's recorder summary into metric values; a layer
    the pass never entered reads 0."""
    values = {}
    for span, _, counts, _ in LAYERS:
        row = summary.get(span, {})
        for stat in ("s", "self_s", "calls") + counts:
            values[f"{span}.{stat}"] = row.get(stat, 0)
        if span in RATES:
            seconds = row.get("s", 0)
            values[f"{span}.{RATES[span]}_per_s"] = row.get(RATES[span], 0) / seconds if seconds else 0.0
    return values
