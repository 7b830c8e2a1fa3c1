"""Dual certificates read off greedy runs, and their feasibility checks.

A certificate is a pair of tables: `alpha` holds the score each job was
accepted at, `beta` the weight still unfinished at each integer slot of
a reference schedule.  Scaled down by the certificate's divisor pair,
the tables satisfy the pricing constraints of the time-indexed dual, so
their objective lower-bounds the LP optimum; that turns a greedy trace
into a machine-checkable performance proof.

Three kinds:

  list    reference schedule = expected-duration run of the list greedy
  speed   same tables read on a clock running f times faster (f >= 2)
  online  scores from the release-aware greedy, schedule from its
          deterministic speed-f run

All arithmetic is exact; the verifier covers every slot up to one past
the last nonzero beta entry and the remaining tail by monotonicity.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import greedy_list, greedy_time, lp
from .core import FractionLike, Instance, as_fraction
from .errors import RequiresFGeq2Error, SchemaError
from .report import Report, Violation

__all__ = [
    "KINDS",
    "DualCertificate",
    "build_list_certificate",
    "build_speed_certificate",
    "build_online_certificate",
    "verify_certificate",
    "check_list_feasibility",
    "check_speedf",
    "check_online",
    "perturbed",
    "serialize_certificate",
    "parse_certificate",
]

KINDS = ("list", "speed", "online")


@dataclass(frozen=True)
class DualCertificate:
    kind: str
    f: Fraction
    alpha: dict[int, Fraction]
    beta: dict[tuple[int, int], Fraction]
    # divide alpha by scale[0] and beta by scale[1] to get the point
    # that is feasible for the corresponding dual LP
    scale: tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if any(v < 0 for v in self.alpha.values()):
            raise ValueError("alpha values must be nonnegative")
        if any(v < 0 for v in self.beta.values()):
            raise ValueError("beta values must be nonnegative")
        if any(v <= 0 for v in self.scale):
            raise ValueError("scale entries must be positive")

    @property
    def alpha_sum(self) -> Fraction:
        return sum(self.alpha.values(), Fraction(0))

    @property
    def beta_sum(self) -> Fraction:
        return sum(self.beta.values(), Fraction(0))

    def beta_at(self, machine: int, slot: int) -> Fraction:
        return self.beta.get((machine, slot), Fraction(0))

    def objective(self) -> Fraction:
        """Value of the scaled-down point in the dual objective."""
        return self.alpha_sum / self.scale[0] - self.beta_sum / self.scale[1]


def _machine_completions(inst: Instance,
                         assignment: greedy_list.Assignment) -> dict[int, list[tuple[Fraction, Fraction]]]:
    """Per machine: (completion, weight) rows of the expected-duration
    schedule, jobs served in priority order."""
    from .core import machine_order

    out: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for machine in range(1, inst.machines + 1):
        clock = Fraction(0)
        rows = []
        for job_id in machine_order(inst, machine, assignment.jobs_on(machine)):
            clock += inst.mean(machine, job_id)
            rows.append((clock, inst.job(job_id).weight))
        out[machine] = rows
    return out


def _beta_table(completions: Mapping[int, list[tuple[Fraction, Fraction]]],
                stretch: Fraction = Fraction(1)) -> dict[tuple[int, int], Fraction]:
    """beta[(machine, s)] = weight completing strictly after stretch*s."""
    beta: dict[tuple[int, int], Fraction] = {}
    for machine, rows in completions.items():
        if not rows:
            continue
        makespan = max(c for c, _ in rows)
        s = 0
        while stretch * s < makespan:
            beta[(machine, s)] = sum((w for c, w in rows if c > stretch * s), Fraction(0))
            s += 1
    return beta


def build_list_certificate(inst: Instance) -> DualCertificate:
    """Tables of the list greedy: accepted scores and the unfinished
    weight per slot of its expected-duration schedule.  Halving both
    gives a feasible dual point."""
    assignment, increases = greedy_list.assign(inst)
    alpha = {job.id: increases[job.id - 1] for job in inst.jobs}
    beta = _beta_table(_machine_completions(inst, assignment))
    return DualCertificate("list", Fraction(1), alpha, beta, (Fraction(2), Fraction(2)))


def build_speed_certificate(inst: Instance, f: FractionLike) -> DualCertificate:
    """List-greedy tables reread on a clock running f times faster.

    Scores shrink by f; the unfinished-weight table is sampled at times
    f*s of the unsped schedule.  For f >= 2 the pair (alpha, beta/f) is
    dual feasible without any halving.
    """
    f = as_fraction(f)
    if f < 2:
        raise RequiresFGeq2Error(f"speed certificates need f >= 2, got {f}")
    assignment, increases = greedy_list.assign(inst)
    alpha = {job.id: increases[job.id - 1] / f for job in inst.jobs}
    beta = _beta_table(_machine_completions(inst, assignment), stretch=f)
    return DualCertificate("speed", f, alpha, beta, (Fraction(1), f))


def build_online_certificate(inst: Instance, f: FractionLike) -> DualCertificate:
    """Certificate of the release-aware greedy at speed f.

    alpha is each job's accepted score divided by f; beta counts, per
    integer slot, the weight of jobs assigned to the machine whose
    deterministic speed-f completion lies strictly later -- jobs not yet
    released at the slot included.  The feasible dual point is
    (alpha/3, beta/(3f)).
    """
    f = as_fraction(f)
    if f < 2:
        raise RequiresFGeq2Error(f"online certificates need f >= 2, got {f}")
    assignment, increases = greedy_time.assign_with_increases(inst, f)
    alpha = {job.id: increases[job.id - 1] / f for job in inst.jobs}
    trace, _ = greedy_time.deterministic_schedule(inst, f, assignment)
    completions: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for row in trace.jobs:
        completions.setdefault(row.machine, []).append(
            (row.completed, inst.job(row.job).weight))
    beta = _beta_table(completions)
    return DualCertificate("online", f, alpha, beta, (Fraction(3), 3 * f))


def _constraint(cert: DualCertificate, inst: Instance, job_id: int, machine: int,
                s: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the certificate's pricing inequality at one slot."""
    job = inst.job(job_id)
    mean = job.dist(machine).mean
    w = job.weight
    a = cert.alpha[job_id]
    b = cert.beta_at(machine, s)
    if cert.kind == "list":
        return a / mean, b + w * (Fraction(s) / mean + 1)
    if cert.kind == "speed":
        return a / mean, b / cert.f + w * (Fraction(s) / mean + Fraction(1, 2))
    lhs = cert.f * a / mean
    rhs = b + 3 * cert.f * w * ((s + Fraction(1, 2)) / mean + Fraction(1, 2))
    return lhs, rhs


def verify_certificate(inst: Instance, cert: DualCertificate) -> Report:
    """Scan every pricing inequality the certificate must satisfy.

    Slots run from the job's release (online kind) or zero up to one
    past the machine's last nonzero beta entry; beyond that beta is zero
    and the right side only grows with s, so the scan is complete.
    """
    last: dict[int, int] = {}
    for (machine, s), value in cert.beta.items():
        if value > 0:
            last[machine] = max(last.get(machine, -1), s)
    violations = []
    min_slack: Optional[Fraction] = None
    checked = 0
    for job in inst.jobs:
        lo_base = job.release if cert.kind == "online" else 0
        for machine in job.permitted:
            hi = max(last.get(machine, -1) + 1, lo_base)
            for s in range(lo_base, hi + 1):
                lhs, rhs = _constraint(cert, inst, job.id, machine, s)
                slack = rhs - lhs
                checked += 1
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                if slack < 0:
                    violations.append(Violation(f"price_{machine}_{job.id}_{s}", lhs, rhs))
    return Report(
        name=f"feasibility[{cert.kind}]",
        passed=not violations,
        metrics={
            "kind": cert.kind,
            "f": cert.f,
            "alpha_sum": cert.alpha_sum,
            "beta_sum": cert.beta_sum,
            "constraints_checked": checked,
        },
        violations=tuple(violations),
        min_slack=min_slack,
    )


def check_list_feasibility(inst: Instance, cert: DualCertificate) -> Report:
    """Feasibility scan plus the bookkeeping identities of the list run."""
    if cert.kind != "list":
        raise ValueError(f"expected a list certificate, got kind {cert.kind!r}")
    report = verify_certificate(inst, cert)
    alg = greedy_list.greedy_cost(inst)
    return dataclasses.replace(report, name="list-certificate", metrics={
        **report.metrics, "alg_value": alg, "alpha_matches_alg": cert.alpha_sum == alg,
        "beta_matches_alg": cert.beta_sum == alg})


def check_speedf(inst: Instance, f: FractionLike) -> Report:
    """Build and verify the speed-f certificate, f >= 2.

    Reports two objective values: the closed-form (f-1)/f^2 times the
    greedy cost, exact whenever every expected completion is a multiple
    of f, and the actual objective of the scaled feasible point, which
    is never larger and is the one weak duality applies to.
    """
    f = as_fraction(f)
    if f < 2:
        raise RequiresFGeq2Error(f"speed analysis needs f >= 2, got {f}")
    cert = build_speed_certificate(inst, f)
    report = verify_certificate(inst, cert)
    alg = greedy_list.greedy_cost(inst)
    actual = cert.objective()
    formula = (f - 1) / (f * f) * alg
    return dataclasses.replace(report, name="speed-certificate", metrics={
        **report.metrics, "alg_value": alg, "objective_formula": formula,
        "objective_actual": actual, "objective_exact": formula == actual})


def check_online(inst: Instance, f: FractionLike, solve: bool = True,
                 horizon: Optional[int] = None) -> Report:
    """Verify the online certificate and its surrounding inequalities.

    Checks, all exact: pricing feasibility; the deterministic speed-f
    cost is at most sum(alpha) and equals sum(beta) (the latter needs
    the deterministic completions to land on integers); and, when
    `solve` is set, the certificate's lower bound is at most the online
    LP optimum, which chains into cost <= 3f/(f-1) times the optimum.
    """
    f = as_fraction(f)
    if f < 2:
        raise RequiresFGeq2Error(f"online analysis needs f >= 2, got {f}")
    cert = build_online_certificate(inst, f)
    report = verify_certificate(inst, cert)
    _, det_cost = greedy_time.deterministic_schedule(inst, f, greedy_time.assign(inst, f))
    lower = cert.objective()

    cost_le_alpha = det_cost <= cert.alpha_sum
    beta_matches = cert.beta_sum == det_cost
    metrics = {**report.metrics, "det_cost": det_cost, "cost_le_alpha": cost_le_alpha,
               "beta_matches_cost": beta_matches, "lower_bound": lower}
    ok = report.passed and cost_le_alpha and beta_matches

    if solve:
        optimum = lp.solve_lp(lp.build_primal(inst, "P_o", horizon)).value
        bound_ok = lower <= optimum
        chain_ok = det_cost <= 3 * f / (f - 1) * optimum
        metrics.update(lp_value=optimum, lower_bound_le_lp=bound_ok,
                       cost_within_chain=chain_ok)
        ok = ok and bound_ok and chain_ok
    return dataclasses.replace(report, name="online-certificate", passed=ok, metrics=metrics)


def perturbed(cert: DualCertificate, job_id: int, delta: FractionLike) -> DualCertificate:
    """Copy with one alpha entry shifted; for falsification tests."""
    alpha = dict(cert.alpha)
    alpha[job_id] = alpha[job_id] + as_fraction(delta)
    return dataclasses.replace(cert, alpha=alpha)


def serialize_certificate(cert: DualCertificate) -> str:
    """Canonical one-line JSON under the versioned `CERT v1` schema."""
    payload = {
        "format": "CERT v1",
        "kind": cert.kind,
        "f": str(cert.f),
        "scale": [str(cert.scale[0]), str(cert.scale[1])],
        "alpha": [[job_id, str(value)] for job_id, value in sorted(cert.alpha.items())],
        "beta": [[machine, slot, str(value)]
                 for (machine, slot), value in sorted(cert.beta.items())],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_certificate(text: str) -> DualCertificate:
    """Strict reader for `CERT v1`: rationals are integers or 'p/q'
    strings, never floats or bools, and keys are integers."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != "CERT v1":
        raise SchemaError("missing or wrong format marker, expected 'CERT v1'")
    try:
        kind = payload["kind"]
        f = as_fraction(payload["f"])
        scale = (as_fraction(payload["scale"][0]), as_fraction(payload["scale"][1]))
        alpha = {}
        for job_id, value in payload["alpha"]:
            if not _is_int(job_id):
                raise SchemaError(f"alpha key {job_id!r} is not an integer job id")
            alpha[job_id] = as_fraction(value)
        beta = {}
        for machine, slot, value in payload["beta"]:
            if not _is_int(machine) or not _is_int(slot):
                raise SchemaError(f"beta key {(machine, slot)!r} must be integer pairs")
            beta[(machine, slot)] = as_fraction(value)
    except SchemaError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed certificate: {exc}") from None
    try:
        return DualCertificate(kind, f, alpha, beta, scale)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
