"""Time-indexed LP relaxations of expected weighted completion time.

Four variants share one variable set y[i][j][s] = expected amount of
job j under way on machine i inside unit slot [s, s+1):

  S    mean-based objective with the variance correction, plus the
       per-job bound that total completion weight covers total y-mass
  P    simpler objective with the correction pinned at its worst case
  S_o  S with variables only at slots s >= r_j
  P_o  P with variables only at slots s >= r_j

Every model minimizes over nonnegative, named columns.  Models are
plain data; `solve_lp` runs the exact simplex and returns each row's
multiplier with the optimum, so the dual of P and P_o is read off the
primal solve: alpha_j is the multiplier of `need_j`, and beta_{i,s} is
minus that of `cap_i_s` (0 where the row is absent).  `export_lp`
writes a canonical versioned text form, TIDX-LP v1.  `y_from_x` turns
start probabilities into y-mass, a plain mapping (machine, job, slot) ->
Fraction, and `completion_from_y` prices it under a variant.

The builder computes each coefficient on integers: a pair's mean and
scv are read once (`_coeff_parts`), and each objective entry and mass
term is one `Fraction` of two ints.  `solve_lp` hands the simplex
dense rows that start as int zeros and hold the model's entries as they
are, so a zero cell is never a `Fraction`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import greedy_list, simplex
from .core import FractionLike, Instance, ProcDist, as_fraction, list_schedule
from .errors import HorizonTooSmallError, NotAPolicyDistributionError
from .report import exact_text

__all__ = [
    "VARIANTS",
    "Constraint",
    "LpModel",
    "LpSolution",
    "default_horizon",
    "build_primal",
    "y_from_x",
    "completion_from_y",
    "solve_lp",
    "export_lp",
]

VARIANTS = ("S", "P", "S_o", "P_o")


def _is_online(variant: str) -> bool:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant.endswith("_o")


def _is_mean_only(variant: str) -> bool:
    return variant.startswith("P")


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, Fraction], ...]
    sense: str
    rhs: Fraction


@dataclass(frozen=True)
class LpModel:
    horizon: int
    variables: tuple[str, ...]
    objective: tuple[tuple[str, Fraction], ...]
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    primal: dict[str, Fraction]
    dual: dict[str, Fraction]


def _slot_durations(inst: Instance, variant: str) -> dict[tuple[int, int], int]:
    """Slots a witness schedule books per permitted pair: the whole
    support for S-variants, the rounded-up mean for P-variants."""
    need = {}
    for job in inst.jobs:
        for machine in job.permitted:
            d = job.dist(machine)
            need[(machine, job.id)] = d.max_value if not _is_mean_only(variant) else math.ceil(d.mean)
    return need


def default_horizon(inst: Instance, variant: str) -> int:
    """Latest release plus everybody's worst-machine duration: enough
    room for any serialized schedule, so never infeasible.  The greedy
    witness is one such schedule, so only a horizon the caller chose
    needs `_check_witness`."""
    need = _slot_durations(inst, variant)
    total = max((job.release for job in inst.jobs), default=0)
    for job in inst.jobs:
        total += max(need[(machine, job.id)] for machine in job.permitted)
    return max(total, 1)


def _check_witness(inst: Instance, variant: str, horizon: int) -> None:
    """Certify the horizon by fitting the greedy schedule into it.

    Each job books a block of `_slot_durations` slots on its greedy
    machine, in priority order, starting no earlier than its release
    for online variants.  Those blocks are a feasible y, so a horizon
    that holds the last block is provably large enough.
    """
    need = _slot_durations(inst, variant)
    online = _is_online(variant)
    assignment, _ = greedy_list.assign(inst)
    makespan = 0
    for machine, rows in list_schedule(inst, assignment.as_mapping()).items():
        clock = 0
        for job_id, _, _ in rows:
            start = max(clock, inst.job(job_id).release) if online else clock
            clock = start + need[(machine, job_id)]
        makespan = max(makespan, clock)
    if makespan > horizon:
        raise HorizonTooSmallError(
            f"variant {variant} needs {makespan} slots for the greedy schedule, horizon is {horizon}")


def _horizon(inst: Instance, variant: str, horizon: Optional[int]) -> int:
    """The default slot count, or a chosen one of at least 1 that holds the witness."""
    if horizon is None:  # the default holds every serialized schedule
        return default_horizon(inst, variant)
    if horizon < 1:
        raise HorizonTooSmallError("horizon must be at least 1")
    _check_witness(inst, variant, horizon)
    return horizon


def _coeff_parts(variant: str, dist: ProcDist) -> tuple[int, int, int]:
    """The objective coefficient (s + 1/2)/mean + (1 - scv)/2 of a pair
    at slot s, on integers: it is (first + s * step) / den.

    With mean a/b and scv c/e, where the P-variants pin the correction
    at its worst case by taking c = 0 and e = 1, the coefficient is
    ((2s + 1) b e + a (e - c)) / (2 a e).
    """
    mean = dist.mean
    a, b = mean.numerator, mean.denominator
    if _is_mean_only(variant):
        c, e = 0, 1
    else:
        scv = dist.scv
        c, e = scv.numerator, scv.denominator
    return b * e + a * (e - c), 2 * b * e, 2 * a * e


def build_primal(inst: Instance, variant: str, horizon: Optional[int] = None) -> LpModel:
    """Time-indexed relaxation of the chosen variant at the horizon.

    Truncation is safe for upper-bound comparisons: shrinking the slot
    range only shrinks the feasible set, so the truncated optimum is
    never below the untruncated one.
    """
    online = _is_online(variant)
    mean_only = _is_mean_only(variant)
    T = _horizon(inst, variant, horizon)

    one = Fraction(1)
    variables = []
    objective = []
    need_rows = []
    mass_rows = []
    # per machine, the cap row of each slot
    cap_rows: dict[int, list[list[tuple[str, Fraction]]]] = {}
    for job in inst.jobs:
        start = job.release if online else 0
        w_num, w_den = job.weight.numerator, job.weight.denominator
        need = []
        mass = []
        for machine in job.permitted:
            dist = job.dist(machine)
            first, step, den = _coeff_parts(variant, dist)
            inv_mean = 1 / dist.mean
            obj_den = w_den * den
            caps = cap_rows.get(machine)
            if caps is None:
                caps = cap_rows[machine] = [[] for _ in range(T)]
            num = first + start * step
            for s in range(start, T):
                name = f"y_{machine}_{job.id}_{s}"
                variables.append(name)
                objective.append((name, Fraction(w_num * num, obj_den)))
                need.append((name, inv_mean))
                caps[s].append((name, one))
                if not mean_only and num != den:
                    # zero terms would not survive serialization anyway
                    mass.append((name, Fraction(num - den, den)))
                num += step
        need_rows.append(Constraint(f"need_{job.id}", tuple(need), "=", one))
        if not mean_only:
            mass_rows.append(Constraint(f"mass_{job.id}", tuple(mass), ">=", Fraction(0)))

    constraints = [Constraint(f"cap_{machine}_{s}", tuple(terms), "<=", one)
                   for machine in sorted(cap_rows)
                   for s, terms in enumerate(cap_rows[machine]) if terms]
    constraints += need_rows
    constraints += mass_rows
    return LpModel(T, tuple(variables), tuple(objective), tuple(constraints))


def y_from_x(x: Mapping[tuple[int, int, int], FractionLike],
             dists: Mapping[tuple[int, int], ProcDist]) -> dict[tuple[int, int, int], Fraction]:
    """Turn start probabilities x[(machine, job, t)] into y-mass, keyed
    by (machine, job, slot); every entry is positive.

    A job started at t is still running in slot s with the probability
    its duration exceeds s - t; summed over starts this gives the
    expected in-progress mass per slot.
    """
    per_job: dict[int, Fraction] = {}
    for (machine, job_id, t), prob in x.items():
        p = as_fraction(prob)
        if p < 0:
            raise NotAPolicyDistributionError(f"negative start probability at {(machine, job_id, t)}")
        per_job[job_id] = per_job.get(job_id, Fraction(0)) + p
    for job_id, total in per_job.items():
        if total != 1:
            raise NotAPolicyDistributionError(f"job {job_id} start probabilities sum to {total}")
    y: dict[tuple[int, int, int], Fraction] = {}
    for (machine, job_id, t), prob in x.items():
        p = as_fraction(prob)
        if p == 0:
            continue
        dist = dists[(machine, job_id)]
        for s in range(t, t + dist.max_value):
            key = (machine, job_id, s)
            y[key] = y.get(key, Fraction(0)) + p * dist.tail(s - t)
    return y


def completion_from_y(y: Mapping[tuple[int, int, int], Fraction], variant: str,
                      dists: Mapping[tuple[int, int], ProcDist]) -> dict[int, Fraction]:
    """Per-job completion value the variant's objective assigns to the
    y-mass; a job with no nonzero mass has no entry."""
    _is_online(variant)  # validates the name
    parts: dict[tuple[int, int], tuple[int, int, int]] = {}
    out: dict[int, Fraction] = {}
    for (machine, job_id, s), mass in y.items():
        if mass == 0:
            continue
        pair = (machine, job_id)
        if pair not in parts:
            parts[pair] = _coeff_parts(variant, dists[pair])
        first, step, den = parts[pair]
        out[job_id] = out.get(job_id, Fraction(0)) + mass * Fraction(first + s * step, den)
    return out


_EXACT = frozenset((int, Fraction))


def _require_exact(value, constraint: Optional[str], what: str) -> None:
    """Raise TypeError unless `value` is an int or a Fraction; a bool
    is not, although it is an int subclass.  `constraint` None stands
    for the objective."""
    if value.__class__ is bool or not isinstance(value, (int, Fraction)):
        owner = "objective" if constraint is None else f"constraint {constraint!r}"
        raise TypeError(f"{owner} {what} is {value!r}; expected an int or a Fraction")


def solve_lp(model: LpModel) -> LpSolution:
    """Exact minimum of the model via two-phase simplex.

    The returned duals are Lagrange multipliers for the constraints as
    written: multipliers times the right-hand sides equal the optimal
    value.  Every objective entry, coefficient and right-hand side must
    be an int or a Fraction; a float or a bool raises TypeError naming
    its constraint and variable.  The rows handed to the simplex are
    dense with int zeros.
    """
    col_of = {name: col for col, name in enumerate(model.variables)}
    n_cols = len(model.variables)

    def fill(coeffs, row, owner: Optional[str]) -> None:
        for name, value in coeffs:
            if value.__class__ not in _EXACT:
                _require_exact(value, owner, f"coefficient of {name!r}")
            col = col_of.get(name)
            if col is None:
                raise ValueError(f"unknown variable {name!r}")
            # most columns appear once per row: add only on a repeat
            row[col] = row[col] + value if row[col] else value

    costs = [0] * n_cols
    fill(model.objective, costs, None)

    rows = []
    senses = []
    rhs = []
    for con in model.constraints:
        row = [0] * n_cols
        fill(con.coeffs, row, con.name)
        if con.rhs.__class__ not in _EXACT:
            _require_exact(con.rhs, con.name, "right-hand side")
        rows.append(row)
        senses.append(con.sense)
        rhs.append(con.rhs)

    value, x, duals = simplex.solve_standard(costs, rows, senses, rhs)
    primal = dict(zip(model.variables, x))
    dual = {con.name: duals[i] for i, con in enumerate(model.constraints)}
    return LpSolution(value, primal, dual)


def _terms_str(terms) -> str:
    return " + ".join(f"{exact_text(v)} {name}" for name, v in terms if v != 0)


def export_lp(model: LpModel) -> str:
    """Versioned plain text.  First line holds the sense `min`, the
    horizon and the objective; then one `nonneg` bound line per
    variable, one line per constraint, and a closing `end`.  An empty
    model is the header alone.  Output is canonical: equal models give
    equal bytes."""
    header = f"TIDX-LP v1 min horizon={model.horizon} obj {_terms_str(model.objective)}".rstrip()
    if not model.variables and not model.constraints:
        return header + "\n"
    lines = [header]
    lines.extend(f"nonneg {name}" for name in model.variables)
    for con in model.constraints:
        lines.append(f"{con.name}: {_terms_str(con.coeffs)} {con.sense} {exact_text(con.rhs)}")
    lines.append("end")
    return "\n".join(lines) + "\n"
