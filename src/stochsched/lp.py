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

`optimum` returns the optimal value alone, for callers that print
nothing else: it hands the simplex the model's rows with no model, no
names and no primal or dual built, and the simplex takes the same
pivots as on `solve_lp(build_primal(...))`.  It keeps its own row
assembly, as names and `Constraint`s cost time: on a 2-job cli-pipeline
P_o model that pair takes 390 us to its 330 (Python 3.11, 2-CPU x86),
and a prototype sharing one assembly added 15-25 us to `optimum` and
doubled the 57,360-variable build (0.13 -> 0.26 s).

Both lay their columns out by one walk, `_columns`, which reads a
pair's mean and scv once (`_coeff_parts`) and gives its objective
numerators over one integer denominator.  The builder makes each
objective entry and mass term one `Fraction` of two ints.  `solve_lp`
hands the simplex dense rows that start as int zeros and hold the
model's entries as they are, so a zero cell is never a `Fraction`.
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
    "optimum",
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
    chosen, _, _ = greedy_list._dispatch(inst, None)
    makespan = 0
    for machine, rows in list_schedule(inst, dict(enumerate(chosen, start=1))).items():
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


def _columns(inst: Instance, variant: str, T: int):
    """The model's columns in order, one entry per permitted (job,
    machine) pair: the job, the machine, the pair's distribution, its
    first slot, and its objective numerators first + s * step over `den`
    (`_coeff_parts`, before the weight), one per slot s up to T - 1.
    `build_primal` and `optimum` both lay their columns out by it."""
    online = _is_online(variant)
    for job in inst.jobs:
        start = job.release if online else 0
        for machine in job.permitted:
            dist = job.dist(machine)
            first, step, den = _coeff_parts(variant, dist)
            yield job, machine, dist, start, range(first + start * step, first + T * step, step), den


def build_primal(inst: Instance, variant: str, horizon: Optional[int] = None) -> LpModel:
    """Time-indexed relaxation of the chosen variant at the horizon.

    Truncation is safe for upper-bound comparisons: shrinking the slot
    range only shrinks the feasible set, so the truncated optimum is
    never below the untruncated one.
    """
    _is_online(variant)  # validates the name before the horizon is read
    mean_only = _is_mean_only(variant)
    T = _horizon(inst, variant, horizon)

    one = Fraction(1)
    variables = []
    objective = []
    need_rows: dict[int, list[tuple[str, Fraction]]] = {job.id: [] for job in inst.jobs}
    mass_rows: dict[int, list[tuple[str, Fraction]]] = {job.id: [] for job in inst.jobs}
    # per machine, the cap row of each slot
    cap_rows: dict[int, list[list[tuple[str, Fraction]]]] = {}
    for job, machine, dist, start, nums, den in _columns(inst, variant, T):
        w_num = job.weight.numerator
        obj_den = job.weight.denominator * den
        inv_mean = 1 / dist.mean
        need = need_rows[job.id]
        mass = mass_rows[job.id]
        caps = cap_rows.get(machine)
        if caps is None:
            caps = cap_rows[machine] = [[] for _ in range(T)]
        for s, num in zip(range(start, T), nums):
            name = f"y_{machine}_{job.id}_{s}"
            variables.append(name)
            objective.append((name, Fraction(w_num * num, obj_den)))
            need.append((name, inv_mean))
            caps[s].append((name, one))
            if not mean_only and num != den:
                # zero terms would not survive serialization anyway
                mass.append((name, Fraction(num - den, den)))

    constraints = [Constraint(f"cap_{machine}_{s}", tuple(terms), "<=", one)
                   for machine in sorted(cap_rows)
                   for s, terms in enumerate(cap_rows[machine]) if terms]
    constraints += [Constraint(f"need_{job_id}", tuple(terms), "=", one)
                    for job_id, terms in need_rows.items()]
    if not mean_only:
        constraints += [Constraint(f"mass_{job_id}", tuple(terms), ">=", Fraction(0))
                        for job_id, terms in mass_rows.items()]
    return LpModel(T, tuple(variables), tuple(objective), tuple(constraints))


def optimum(inst: Instance, variant: str, horizon: Optional[int] = None) -> Fraction:
    """The optimal value of `build_primal(inst, variant, horizon)`, with
    no model built: the same columns and rows in the same order go to the
    simplex, with no names and no primal or dual read back.

    The costs are ints over one common denominator, and so are the cap
    rows.  The need and mass rows keep their rationals: phase 1 weights
    each row's artificial by the inverse of the scale the simplex finds
    for the row, so a row handed over already scaled to ints could send
    phase 1 down other pivots.  As they are, the simplex takes the pivots
    it takes on `solve_lp(build_primal(...))`.
    """
    _is_online(variant)  # validates the name before the horizon is read
    mean_only = _is_mean_only(variant)
    T = _horizon(inst, variant, horizon)
    columns = list(_columns(inst, variant, T))
    n = sum(len(nums) for *_, nums, _ in columns)
    cost_scale = math.lcm(*(job.weight.denominator * den for job, *_, den in columns))

    costs = []
    need_rows = {job.id: [0] * n for job in inst.jobs}
    mass_rows = {job.id: [0] * n for job in inst.jobs} if not mean_only else {}
    # (machine, slot) -> the columns of its cap row
    cap_cols: dict[tuple[int, int], list[int]] = {}
    col = 0
    for job, machine, dist, start, nums, den in columns:
        weight = job.weight
        cost_factor = weight.numerator * (cost_scale // (weight.denominator * den))
        costs += [cost_factor * num for num in nums]
        end = col + len(nums)
        need_rows[job.id][col:end] = [1 / dist.mean] * len(nums)
        if not mean_only:
            mass_rows[job.id][col:end] = [Fraction(num - den, den) if num != den else 0
                                          for num in nums]
        for s in range(start, T):
            cap_cols.setdefault((machine, s), []).append(col)
            col += 1

    cap_rows = []
    for key in sorted(cap_cols):
        row = [0] * n
        for c in cap_cols[key]:
            row[c] = 1
        cap_rows.append(row)
    rows = [*cap_rows, *need_rows.values(), *mass_rows.values()]
    senses = ["<="] * len(cap_rows) + ["="] * len(need_rows) + [">="] * len(mass_rows)
    rhs = [1] * (len(cap_rows) + len(need_rows)) + [0] * len(mass_rows)
    value, _, _ = simplex.solve_standard(costs, rows, senses, rhs)
    return value / cost_scale


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
