"""Slow, plainly written references for the exhaustive oracles, the
simplex and distribution sampling.

`stoch_opt` is the adaptive-optimum program written directly in
`Fraction` arithmetic, conditioning on per-step hazards instead of
carrying scaled integer counts; `det_opt` tries every assignment and, on
every machine, every order.  `solve_standard` is the two-phase Bland
simplex on a `Fraction` tableau, with no row scaling and no common
denominator.  `sample` walks the rational CDF of a `ProcDist` in
`Fraction`s, and `lemma5_bounds` prices each job's per-job bound
through `core.priority_split`.  `dispatch`, `machine_order`,
`list_schedule`, `fixed_assignment_cost`, `normalize_pmf` and `moments`
are the greedy dispatch, the machine order, the expected-duration list
schedule, the list cost and the distribution checks written on
`Fraction`s, where the package runs them on scaled integers.
`speed_trace` is the speed-f trace of `greedy_time.simulate` and
`deterministic_schedule` as a `Fraction` event loop over that list
schedule, where the package runs a heap on an integer clock.
`verify_certificate` scans every pricing row of a dual certificate slot
by slot in `Fraction`s, where `certify.verify_certificate` works per
run of equal beta, and `beta_table` rescans every completion for
every slot, where `dualfit` sweeps the completions once.
`objective_coeff` and `build_primal` write each LP coefficient as a
`Fraction` expression, where the package builds it from integer parts; the dual of P and P_o has no builder
here or in the package, and the tests read it off `lp.solve_lp`'s
multipliers.  `parse_lp` reads `lp.export_lp`'s TIDX-LP v1 text back
into a model, so the tests can check that the export is canonical.
`jsonable` turns a report into JSON-safe primitives, and
`json.dumps(jsonable(report), indent=2)` is the byte oracle of the
package's one-pass JSON writer in `report`.  The property tests require exact
equality between these and the package's versions, so they share no
code with them beyond the LP model classes, `lp.default_horizon`,
`lp._check_witness`, the trace classes of `greedy_time` and
`report.exact_text`.
"""
from __future__ import annotations

import itertools
import re
import sys
from bisect import insort
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from stochsched import greedy_time, lp
from stochsched.core import Instance, as_fraction, priority_split
from stochsched.errors import (ForbiddenPairError, HorizonTooSmallError, InfeasibleError, ProbSumError,
                               SchemaError, UnboundedError)
from stochsched.greedy_list import Assignment, GreedyRun
from stochsched.report import Report, Violation, exact_text


def stoch_opt(inst: Instance) -> Fraction:
    """Adaptive optimum by a dynamic program over (running jobs with
    their elapsed times, jobs not yet started), in `Fraction`s."""
    weight = {job.id: job.weight for job in inst.jobs}

    def hazard(job_id: int, machine: int, elapsed: int) -> Fraction:
        # P(duration = elapsed + 1 | duration > elapsed)
        d = inst.job(job_id).dist(machine)
        tail = d.tail(elapsed)
        hit = sum((p for v, p in d.pmf if v == elapsed + 1), Fraction(0))
        return hit / tail

    memo: dict[tuple, Fraction] = {}

    def value(running: tuple, unstarted: frozenset) -> Fraction:
        if not unstarted and all(slot is None for slot in running):
            return Fraction(0)
        key = (running, unstarted)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best: Optional[Fraction] = None

        for job_id in sorted(unstarted):
            job = inst.job(job_id)
            rest = unstarted - {job_id}
            for idx in range(inst.machines):
                if running[idx] is not None or not job.allows(idx + 1):
                    continue
                d = job.dist(idx + 1)
                p_zero = sum((p for v, p in d.pmf if v == 0), Fraction(0))
                v = Fraction(0)
                if p_zero > 0:
                    v += p_zero * value(running, rest)
                if p_zero < 1:
                    occupied = running[:idx] + ((job_id, 0),) + running[idx + 1:]
                    v += (1 - p_zero) * value(occupied, rest)
                if best is None or v < best:
                    best = v

        busy = [(idx, slot) for idx, slot in enumerate(running) if slot is not None]
        if busy:
            pay = sum((weight[j] for j in unstarted), Fraction(0))
            pay += sum((weight[slot[0]] for _, slot in busy), Fraction(0))
            expected = Fraction(0)
            hazards = [hazard(slot[0], idx + 1, slot[1]) for idx, slot in busy]
            for pattern in itertools.product((True, False), repeat=len(busy)):
                prob = Fraction(1)
                nxt = list(running)
                for (idx, slot), h, completes in zip(busy, hazards, pattern):
                    if completes:
                        prob *= h
                        nxt[idx] = None
                    else:
                        prob *= 1 - h
                        nxt[idx] = (slot[0], slot[1] + 1)
                if prob == 0:
                    continue
                expected += prob * value(tuple(nxt), unstarted)
            v = pay + expected
            if best is None or v < best:
                best = v

        memo[key] = best
        return best

    start = (None,) * inst.machines
    return value(start, frozenset(job.id for job in inst.jobs))


def det_opt(inst: Instance) -> Fraction:
    """Deterministic optimum: every assignment, and on every machine every
    order of its jobs, each job starting at max(release, previous end)."""
    best = None
    for combo in itertools.product(*(job.permitted for job in inst.jobs)):
        total = Fraction(0)
        for machine in set(combo):
            ids = [j for j, m in enumerate(combo, start=1) if m == machine]
            cheapest = None
            for perm in itertools.permutations(ids):
                clock = Fraction(0)
                cost = Fraction(0)
                for job_id in perm:
                    job = inst.job(job_id)
                    clock = max(clock, Fraction(job.release)) + job.dist(machine).mean
                    cost += job.weight * clock
                if cheapest is None or cost < cheapest:
                    cheapest = cost
            total += cheapest
        if best is None or total < best:
            best = total
    return best


# ------------------------------------------------------------- the simplex

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tableau, objrow, row: int, col: int) -> None:
    pivot_row = tableau[row]
    inv = _ONE / pivot_row[col]
    if inv != 1:
        tableau[row] = pivot_row = [v * inv for v in pivot_row]
    for other in tableau:
        if other is pivot_row:
            continue
        factor = other[col]
        if factor:
            for k, v in enumerate(pivot_row):
                if v:
                    other[k] -= factor * v
    factor = objrow[col]
    if factor:
        for k, v in enumerate(pivot_row):
            if v:
                objrow[k] -= factor * v


def _objective_row(tableau, basis, costs, width: int):
    objrow = list(costs) + [_ZERO]
    for i, b in enumerate(basis):
        cb = costs[b]
        if cb:
            row = tableau[i]
            for k in range(width + 1):
                if row[k]:
                    objrow[k] -= cb * row[k]
    return objrow


def _run_simplex(tableau, objrow, basis, allowed) -> None:
    """Bland iterations until no allowed column prices out negative."""
    width = len(objrow) - 1
    while True:
        entering = -1
        for j in range(width):
            if allowed[j] and objrow[j] < 0:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise UnboundedError("objective decreases without bound")
        _pivot(tableau, objrow, leaving, entering)
        basis[leaving] = entering


def solve_standard(costs: Sequence[Fraction], rows: Sequence[Sequence[Fraction]],
                   senses: Sequence[str], rhs: Sequence[Fraction],
                   paths: Optional[Counter] = None):
    """The exact simplex on a `Fraction` tableau: two phases, Bland's
    rule, duals off the final tableau.  Same contract as
    `stochsched.simplex.solve_standard`.  When `paths` is given, it
    counts the rows flipped for a negative right-hand side and the rows
    dropped as redundant after phase 1."""
    n = len(costs)
    m = len(rows)
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    senses = list(senses)
    flipped = [False] * m
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError(f"row {i} has {len(rows[i])} coefficients, expected {n}")
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]
            flipped[i] = True
            if paths is not None:
                paths["flipped"] += 1

    # column layout: structural | one slack/surplus per inequality | artificials
    slack_of = [-1] * m
    n_slack = 0
    for i, s in enumerate(senses):
        if s in ("<=", ">="):
            slack_of[i] = n + n_slack
            n_slack += 1
        elif s != "=":
            raise ValueError(f"unknown sense {s!r}")
    art_of = [-1] * m
    n_art = 0
    for i, s in enumerate(senses):
        if s in ("=", ">="):
            art_of[i] = n + n_slack + n_art
            n_art += 1
    width = n + n_slack + n_art

    tableau = []
    basis = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]] + [_ZERO] * (n_slack + n_art) + [Fraction(rhs[i])]
        if slack_of[i] >= 0:
            row[slack_of[i]] = _ONE if senses[i] == "<=" else -_ONE
        if art_of[i] >= 0:
            row[art_of[i]] = _ONE
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        tableau.append(row)

    structural = [j < n + n_slack for j in range(width)]

    if n_art:
        phase1 = [_ZERO] * (n + n_slack) + [_ONE] * n_art
        objrow = _objective_row(tableau, basis, phase1, width)
        _run_simplex(tableau, objrow, basis, structural)
        residue = sum((tableau[i][-1] for i in range(m) if basis[i] >= n + n_slack), _ZERO)
        if residue != 0:
            raise InfeasibleError("no point satisfies every constraint")
        # pivot leftover zero-level artificials out; drop rows that went redundant
        drop = []
        for i in range(m):
            if basis[i] < n + n_slack:
                continue
            col = next((j for j in range(n + n_slack) if tableau[i][j] != 0), -1)
            if col < 0:
                drop.append(i)
            else:
                _pivot(tableau, objrow, i, col)
                basis[i] = col
        if paths is not None:
            paths["dropped"] += len(drop)
        kept = [i for i in range(m) if i not in drop]
        tableau = [tableau[i] for i in kept]
        basis = [basis[i] for i in kept]
    else:
        kept = list(range(m))

    full_costs = [Fraction(c) for c in costs] + [_ZERO] * (n_slack + n_art)
    objrow = _objective_row(tableau, basis, full_costs, width)
    _run_simplex(tableau, objrow, basis, structural)

    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tableau[i][-1]
    value = sum((c * v for c, v in zip(costs, x) if v), _ZERO)

    # duals come off the priced-out identity columns of each surviving row
    duals = [_ZERO] * m
    for pos, orig in enumerate(kept):
        if art_of[orig] >= 0:
            y = -objrow[art_of[orig]]
        elif senses[orig] == "<=":
            y = -objrow[slack_of[orig]]
        else:
            y = objrow[slack_of[orig]]
        duals[orig] = -y if flipped[orig] else y
    return value, x, duals


def sample(dist, rng) -> int:
    """One draw of `dist`: the first support point whose exact
    cumulative probability exceeds `rng.random()`."""
    u = rng.random()
    acc = Fraction(0)
    for value, prob in dist.pmf:
        acc += prob
        if u < acc:
            return value
    return dist.pmf[-1][0]


def lemma5_bounds(inst: Instance, f: Fraction, assignment) -> dict[int, Fraction]:
    """Per job: 4 times its modified release plus twice the mean work of
    the jobs on its machine that `priority_split` puts before it."""
    bounds = {}
    for job in inst.jobs:
        machine = assignment.machine_of(job.id)
        ahead = priority_split(inst, machine, job.id).before
        work = sum((inst.mean(machine, k) for k in ahead
                    if assignment.machine_of(k) == machine), Fraction(0))
        bounds[job.id] = 4 * greedy_time.modified_release(inst, job.id, machine, f) + 2 * work
    return bounds


# ------------------------------------------- the greedy and the list cost

def dispatch(inst: Instance, f: Optional[Fraction]) -> GreedyRun:
    """The greedy of both models on `Fraction` scores, with per-machine
    buckets keyed by the `Fraction` priority ratio, a ratio memo and a
    probe memo stamped with a per-machine version.  Same contract as
    `greedy_list._run`."""
    ratios: list[list[Fraction]] = [[] for _ in range(inst.machines)]
    buckets: list[dict[Fraction, list[Fraction]]] = [{} for _ in range(inst.machines)]
    ratio_memo: dict[tuple[int, int, int, int], Fraction] = {}
    version = [0] * inst.machines
    probe_memo: dict[tuple[int, int, int, int, int], list] = {}

    chosen: list[int] = []
    increases: list[Fraction] = []
    for job in inst.jobs:
        w = job.weight
        w_key = (w.numerator, w.denominator)
        if f is not None:
            scaled_release = f * job.release
            twice_w = 2 * w
        best = None
        best_machine = -1
        best_ratio = None
        best_mean = None
        for machine0, dist in enumerate(job.proc):
            if dist is None:
                continue
            mean = dist.mean
            key = w_key + (mean.numerator, mean.denominator)
            ratio = ratio_memo.get(key)
            if ratio is None:
                ratio = w / mean
                ratio_memo[key] = ratio
            pkey = (machine0,) + key
            hit = probe_memo.get(pkey)
            if hit is not None and hit[0] == version[machine0]:
                incr = hit[1]
            else:
                work_before = mean
                weight_after = Fraction(0)
                bucket = buckets[machine0]
                for r in ratios[machine0]:
                    pair = bucket[r]
                    if r < ratio:
                        weight_after += pair[1]
                    else:
                        work_before += pair[0]
                incr = w * work_before + mean * weight_after
                probe_memo[pkey] = [version[machine0], incr]
            if f is not None:
                incr += twice_w * max(scaled_release, mean)
            if best is None or incr < best:
                best = incr
                best_machine = machine0 + 1
                best_ratio = ratio
                best_mean = mean
        chosen.append(best_machine)
        increases.append(best)
        version[best_machine - 1] += 1
        bucket = buckets[best_machine - 1]
        pair = bucket.get(best_ratio)
        if pair is None:
            bucket[best_ratio] = [best_mean, w]
            insort(ratios[best_machine - 1], best_ratio)
        else:
            pair[0] += best_mean
            pair[1] += w
    return GreedyRun(Assignment(tuple(chosen)), tuple(increases))


def machine_order(inst: Instance, machine: int, job_ids: Iterable[int]) -> list[int]:
    """Ratio descending, id ascending, on `Fraction` sort keys."""
    return sorted(job_ids, key=lambda j: (-inst.ratio(machine, j), j))


def list_schedule(inst: Instance, assignment: Mapping[int, int]) -> dict[int, list[tuple[int, Fraction]]]:
    """Per machine, in the order of its first job in `assignment`: the
    (job id, completion) rows of its jobs in `machine_order`, durations
    at their means, on a `Fraction` clock."""
    per_machine: dict[int, list[int]] = {}
    for job_id, machine in assignment.items():
        job = inst.job(job_id)
        if not job.allows(machine):
            raise ForbiddenPairError(f"job {job.id} assigned to forbidden machine {machine}")
        per_machine.setdefault(machine, []).append(job.id)
    schedule = {}
    for machine, ids in per_machine.items():
        clock = Fraction(0)
        rows = []
        for job_id in machine_order(inst, machine, ids):
            clock += inst.mean(machine, job_id)
            rows.append((job_id, clock))
        schedule[machine] = rows
    return schedule


def fixed_assignment_cost(inst: Instance, assignment: Mapping[int, int]) -> Fraction:
    """Weighted completion total of `list_schedule`."""
    return sum((inst.job(job_id).weight * completion
                for rows in list_schedule(inst, assignment).values()
                for job_id, completion in rows), Fraction(0))


def speed_trace(inst: Instance, assignment, f: Fraction, realization=None,
                mode: str = "forced-idle") -> tuple[greedy_time.ScheduleTrace, Fraction]:
    """The trace on the speed-f clock and its cost, by a `Fraction` event
    loop.  Whenever a machine is free it takes the first job of its
    `list_schedule` order whose release max(r, mean/f) has passed, or
    sleeps until the next release.  With no `realization` the job runs
    for mean/f with no hold (`deterministic_schedule`); otherwise a
    forced-idle job is held for mean/f and runs for drawn/f, and a
    max-proc job runs for max(drawn, mean)/f (`simulate`)."""
    rows = {}
    for machine, order in list_schedule(inst, assignment.as_mapping()).items():
        waiting = [job_id for job_id, _ in order]
        clock = Fraction(0)
        while waiting:
            release = {j: max(Fraction(inst.job(j).release), inst.mean(machine, j) / f)
                       for j in waiting}
            ready = [j for j in waiting if release[j] <= clock]
            if not ready:
                clock = min(release.values())
                continue
            job_id = ready[0]
            waiting.remove(job_id)
            mean = inst.mean(machine, job_id)
            hold, run = Fraction(0), mean
            if realization is not None:
                drawn = Fraction(realization.value(job_id, machine))
                hold, run = (mean, drawn) if mode == "forced-idle" else (Fraction(0), max(drawn, mean))
            committed = clock
            started = committed + hold / f
            clock = started + run / f
            rows[job_id] = greedy_time.JobTrace(job_id, machine, committed, started, clock)
    trace = greedy_time.ScheduleTrace(tuple(rows[job.id] for job in inst.jobs))
    return trace, sum((inst.job(t.job).weight * t.completed for t in trace.jobs), Fraction(0))


# ---------------------------------------------------------- distributions

def normalize_pmf(items) -> tuple[tuple[int, Fraction], ...]:
    """`ProcDist`'s checks on `Fraction` sums: duplicate values merge,
    probabilities are positive and sum to one; same errors and texts."""
    items = items.items() if isinstance(items, Mapping) else items
    norm: dict[int, Fraction] = {}
    for value, prob in items:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"support value {value!r} must be a nonnegative integer")
        p = as_fraction(prob)
        if p <= 0:
            raise ValueError(f"probability of {value} must be positive, got {p}")
        norm[value] = norm.get(value, Fraction(0)) + p
    if sum(norm.values(), Fraction(0)) != 1:
        raise ProbSumError(f"probabilities sum to {sum(norm.values(), Fraction(0))}, not 1")
    return tuple(sorted(norm.items()))


def moments(pmf) -> tuple[Fraction, Fraction, Fraction]:
    """(mean, second moment, squared coefficient of variation) of a
    normalized pmf with a positive mean, summed in `Fraction`s."""
    mean = sum((Fraction(v) * p for v, p in pmf), Fraction(0))
    second = sum((Fraction(v * v) * p for v, p in pmf), Fraction(0))
    return mean, second, (second - mean * mean) / (mean * mean)


# ------------------------------------------------------ dual certificates

def beta_table(completions: Mapping[int, list[tuple[Fraction, Fraction]]],
               stretch: Fraction = Fraction(1)) -> dict[tuple[int, int], Fraction]:
    """beta[(machine, s)] = weight completing strictly after stretch*s,
    summed afresh over every completion at every slot."""
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


def constraint(cert, inst: Instance, job_id: int, machine: int,
               s: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the certificate's pricing inequality at one slot."""
    job = inst.job(job_id)
    mean = job.dist(machine).mean
    w = job.weight
    a = cert.alpha[job_id]
    b = cert.beta.get((machine, s), Fraction(0))
    if cert.kind == "list":
        return a / mean, b + w * (Fraction(s) / mean + 1)
    if cert.kind == "speed":
        return a / mean, b / cert.f + w * (Fraction(s) / mean + Fraction(1, 2))
    lhs = cert.f * a / mean
    rhs = b + 3 * cert.f * w * ((s + Fraction(1, 2)) / mean + Fraction(1, 2))
    return lhs, rhs


def verify_certificate(inst: Instance, cert) -> Report:
    """Every pricing row from the job's release (online) or zero up to
    one past the machine's last positive beta entry, one slot at a time."""
    last: dict[int, int] = {}
    for (machine, s), value in cert.beta.items():
        if value > 0:
            last[machine] = max(last.get(machine, -1), s)
    violations = []
    min_slack: Optional[Fraction] = None
    checked = 0
    for job in inst.jobs:
        lo = job.release if cert.kind == "online" else 0
        for machine in job.permitted:
            hi = max(last.get(machine, -1) + 1, lo)
            for s in range(lo, hi + 1):
                lhs, rhs = constraint(cert, inst, job.id, machine, s)
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
            "alpha_sum": sum(cert.alpha.values(), Fraction(0)),
            "beta_sum": sum(cert.beta.values(), Fraction(0)),
            "constraints_checked": checked,
        },
        violations=tuple(violations),
        min_slack=min_slack,
    )


# ------------------------------------------------------ time-indexed LPs

def objective_coeff(variant: str, dist, s: int) -> Fraction:
    """The objective coefficient (s + 1/2)/mean + (1 - scv)/2 of a pair
    at slot s in `Fraction`s; the P-variants take scv = 0."""
    base = (Fraction(s) + Fraction(1, 2)) / dist.mean
    if variant.startswith("P"):
        return base + Fraction(1, 2)
    return base + (1 - dist.scv) / 2


def build_primal(inst: Instance, variant: str, horizon: Optional[int] = None) -> lp.LpModel:
    """`lp.build_primal` with every coefficient built through
    `objective_coeff`, one `Fraction` product per variable."""
    online = variant.endswith("_o")
    mean_only = variant.startswith("P")
    T = lp.default_horizon(inst, variant) if horizon is None else horizon
    if T < 1:
        raise HorizonTooSmallError("horizon must be at least 1")
    if horizon is not None:
        lp._check_witness(inst, variant, T)
    variables = []
    objective = []
    mass_rows: dict[int, list] = {}
    need_rows: dict[int, list] = {}
    cap_rows: dict[tuple[int, int], list] = {}
    for job in inst.jobs:
        start = job.release if online else 0
        need_rows[job.id] = []
        mass_rows[job.id] = []
        for machine in job.permitted:
            dist = job.dist(machine)
            for s in range(start, T):
                name = f"y_{machine}_{job.id}_{s}"
                variables.append(name)
                coeff = objective_coeff(variant, dist, s)
                objective.append((name, job.weight * coeff))
                need_rows[job.id].append((name, 1 / dist.mean))
                cap_rows.setdefault((machine, s), []).append((name, Fraction(1)))
                if not mean_only and coeff != 1:
                    mass_rows[job.id].append((name, coeff - 1))
    constraints = [lp.Constraint(f"cap_{machine}_{s}", tuple(cap_rows[(machine, s)]), "<=", Fraction(1))
                   for (machine, s) in sorted(cap_rows)]
    constraints += [lp.Constraint(f"need_{job.id}", tuple(need_rows[job.id]), "=", Fraction(1))
                    for job in inst.jobs]
    if not mean_only:
        constraints += [lp.Constraint(f"mass_{job.id}", tuple(mass_rows[job.id]), ">=", Fraction(0))
                        for job in inst.jobs]
    return lp.LpModel(T, tuple(variables), tuple(objective), tuple(constraints))


# ------------------------------------------------------ TIDX-LP reader

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_HEADER = re.compile(
    rf"^TIDX-LP v1 min horizon=(\d+) obj(?: (.*))?$")
_BOUND = re.compile(rf"^nonneg ({_NAME})$")
_CONSTRAINT = re.compile(rf"^({_NAME}): (.*) (<=|>=|=) (-?\d+(?:/\d+)?)$")
_TERM = re.compile(rf"^(-?\d+(?:/\d+)?) ({_NAME})$")


def _number(text: str) -> Fraction:
    """A horizon or coefficient the grammar matched."""
    try:
        return Fraction(text)
    except ValueError:
        raise SchemaError(f"a number needs more than {sys.get_int_max_str_digits()} "
                          "digits") from None
    except ZeroDivisionError:
        raise SchemaError(f"{text!r} has a zero denominator") from None


def _parse_terms(text: str) -> tuple[tuple[str, Fraction], ...]:
    if not text:
        return ()
    terms = []
    for chunk in text.split(" + "):
        m = _TERM.match(chunk)
        if not m:
            raise SchemaError(f"bad term {chunk!r}")
        terms.append((m.group(2), _number(m.group(1))))
    return tuple(terms)


def parse_lp(text: str) -> lp.LpModel:
    """Strict reader for `lp.export_lp`'s text; anything else, a number
    past Python's digit limit included, is a SchemaError."""
    lines = text.splitlines()
    if not lines:
        raise SchemaError("empty input")
    m = _HEADER.match(lines[0])
    if not m:
        raise SchemaError(f"bad header {lines[0]!r}")
    horizon = int(_number(m.group(1)))
    objective = _parse_terms(m.group(2) or "")
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        return lp.LpModel(horizon, (), objective, ())
    if body[-1] != "end":
        raise SchemaError("missing end line")
    variables = []
    constraints = []
    for line in body[:-1]:
        bound = _BOUND.match(line)
        if bound:
            if constraints:
                raise SchemaError("variable bounds must precede constraints")
            variables.append(bound.group(1))
            continue
        con = _CONSTRAINT.match(line)
        if not con:
            raise SchemaError(f"bad line {line!r}")
        constraints.append(lp.Constraint(con.group(1), _parse_terms(con.group(2)),
                                         con.group(3), _number(con.group(4))))
    return lp.LpModel(horizon, tuple(variables), objective, tuple(constraints))


# ------------------------------------------------------ JSON report oracle

def jsonable(value):
    """Recursively convert report pieces to JSON-safe primitives;
    rationals become canonical 'p/q' strings so nothing is rounded.
    Sub-checks, then rows, are the last keys inside "metrics", present
    only when nonempty.  `json.dumps(jsonable(report), indent=2) + "\\n"`
    is the byte oracle of `report.render(report, "json")`."""
    if isinstance(value, Report):
        metrics = {k: jsonable(v) for k, v in value.metrics.items()}
        if value.checks:
            metrics["checks"] = jsonable(value.checks)
        if value.rows:
            metrics["rows"] = jsonable(value.rows)
        return {
            "name": value.name,
            "passed": value.passed,
            "metrics": metrics,
            "violations": [jsonable(v) for v in value.violations],
            "min_slack": jsonable(value.min_slack),
        }
    if isinstance(value, Violation):
        return {"constraint": value.constraint, "lhs": jsonable(value.lhs),
                "rhs": jsonable(value.rhs), "slack": jsonable(value.slack)}
    if isinstance(value, Fraction):
        return exact_text(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value
