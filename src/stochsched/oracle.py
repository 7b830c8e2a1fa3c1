"""Ground truth at desk scale: exhaustive deterministic optima, an exact
dynamic program for the adaptive stochastic optimum on tiny instances,
the tightness family for the list greedy, and simulation checkers for
the single-job completion identity, the stopped-sum bound, and the
per-job completion bound.

Everything here is deliberately brute force.  The point is not speed
but independence: none of these paths share logic with the algorithms
they judge.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import greedy_list, greedy_time, lp
from .core import FractionLike, Instance, Job, ProcDist, as_fraction, priority_split
from .errors import BadMError, HypothesisViolatedError, TooLargeError
from .report import Report, Violation

__all__ = [
    "det_opt",
    "stoch_opt",
    "gen_lower_bound",
    "lower_bound_ratio",
    "check_b1",
    "identity_fuzz",
    "StoppingProcess",
    "constant_process",
    "doubling_process",
    "staged_process",
    "heavy_process",
    "check_b2",
    "check_lemma5",
    "random_dist",
]

DET_OPT_MAX_JOBS = 9
DET_OPT_MAX_JOBS_RELEASED = 6
STOCH_OPT_MAX_JOBS = 4
STOCH_OPT_MAX_MACHINES = 2
STOCH_OPT_MAX_VALUE = 4
LOWER_BOUND_MAX_K = 6


def _require_deterministic(inst: Instance) -> None:
    for job in inst.jobs:
        for d in job.proc:
            if d is not None and not d.is_point:
                raise ValueError(f"job {job.id} has a non-degenerate distribution; "
                                 "the deterministic optimum is undefined")


def det_opt(inst: Instance) -> Fraction:
    """Exhaustive optimum for point-mass instances.

    Without releases each machine serves in priority order, so only the
    assignment is enumerated.  With releases the per-machine order is
    enumerated too, every job starting as early as its release allows.
    Per-machine orders are independent, so each machine takes the
    minimum over its own permutations.
    """
    _require_deterministic(inst)
    limit = DET_OPT_MAX_JOBS_RELEASED if inst.has_releases else DET_OPT_MAX_JOBS
    if inst.n > limit:
        raise TooLargeError(f"{inst.n} jobs exceeds the exhaustive limit of {limit}")

    # per machine: precomputed priority rank, mean, weight, release
    rank: list[dict[int, int]] = []
    for machine in range(1, inst.machines + 1):
        runnable = [job.id for job in inst.jobs if job.allows(machine)]
        order = sorted(runnable, key=lambda j: (-inst.ratio(machine, j), j))
        rank.append({job_id: pos for pos, job_id in enumerate(order)})
    mean: list[list[Fraction | int | None]]
    weight: list[Fraction | int]
    mean = [[job.dist(m).mean if job.allows(m) else None
             for m in range(1, inst.machines + 1)] for job in inst.jobs]
    weight = [job.weight for job in inst.jobs]
    release = [job.release for job in inst.jobs]
    # exhaustive sweeps hammer this loop; integral instances can skip
    # Fraction arithmetic entirely without losing exactness
    if all(w.denominator == 1 for w in weight) and all(
            v is None or v.denominator == 1 for row in mean for v in row):
        mean = [[None if v is None else v.numerator for v in row] for row in mean]
        weight = [w.numerator for w in weight]

    def chain_cost(machine0: int, ids: list[int]) -> Fraction | int:
        if not inst.has_releases:
            ids = sorted(ids, key=lambda j: rank[machine0][j])
            clock = 0
            total = 0
            for job_id in ids:
                clock += mean[job_id - 1][machine0]
                total += weight[job_id - 1] * clock
            return total
        best = None
        for perm in itertools.permutations(ids):
            clock = 0
            total = 0
            for job_id in perm:
                start = max(clock, release[job_id - 1])
                clock = start + mean[job_id - 1][machine0]
                total += weight[job_id - 1] * clock
            if best is None or total < best:
                best = total
        return best

    best = None
    options = [job.permitted for job in inst.jobs]
    for combo in itertools.product(*options):
        per_machine: dict[int, list[int]] = {}
        for job_id, machine in enumerate(combo, start=1):
            per_machine.setdefault(machine, []).append(job_id)
        total = sum(chain_cost(m - 1, ids) for m, ids in per_machine.items())
        if best is None or total < best:
            best = total
    return best if isinstance(best, Fraction) else Fraction(best)


def stoch_opt(inst: Instance) -> Fraction:
    """Optimal expected cost of an adaptive, non-anticipatory policy.

    Exact dynamic program over information states: which job runs on
    each machine and for how long it has been running (conditioning its
    remaining time), plus the set of jobs not yet started.  Decisions
    happen at integer times; within an epoch the policy may start any
    number of jobs on idle machines, then either all machines advance
    one unit or, with every machine idle and work remaining, a start is
    forced (delaying the whole remainder can never pay off).

    Costs are accounted as weight-per-unit-time: every uncompleted job
    pays its weight for each elapsed unit, which sums to the weighted
    completion total.  The benchmark knows the full job list up front
    (releases must be zero) but never a duration before it finishes.
    """
    if inst.has_releases:
        raise ValueError("the adaptive-optimum program handles release-free instances only")
    if inst.machines > STOCH_OPT_MAX_MACHINES or inst.n > STOCH_OPT_MAX_JOBS:
        raise TooLargeError(
            f"limits are {STOCH_OPT_MAX_MACHINES} machines and {STOCH_OPT_MAX_JOBS} jobs")
    for job in inst.jobs:
        for d in job.proc:
            if d is not None and d.max_value > STOCH_OPT_MAX_VALUE:
                raise TooLargeError(f"support values above {STOCH_OPT_MAX_VALUE} "
                                    "blow up the state space")

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
                    # completes instantly at the current epoch: zero cost
                    v += p_zero * value(running, rest)
                if p_zero < 1:
                    occupied = running[:idx] + ((job_id, 0),) + running[idx + 1:]
                    v += (1 - p_zero) * value(occupied, rest)
                if best is None or v < best:
                    best = v

        busy = [(idx, slot) for idx, slot in enumerate(running) if slot is not None]
        if busy:
            # advance one unit: everyone uncompleted pays its weight
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


def gen_lower_bound(k: int, m: int) -> Instance:
    """The tightness family: unit jobs (h, l) for h = 1..k, l = 1..m/h^2,
    runnable on machines 1..l only, ids handed out in decreasing l so
    the arrival tie rule serves wider jobs first."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    for h in range(1, k + 1):
        if m % (h * h):
            raise BadMError(f"m={m} is not divisible by {h * h}")
    unit = ProcDist.point(1)
    pairs = [(h, l) for h in range(1, k + 1) for l in range(1, m // (h * h) + 1)]
    pairs.sort(key=lambda hl: (-hl[1], hl[0]))
    # share one proc row per distinct l; the big k have thousands of jobs
    row_for: dict[int, tuple] = {}
    jobs = []
    for job_id, (_, l) in enumerate(pairs, start=1):
        row = row_for.get(l)
        if row is None:
            row = (unit,) * l + (None,) * (m - l)
            row_for[l] = row
        jobs.append(Job(job_id, Fraction(1), 0, row))
    return Instance(m, jobs)


def lower_bound_ratio(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(greedy cost, optimal cost, their ratio) on the tightness family
    with the smallest admissible machine count, lcm of 1..k squared."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > LOWER_BOUND_MAX_K:
        raise TooLargeError(f"k is capped at {LOWER_BOUND_MAX_K} (machine count grows as lcm)")
    m = math.lcm(*(h * h for h in range(1, k + 1)))
    inst = gen_lower_bound(k, m)
    greedy = greedy_list.greedy_cost(inst)
    opt = sum((Fraction(m, h) for h in range(1, k + 1)), Fraction(0))
    if k <= 2 and det_opt(inst) != opt:
        raise AssertionError("closed-form optimum disagrees with exhaustive search")
    return greedy, opt, greedy / opt


def random_dist(rng: random.Random, max_value: int = 6, integer_mean: bool = False) -> ProcDist:
    """Fuzz utility: a random finite distribution with exact rational
    probabilities.  With `integer_mean` the shape is constrained (point,
    symmetric pair, or zero-inflated) so the mean lands on an integer;
    either way the mean is positive."""
    if max_value < 1:
        raise ValueError("need room for at least the value 1")
    if integer_mean:
        shape = rng.randrange(3)
        if shape == 0:
            return ProcDist.point(rng.randint(1, max_value))
        if shape == 1:
            center = rng.randint(1, max_value - 1) if max_value > 1 else 1
            spread = rng.randint(1, min(center, max_value - center)) if center < max_value else 0
            if spread == 0:
                return ProcDist.point(center)
            half = Fraction(1, 2)
            return ProcDist({center - spread: half, center + spread: half})
        top = rng.randint(2, max_value) if max_value > 1 else 1
        mean = rng.randint(1, top - 1) if top > 1 else 1
        if mean == top:
            return ProcDist.point(top)
        return ProcDist({0: Fraction(top - mean, top), top: Fraction(mean, top)})
    points = rng.randint(1, min(3, max_value + 1))
    values = rng.sample(range(max_value + 1), points)
    if values == [0]:
        values = [rng.randint(1, max_value)]
    raw = [rng.randint(1, 9) for _ in values]
    total = sum(raw)
    return ProcDist({v: Fraction(a, total) for v, a in zip(values, raw)})


def check_b1(dist: ProcDist, x: Mapping[int, FractionLike]) -> Report:
    """One job, one machine: starting at t with probability x_t, the
    direct expected completion sum_t x_t (t + E) must equal the slot
    objective of the induced y-mass, term for term in exact arithmetic."""
    starts = {t: as_fraction(p) for t, p in x.items()}
    lhs = sum((p * (t + dist.mean) for t, p in starts.items()), Fraction(0))
    y = lp.y_from_x({(1, 1, t): p for t, p in starts.items()}, {(1, 1): dist})
    rhs = lp.completion_from_y(y, "S", {(1, 1): dist}).get(1, Fraction(0))
    return Report(
        name="single-job-identity",
        passed=lhs == rhs,
        metrics={"direct": lhs, "from_slots": rhs, "mean": dist.mean, "scv": dist.scv},
    )


def identity_fuzz(rng: random.Random, cases: int) -> tuple[Report, Report]:
    """Fuzz the exact identities on `cases` random distributions each.

    First the start-profile identity (`check_b1`) for profiles on up to
    three of the slots 0..7 with integer weights 1..4, then the tail
    moments sum_r P(X > r) = E[X] and sum_r (r + 1/2) P(X > r) = E[X^2]/2.
    Returns one report per family with its case and failure counts.
    """
    b1_failures = 0
    for _ in range(cases):
        dist = random_dist(rng)
        starts = sorted(rng.sample(range(8), rng.randint(1, 3)))
        raw = [rng.randint(1, 4) for _ in starts]
        total = sum(raw)
        profile = {t: Fraction(a, total) for t, a in zip(starts, raw)}
        if not check_b1(dist, profile).passed:
            b1_failures += 1

    moment_failures = 0
    for _ in range(cases):
        dist = random_dist(rng)
        rows = range(dist.max_value + 1)
        tails = sum((dist.tail(r) for r in rows), Fraction(0))
        weighted = sum(((r + Fraction(1, 2)) * dist.tail(r) for r in rows), Fraction(0))
        if tails != dist.mean or weighted != dist.second_moment / 2:
            moment_failures += 1
    return (Report("single-job-identity[fuzz]", b1_failures == 0,
                   {"cases": cases, "failures": b1_failures}),
            Report("moment-identities[fuzz]", moment_failures == 0,
                   {"cases": cases, "failures": moment_failures}))


@dataclass(frozen=True)
class StoppingProcess:
    """Adapted sequence of (A_k, Y_k) pairs against a threshold T.

    `step(rng, k)` returns the k-th pair; the contract is 0 <= A_k <= T
    and Y_k >= A_k always, with E[Y_k | history] at most 2 A_k.  The
    first two are validated per sample; the conditional-mean budget is
    the process designer's promise.
    """

    label: str
    threshold: Fraction
    step: Callable[[random.Random, int], tuple[Fraction, Fraction]]


def constant_process(threshold: FractionLike) -> StoppingProcess:
    t = as_fraction(threshold)
    return StoppingProcess("constant", t, lambda rng, k: (t, t))


def doubling_process(threshold: FractionLike) -> StoppingProcess:
    """A = T and Y is T or 3T with equal probability: E[Y] = 2A, the
    whole conditional-mean budget spent in one step."""
    t = as_fraction(threshold)

    def step(rng: random.Random, k: int) -> tuple[Fraction, Fraction]:
        return t, (t if rng.random() < 0.5 else 3 * t)

    return StoppingProcess("doubling", t, step)


def staged_process(threshold: FractionLike, stages: int = 8) -> StoppingProcess:
    """Creep to just under T deterministically, then spend the full
    budget on the final step; the stopped mean approaches 3T from below
    as stages grow, our closest constructive approach to the 4T bound."""
    t = as_fraction(threshold)
    if stages < 2:
        raise ValueError("need at least two stages")
    crumb = t / stages

    def step(rng: random.Random, k: int) -> tuple[Fraction, Fraction]:
        if k < stages:
            return crumb, crumb
        return t, (t if rng.random() < 0.5 else 3 * t)

    return StoppingProcess(f"staged[{stages}]", t, step)


def heavy_process(threshold: FractionLike, chunk: FractionLike = Fraction(1, 8),
                  tail_prob: FractionLike = Fraction(1, 16)) -> StoppingProcess:
    """Small steps with a rare heavy reward: Y = A + A/q with
    probability q, else exactly A; again E[Y] = 2A."""
    t = as_fraction(threshold)
    a = as_fraction(chunk) * t
    q = as_fraction(tail_prob)
    if not 0 < q < 1 or not 0 < a <= t:
        raise ValueError("need 0 < tail_prob < 1 and 0 < chunk*T <= T")
    cutoff = float(q)

    def step(rng: random.Random, k: int) -> tuple[Fraction, Fraction]:
        return a, (a + a / q if rng.random() < cutoff else a)

    return StoppingProcess("heavy", t, step)


def check_b2(process: StoppingProcess, trials: int, seed: int) -> Report:
    """Simulate the stopped sum and test E[sum_{k<=tau} Y_k] <= 4T.

    Each trial runs the process until the running sum reaches T,
    validating the sample-path hypotheses as it goes; a violation means
    the process specification is broken, not the bound.
    """
    if trials < 2:
        raise ValueError("need at least two trials for an interval")
    t = process.threshold
    if t <= 0:
        raise ValueError("threshold must be positive")
    sums = []
    taus = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        acc = Fraction(0)
        k = 0
        while acc < t:
            k += 1
            a, y = process.step(rng, k)
            a, y = as_fraction(a), as_fraction(y)
            if not 0 <= a <= t:
                raise HypothesisViolatedError(
                    f"{process.label}: A_{k} = {a} outside [0, T={t}]")
            if y < a:
                raise HypothesisViolatedError(f"{process.label}: Y_{k} = {y} < A_{k} = {a}")
            acc += y
        sums.append(float(acc))
        taus.append(k)
    n = len(sums)
    mean = sum(sums) / n
    var = sum((s - mean) ** 2 for s in sums) / (n - 1)
    ci = 1.96 * math.sqrt(var / n)
    bound = 4 * float(t)
    return Report(
        name=f"stopped-sum[{process.label}]",
        passed=mean <= bound + 3 * ci,
        metrics={
            "threshold": t,
            "trials": trials,
            "mean": mean,
            "ci95": ci,
            "bound": bound,
            "mean_stop": sum(taus) / n,
        },
    )


def check_lemma5(inst: Instance, f: FractionLike, samples: int, seed: int) -> Report:
    """Per-job completion bound of the release-aware greedy.

    Each job's bound is four times its modified release plus twice the
    expected work at or above its priority on its machine.  Point-mass
    instances are checked exactly on the single trace; otherwise the
    Monte Carlo mean must stay within three intervals of the bound.
    """
    f = as_fraction(f)
    assignment = greedy_time.assign(inst, f)
    bounds: dict[int, Fraction] = {}
    for job in inst.jobs:
        machine = assignment.machine_of(job.id)
        ahead = priority_split(inst, machine, job.id).before
        work = sum((inst.mean(machine, k) for k in ahead
                    if assignment.machine_of(k) == machine), Fraction(0))
        bounds[job.id] = 4 * greedy_time.modified_release(inst, job.id, machine, f) + 2 * work

    deterministic = all(d is None or d.is_point for job in inst.jobs for d in job.proc)
    violations = []
    if deterministic:
        values = tuple(tuple(None if d is None else d.support[0] for d in job.proc)
                       for job in inst.jobs)
        trace = greedy_time.simulate_wall_clock(
            inst, assignment, greedy_time.Realization(values), f)
        worst = None
        for job in inst.jobs:
            got = trace.trace(job.id).completed
            margin = bounds[job.id] - got
            if worst is None or margin < worst:
                worst = margin
            if got > bounds[job.id]:
                violations.append(Violation(f"job_{job.id}", got, bounds[job.id]))
        return Report(
            name="per-job-bound[exact]",
            passed=not violations,
            metrics={"jobs": inst.n, "f": f, "samples": 1},
            violations=tuple(violations),
            min_slack=worst,
        )

    est = greedy_time.estimate_cost(inst, f, samples, seed)
    worst_gap = None
    for job in inst.jobs:
        got = est.per_job_mean[job.id - 1]
        allowed = float(bounds[job.id]) + 3 * est.per_job_ci95[job.id - 1]
        gap = allowed - got
        if worst_gap is None or gap < worst_gap:
            worst_gap = gap
        if got > allowed:
            violations.append(Violation(f"job_{job.id}", got, allowed))
    return Report(
        name="per-job-bound[mc]",
        passed=not violations,
        metrics={"jobs": inst.n, "f": f, "samples": samples, "worst_gap": worst_gap},
        violations=tuple(violations),
    )
