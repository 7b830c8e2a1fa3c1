"""Ground truth at desk scale: exact deterministic optima, an exact
dynamic program for the adaptive stochastic optimum on tiny instances,
the tightness family for the list greedy, and simulation checkers for
the single-job completion identity, the stopped-sum bound, and the
per-job completion bound.  That last check judges the greedy run and
the forced-idle Monte Carlo estimate it is handed; it runs neither.

The two optima are exact dynamic programs: `det_opt` over job subsets,
adding one machine's chain costs at a time in O(m 3^n) steps, and
`stoch_opt` over information states, each packed into one int: the
unstarted bitmask plus, per machine, a code for its running job and
elapsed time, with every start and one-unit move read from tables built
before the recursion.  Each reads the instance's integer view, the
weights of `Instance.scaled` and each pmf's `ProcDist.counts`, and
builds a single `Fraction` at the end.  Neither optimum shares logic
with the greedy rules it judges: no priority order, expected increase
or dispatch step of theirs is reused, so a fault in a greedy rule
cannot also sit in the yardstick it is measured against.  The view is
instance data, not greedy logic: `test_core` pins it against
`Fraction`s, and the optima of `tests/reference.py` share none of it.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import greedy_list, greedy_time, lp
from .core import FractionLike, Instance, Job, ProcDist, as_fraction, exact_int, list_schedule
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
    "appendix_checks",
    "check_lemma5",
    "random_dist",
]

DET_OPT_MAX_JOBS = 9
DET_OPT_MAX_JOBS_RELEASED = 6
STOCH_OPT_MAX_JOBS = 4
STOCH_OPT_MAX_MACHINES = 2
STOCH_OPT_MAX_VALUE = 4
LOWER_BOUND_MAX_K = 6


def det_opt(inst: Instance) -> Fraction:
    """Exact optimum for point-mass instances, by a dynamic program over
    job subsets, each subset a bitmask of 0-based job indices.

    Machine i's chain table holds, for every set S of jobs, the cost of
    running S on machine i alone.  Without releases i serves in ratio
    order (Smith's rule), whose cost is every job's w_j p_j plus, for
    every pair of its jobs, the cheaper of their two orders,
    min(w_j p_k, w_k p_j); so chain[S] is chain[S - j] plus j's own term
    and its pair terms, j the last job of S.  With releases it is the
    minimum over every order of S, each job starting as early as its
    release allows.  A set holding a job that i forbids costs `never`,
    more than any schedule of the whole instance.

    Machines are then added one at a time: best[S], the cheapest way to
    run S on the machines so far, is the minimum over T, a subset of
    the jobs outside S, of the previous best[S - T] plus the new
    machine's chain[T].  The last machine takes the complement of each
    S with one lookup.  Disjoint pairs (S - T, T) number 3^n, so this
    takes O(m 3^n) steps, and O(2^n) on two machines, where trying every
    assignment takes m^n.  A chain table takes O(2^n) steps without
    releases and one step per ordered prefix, under e n!, with them.

    Point-mass means are integers, and the weights are read from the
    instance's integer view, over their lcm `weight_scale`, so the
    program runs on ints and one `Fraction` is built at the end.
    """
    if not inst.deterministic:
        raise ValueError("the deterministic optimum needs point-mass distributions")
    jobs = inst.jobs
    if not jobs:
        return Fraction(0)  # the tables below need a job to size `never`
    last_release = jobs[-1].release  # releases are nondecreasing in id
    released = last_release > 0
    limit = DET_OPT_MAX_JOBS_RELEASED if released else DET_OPT_MAX_JOBS
    if len(jobs) > limit:
        raise TooLargeError(f"{len(jobs)} jobs exceeds the exhaustive limit of {limit}")

    scale, _, weight, _ = inst.scaled
    # columns[i][j], job j's duration on machine i, None where i forbids j
    columns = [[None if d is None else d.pmf[0][0] for d in column]
               for column in zip(*[job.proc for job in jobs])]
    # a schedule starting every job as early as it can ends each job by the
    # last release plus every permitted duration, so costs less than this
    never = 1 + sum(weight) * (last_release + sum([sum(filter(None, c)) for c in columns]))
    if released:
        release = [job.release for job in jobs]
        chains = [_released_chain(weight, release, column, never) for column in columns]
    else:
        chains = [_smith_chain(weight, column, never) for column in columns]

    everyone = (1 << len(jobs)) - 1
    *middle, last = chains
    # the first machine's chain is its best; with none, only the empty set is done
    best = middle.pop(0) if middle else [0] + [never] * everyone
    for chain in middle:
        grown = best[:]  # T empty
        for done, cost in enumerate(best):
            if cost >= never:
                continue  # done holds a job that no machine so far runs
            free = members = everyone ^ done
            while members:  # every nonempty subset T of free
                total = cost + chain[members]
                if total < grown[done | members]:
                    grown[done | members] = total
                members = (members - 1) & free
        best = grown
    # last[everyone ^ S] sits at position everyone - S
    total = min(map(operator.add, best, reversed(last)))
    return Fraction(total) if scale == 1 else Fraction(total, scale)


def _smith_chain(weight: list[int], duration: list[Optional[int]], never: int) -> list[int]:
    """Chain table of one machine without releases: the ratio-order cost
    of every job set, indexed by its bitmask, or `never` for a set with
    a forbidden job.  Sets are built a job at a time; a set that gains
    j costs j's own term w_j p_j and one pair term per member more."""
    chain = [0]
    for j, p in enumerate(duration):
        if p is None:
            chain += [never] * len(chain)
            continue
        w = weight[j]
        # j's extra cost for each set of earlier jobs, in the table's order
        extra = [w * p]
        for k in range(j):
            q = duration[k]
            if q is None:
                extra += extra  # those sets cost never already
            else:
                pair = min(w * q, weight[k] * p)
                extra += [e + pair for e in extra]
        chain += [c + e for c, e in zip(chain, extra)]
    return chain


def _released_chain(weight: list[int], release: list[int],
                    duration: list[Optional[int]], never: int) -> list[int]:
    """Chain table of one machine with releases: the cost of every job
    set in its cheapest order, each job starting at its release or when
    the machine frees up, whichever is later.  Orders are walked as a
    tree of prefixes, so orders that share a prefix price it once."""
    chain = [0] + [never] * ((1 << len(duration)) - 1)
    permitted = [j for j, p in enumerate(duration) if p is not None]

    def extend(members: int, clock: int, cost: int) -> None:
        for j in permitted:
            if members >> j & 1:
                continue
            finish = max(clock, release[j]) + duration[j]
            total = cost + weight[j] * finish
            grown = members | 1 << j
            if total < chain[grown]:
                chain[grown] = total
            extend(grown, finish, total)

    extend(0, 0, 0)
    return chain


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

    The program runs on ints read from the instance's integer view: job
    j's pmf on machine i is its `ProcDist`'s counts a_v over its `scale`
    t_ij, with tail counts T_ij(e) = sum_{v>e} a_v; L_j is the lcm of
    j's t_ij and W the weight scale.  A state's value V is carried as
    U = V * W * prod_busy T(e) * prod_unstarted L_j, an integer:
    starting j on i gives (L_j / t_ij) * (a_0 U(rest) + U(occupied)),
    advancing gives pay * W * prod T(e) * prod L plus, over the unit's
    outcomes, prod_completing a_{e+1} * U(next).  All candidates of one
    state share its scale, so the minimum is taken on U directly, and
    the answer is U(start) / (W * prod_j L_j).  The scaling of states
    is the program's own and follows the state space, not the greedy's
    priorities, so the optimum stays an independent check on them.

    A state is one int, the memo's key: the unstarted bitmask plus, per
    machine i, a slot code times stride_i = 2^n B^i, with
    B = 1 + n (STOCH_OPT_MAX_VALUE + 1).  The code is 0 on an idle
    machine and 1 + j (STOCH_OPT_MAX_VALUE + 1) + e while job j has run
    e units, so a start trades j's bit for its first code, a unit more
    of work adds stride_i and a completion takes the code away.  Two
    tables are built before the recursion: each job's start options
    (machine, a_0, L_j / t_ij, and the first code times the stride, or 0
    when T(0) = 0), and for each (machine, code) the move one unit on
    (w_j, T(e), a_{e+1}, the code times the stride, and the stride, or 0
    when T(e+1) = 0 and the job cannot continue).  A unit's outcomes are
    built machine by machine, and a branch of probability zero is never
    made.
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

    n = inst.n
    machines = range(inst.machines)
    w_scale, _, weight, _ = inst.scaled
    # job j after e units holds slot code 1 + j * span + e; a job that
    # can still run has e < STOCH_OPT_MAX_VALUE, so e + 1 indexes a_v
    span = STOCH_OPT_MAX_VALUE + 1
    base = 1 + n * span
    stride = [base ** i << n for i in machines]
    lcm: list[int] = []
    # options[j]: (i, a_0, L_j / t_ij, first code * stride_i, or 0 when T(0) = 0)
    options: list[list[tuple[int, int, int, int]]] = []
    # moves[i][code]: (w_j, T(e), a_{e+1}, code * stride_i, stride_i or 0 when
    # T(e+1) = 0); () for code 0, an idle machine
    moves: list[list[tuple]] = [[()] * base for _ in machines]
    for j, job in enumerate(inst.jobs):
        pairs = []  # (i, counts a_v of v = 0..STOCH_OPT_MAX_VALUE, t_ij)
        for i, d in enumerate(job.proc):
            if d is not None:
                a = [0] * span
                for (v, _), count in zip(d.pmf, d.counts):
                    a[v] = count
                pairs.append((i, a, d.scale))
        lcm.append(math.lcm(*(t for _, _, t in pairs)))
        options.append([])
        first = 1 + j * span
        for i, a, t in pairs:
            tail = [sum(a[e + 1:]) for e in range(span)]
            options[j].append((i, a[0], lcm[j] // t, first * stride[i] if tail[0] else 0))
            for e in range(span - 1):
                if tail[e]:
                    code = first + e
                    moves[i][code] = (weight[j], tail[e], a[e + 1], code * stride[i],
                                      stride[i] if tail[e + 1] else 0)
    # per unstarted set, a bitmask of 0-based jobs: prod L_j, sum of weights,
    # and each start (j's bit, then j's option)
    subsets = range(1 << n)
    lcm_prod = [math.prod(lcm[j] for j in range(n) if mask >> j & 1) for mask in subsets]
    pay_of = [sum(weight[j] for j in range(n) if mask >> j & 1) for mask in subsets]
    starts_of = [[(1 << j, *option) for j in range(n) if mask >> j & 1 for option in options[j]]
                 for mask in subsets]

    everyone = (1 << n) - 1
    memo = {0: 0}

    def value(state: int) -> int:
        """U of a state not yet in the memo; each successor is read from
        the memo when it is there, without a call."""
        unstarted = state & everyone
        slots = []  # per machine, its move, or () when it is idle
        running = state >> n
        for row in moves:
            running, code = divmod(running, base)
            slots.append(row[code])
        best: Optional[int] = None

        for bit, i, a0, widen, placed in starts_of[unstarted]:
            if slots[i]:
                continue
            rest = state - bit
            u = 0
            if a0:  # completes instantly at the current epoch, at zero cost
                u = a0 * (memo[rest] if rest in memo else value(rest))
            if placed:
                rest += placed
                u += memo[rest] if rest in memo else value(rest)
            u *= widen
            if best is None or u < best:
                best = u

        if any(slots):
            # advance one unit: everyone uncompleted pays its weight
            pay = pay_of[unstarted]
            scale = lcm_prod[unstarted]
            outcomes = [(1, state)]  # (prod_completing a_{e+1}, next state)
            for move in slots:
                if not move:
                    continue
                w, t, hit, here, onward = move
                pay += w
                scale *= t
                grown = []
                for factor, nxt in outcomes:
                    if hit:
                        grown.append((factor * hit, nxt - here))
                    if onward:
                        grown.append((factor, nxt + onward))
                outcomes = grown
            u = pay * scale
            for factor, nxt in outcomes:
                u += factor * (memo[nxt] if nxt in memo else value(nxt))
            if best is None or u < best:
                best = u

        memo[state] = best
        return best

    start = memo[everyone] if everyone in memo else value(everyone)
    return Fraction(start, w_scale * lcm_prod[everyone])


def gen_lower_bound(k: int, m: int) -> Instance:
    """The tightness family: unit jobs (h, l) for h = 1..k, l = 1..m/h^2,
    runnable on machines 1..l only, ids handed out in decreasing l so
    the arrival tie rule serves wider jobs first."""
    if not exact_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not exact_int(m) or m < 1:
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
    if not exact_int(k) or k < 1:
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


# the heavy process's step A as a share of T, and its tail probability q
_HEAVY_CHUNK = Fraction(1, 8)
_HEAVY_TAIL_PROB = Fraction(1, 16)


def heavy_process(threshold: FractionLike) -> StoppingProcess:
    """Small steps with a rare heavy reward: A = T/8 and Y = A + A/q
    with probability q = 1/16, else exactly A; again E[Y] = 2A."""
    t = as_fraction(threshold)
    if t <= 0:
        raise ValueError("threshold must be positive")
    a = _HEAVY_CHUNK * t
    q = _HEAVY_TAIL_PROB
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


def appendix_checks(rng: random.Random, cases: int, trials: int,
                    seed: int) -> tuple[Report, ...]:
    """The appendix's checks: `identity_fuzz` on `cases` distributions
    per family, then `check_b2` on the four stopped-sum processes at
    threshold 8, each over `trials` trials from `seed`."""
    threshold = Fraction(8)
    processes = (constant_process(threshold), doubling_process(threshold),
                 staged_process(threshold), heavy_process(threshold))
    # before the fuzz, which alone draws from `rng`: a refused trial count costs none
    stopped = [check_b2(p, trials, seed) for p in processes]
    return (*identity_fuzz(rng, cases), *stopped)


def _lemma5_bounds(inst: Instance, f: Fraction,
                   assignment: greedy_list.Assignment) -> dict[int, Fraction]:
    """Per job: four times its modified release plus twice its completion
    in the expected-duration schedule, which is the expected work at or
    above its priority on its machine."""
    mean_scale = inst.scaled.mean_scale
    bounds: dict[int, Fraction] = {}
    for machine, rows in list_schedule(inst, assignment.as_mapping()).items():
        for job_id, _, completion in rows:
            release = greedy_time.modified_release(inst, job_id, machine, f)
            bounds[job_id] = 4 * release + 2 * Fraction(completion, mean_scale)
    return bounds


def check_lemma5(inst: Instance, f: FractionLike, assignment: greedy_list.Assignment,
                 estimate: greedy_time.CostEstimate) -> Report:
    """Per-job completion bound of the release-aware greedy.

    Each job's bound is four times its modified release plus twice the
    expected work at or above its priority on its machine.  It judges
    `assignment`, the greedy's `greedy_time.assign(inst, f)`, and
    `estimate`, a forced-idle `greedy_time.estimate_cost` on it (the
    bound is stated for that policy, so another mode is refused).
    Point-mass instances are checked exactly on the single trace and
    `estimate` is not read; otherwise the Monte Carlo mean must stay
    within three intervals.
    """
    f = as_fraction(f)
    if not inst.deterministic and estimate.mode != "forced-idle":
        raise ValueError(f"the bound needs a forced-idle estimate, got {estimate.mode}")
    bounds = _lemma5_bounds(inst, f, assignment)

    if inst.deterministic:
        values = tuple(tuple(None if d is None else d.support[0] for d in job.proc)
                       for job in inst.jobs)
        trace = greedy_time.simulate_wall_clock(
            inst, assignment, greedy_time.Realization(values), f)
        # (completion, bound) per job
        rows = [(trace.trace(job.id).completed, bounds[job.id]) for job in inst.jobs]
    else:
        # (mean completion, bound plus three intervals) per job
        rows = [(mean, float(bounds[job.id]) + 3 * ci) for job, mean, ci in
                zip(inst.jobs, estimate.per_job_mean, estimate.per_job_ci95)]
    violations = tuple(Violation(f"job_{job.id}", got, allowed)
                       for job, (got, allowed) in zip(inst.jobs, rows) if got > allowed)
    worst = min((allowed - got for got, allowed in rows), default=None)
    if inst.deterministic:
        return Report(name="per-job-bound[exact]", passed=not violations,
                      metrics={"jobs": inst.n, "f": f, "samples": 1},
                      violations=violations, min_slack=worst)
    return Report(name="per-job-bound[mc]", passed=not violations,
                  metrics={"jobs": inst.n, "f": f, "samples": estimate.samples, "worst_gap": worst},
                  violations=violations)
