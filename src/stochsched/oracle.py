"""Ground truth at desk scale: exact deterministic optima, an exact
dynamic program for the adaptive stochastic optimum on small instances,
the tightness family for the list greedy, and checkers for the
single-job completion identity, the stopped-sum bound (an exact
expectation over each process's paths), and the per-job completion
bound.  That last check judges the greedy run and
the forced-idle Monte Carlo estimate it is handed; it runs neither.

The two optima are exact dynamic programs: `det_opt` over job subsets,
adding one machine's chain costs at a time in O(m 3^n) steps, and
`stoch_opt` over information states, each packed into one int: the
unstarted bitmask plus, per machine, a code for its running job and
elapsed time, with every start and every jump to the next information
epoch (the next support value of a running job) read from tables built
before the recursion.  A state with every job started is priced in
closed form, sum_busy w_j R_ij(e) prod_{k != i} T_k(e_k) (R the residual
and T the tail counts), and each running vector's busy machines, pay,
tails, closed form and jump outcomes are read once into a table that
every unstarted set shares.  Each reads the instance's integer view, the
weights and means of `Instance.scaled` and each pmf's `ProcDist.counts`,
and builds a single `Fraction` at the end.  Each counts its work before
its first step and refuses past a limit.  Neither optimum shares logic
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
from typing import Callable, Mapping, Optional, Sequence

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

DET_OPT_MAX_STEPS = 10_000_000
STOCH_OPT_MAX_STATES = 500_000
STOCH_OPT_MAX_DEPTH = 500
LOWER_BOUND_MAX_K = 6


def det_opt(inst: Instance) -> Fraction:
    """Exact optimum for point-mass instances, by a dynamic program over
    job subsets, each subset a bitmask of 0-based job indices, on ints:
    the durations and weights of the instance's integer view, over
    `mean_scale` (1 on point masses) and `weight_scale`, with one
    `Fraction` built at the end.

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
    S with one lookup, so each middle machine visits the 3^n disjoint
    pairs (S - T, T), where trying every assignment takes m^n.  Counted
    first, a pair is one step (75 ns) and a chain entry eight: a set
    (130 ns, 50-60 bytes) or, with releases, an ordered prefix of the
    machine's jobs (a 0.6 us call).  Past `DET_OPT_MAX_STEPS` it raises
    `TooLargeError`; at the limit it took at most 0.63 s CPU and 74 MB
    RSS (16 shapes of 1-150 machines, 2-CPU x86, Python 3.11).
    """
    if not inst.deterministic:
        raise ValueError("the deterministic optimum needs point-mass distributions")
    jobs = inst.jobs
    if not jobs:
        return Fraction(0)  # the tables below need a job to size `never`
    last_release = jobs[-1].release  # releases are nondecreasing in id
    released = last_release > 0
    w_scale, m_scale, weight, means = inst.scaled
    # columns[i][j], job j's duration on machine i, None where i forbids j
    columns = [[None if d is None else means[id(d)] for d in column]
               for column in zip(*[job.proc for job in jobs])]
    n = len(jobs)
    steps = max(len(columns) - 2, 0) * 3 ** n + (8 * len(columns) << n)
    if released and steps <= DET_OPT_MAX_STEPS:  # so n < 21, and each p! is short
        steps += 8 * sum(math.perm(n - c.count(None), k) for c in columns for k in range(1, n + 1))
    if steps > DET_OPT_MAX_STEPS:
        raise TooLargeError(f"the subset program needs {steps:,} steps, over its limit of {DET_OPT_MAX_STEPS:,}")
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
    scale = w_scale * m_scale  # the mean scale is 1 on point masses
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

    Exact dynamic program over information states: which job runs on each
    machine and for how long it has been running (conditioning its remaining
    time), plus the set of jobs not yet started.  Decisions happen at
    information epochs only: time 0 and each time a running job may end,
    a support value of its duration.  Within an epoch the policy may start
    any number of jobs on idle machines, then either jumps to the next
    epoch or, with every machine idle and work remaining, a start is forced
    (delaying the whole remainder can never pay off).  Nothing is lost:
    between two epochs no job can end, so the policy learns nothing, and a
    start inside such a gap is dominated by the same start at the gap's
    start.  The earlier schedule can copy the later one by idling that
    machine after the job ends for as long as the start was moved, and it
    learns that end no later; each other job ends when it did.  Costs are
    accounted as weight-per-unit-time: every uncompleted job pays its
    weight for each elapsed unit, which sums to the weighted completion
    total.  The policy knows every job up front (no releases) but no
    duration before it ends.

    The program runs on ints read from the instance's integer view: job
    j's pmf on machine i is its `ProcDist`'s counts a_v over its `scale`
    t_ij, with tail counts T_ij(e) = sum_{v>e} a_v and residual counts
    R_ij(e) = sum_{v>e} (v - e) a_v; L_j is the lcm of j's t_ij and W the
    weight scale.  A state's value V is carried as
    U = V * W * prod_busy T(e) * prod_unstarted L_j, an integer:
    starting j on i gives (L_j / t_ij) * (a_0 U(rest) + U(occupied)).
    The jump from a state with a busy machine is d units, the least gap
    over the busy machines from e to the next support value of their job.
    T is constant across a gap, so a machine whose gap is longer runs on
    d units with factor 1, and one whose gap is d completes with a_{e+d}
    or, when T(e+d) > 0, runs on with factor 1: jumping gives
    d * pay * W * prod T(e) * prod L plus, over the jump's outcomes,
    prod_completing a_{e+d} * U(next).  All candidates of one state share
    its scale, so the minimum is taken on U directly, and the answer is
    U(start) / (W * prod_j L_j).  Once every job has started no decision
    is left, and U is the closed form
    sum_busy i w_j R_i(e_i) prod_{k != i} T_k(e_k), each running job's
    weight times its expected remaining time; so starting the last job
    j on i gives L_j U(rest) + (L_j / t_ij) w_j R_ij(0) prod T(e), and
    the search never walks the chains of those states.

    A state is one int, the memo's key: the unstarted bitmask plus, per
    machine i, a slot code times stride_i = 2^n B^i, with B = 1 + n span
    and span = 1 + the largest support value.  The code is 0 on an idle
    machine and 1 + j span + e while job j has run e units, so a start
    trades j's bit for its first code, d units more of work add
    d stride_i and a completion takes the code away.  Each start, and
    each code's gap with the branches of a jump that long, is read from
    a table built before the recursion.  The running part of a state,
    state >> n, keys a second table, filled the first time a running
    vector is seen and shared by every unstarted set: its busy machines,
    their pay and prod T(e), its closed form, d prod T(e), and the
    jump's outcomes as (prod_completing a_{e+d}, state delta), none of
    probability zero.  A vector that leaves one job to start meets one
    unstarted set only, so its entry is built for that state and not
    kept.

    The work is bounded first.  Machine i is idle or holds one of its
    sum_j top_ij codes (top_ij the largest value of j on i), and k busy
    machines leave 2^(n-k) unstarted sets: at most sum_k ways_k 2^(n-k)
    states, ways_k the ways to give k machines a code each; on gapped
    supports most of those codes are never reached.  A call starts a job
    or jumps, which takes some running job to its next support value, so
    calls nest at most n + sum_j max_i |{v > 0 in support_ij}| deep.
    Past either limit (the depth is half of Python's default recursion
    limit) it raises `TooLargeError`; at the state limit it took at most
    0.95 s CPU and 76 MB RSS (75 shapes of 1-5 machines, each pair
    uniform on 1..v for v of 1-15, best of 2 runs, 2-CPU x86, Python
    3.11).
    """
    if inst.has_releases:
        raise ValueError("the adaptive-optimum program handles release-free instances only")
    n = inst.n
    machines = range(inst.machines)
    top = [[0 if d is None else d.max_value for d in job.proc] for job in inst.jobs]  # 0: forbidden
    ways = [1] + [0] * n  # ways[k]: the ways to give k machines a (job, units run) code each
    for codes in map(sum, zip(*top)):
        for k in range(n, 0, -1):
            ways[k] += ways[k - 1] * codes
    # each jump takes a running job to its next support value above 0
    points = [max(len(d.pmf) - (d.pmf[0][0] == 0) for d in job.proc if d is not None) for job in inst.jobs]
    states, depth = sum(w << n - k for k, w in enumerate(ways)), n + sum(points)
    if states > STOCH_OPT_MAX_STATES or depth > STOCH_OPT_MAX_DEPTH:
        raise TooLargeError(f"the state program may visit {states:,} states {depth:,} calls deep, over its limits "
                            f"of {STOCH_OPT_MAX_STATES:,} states and {STOCH_OPT_MAX_DEPTH:,} calls")
    w_scale, _, weight, _ = inst.scaled
    # a running job has e below its largest value, so its codes fit in span
    span = 1 + max(map(max, top), default=0)
    base = 1 + n * span
    stride = [base ** i << n for i in machines]
    lcm = [math.lcm(*(d.scale for d in job.proc if d is not None)) for job in inst.jobs]
    # options[j]: (j's bit, i's bit, a_0, L_j / t_ij, first code * stride_i,
    # L_j / t_ij * w_j R(0)); T(0) > 0, as every mean is positive
    options: list[list[tuple[int, int, int, int, int, int]]] = [[] for _ in inst.jobs]
    # moves[i][code]: (i's bit, w_j, T(e), w_j R(e), the gap g to j's next
    # support value, the branches of a jump of g as (a_{e+g}, -code * stride_i)
    # and, when T(e+g) > 0, (1, g stride_i)); () for code 0, an idle machine
    moves: list[list[tuple]] = [[()] * base for _ in machines]
    for j, job in enumerate(inst.jobs):
        first, w = 1 + j * span, weight[j]
        for i, d in enumerate(job.proc):
            if d is None:
                continue
            a = {v: count for (v, _), count in zip(d.pmf, d.counts)}
            row, step, place, high = moves[i], stride[i], 1 << i, d.max_value
            t = r = 0  # T(e) and R(e), from T(high) = R(high) = 0 down
            after = high  # the least support value above e
            for e in range(high - 1, -1, -1):
                hit = a.get(e + 1, 0)
                if hit:
                    after = e + 1
                t += hit
                r += t
                gap, ends = after - e, ((a[after], -(first + e) * step),)
                if after < high:
                    ends += ((1, gap * step),)
                row[first + e] = (place, w, t, w * r, gap, ends)
            widen = lcm[j] // d.scale
            options[j].append((1 << j, place, a.get(0, 0), widen, first * step, widen * w * r))
    # per unstarted set, a bitmask of 0-based jobs: prod L_j, sum of weights
    # and each start; a set whose highest job is j is a set below 2^j plus j
    lcm_prod, pay_of, starts_of = [1], [0], [[]]
    for j, own in enumerate(options):
        lcm_j, w = lcm[j], weight[j]
        lcm_prod += [p * lcm_j for p in lcm_prod]
        pay_of += [p + w for p in pay_of]
        starts_of += [s + own for s in starts_of]

    everyone = (1 << n) - 1
    memo = {0: 0}
    table: dict[int, tuple] = {}  # running vector (a state >> n): its entry

    def entry_of(running: int) -> tuple:
        """The table entry of a running vector: the busy machines' bits,
        their pay, prod T(e), U with no job left to start (in closed
        form), the jump d to the next epoch times prod T(e), and the
        jump's outcomes as (prod_completing a_{e+d}, state delta), none
        of probability zero."""
        busy = pay = closed = 0
        prod = 1
        jump = span  # more than any gap
        held = []  # per busy machine: (gap, its jump's branches, stride_i)
        rest = running
        for row, step in zip(moves, stride):
            rest, code = divmod(rest, base)
            if code:
                place, w, t, wr, gap, ends = row[code]
                busy |= place
                pay += w
                closed = closed * t + wr * prod  # the closed form, a machine at a time
                prod *= t
                if gap < jump:
                    jump = gap
                held.append((gap, ends, step))
            if not rest:
                break  # every machine left is idle
        outcomes: Sequence[tuple[int, int]] = ()
        for gap, ends, step in held:
            # a machine whose gap is the jump may end; any other runs on
            branches = ends if gap == jump else ((1, jump * step),)
            outcomes = ([(factor * f, delta + d) for factor, delta in outcomes for f, d in branches]
                        if outcomes else branches)
        entry = (busy, pay, prod, closed, jump * prod, outcomes)
        if n - busy.bit_count() > 1:  # else its one unstarted set is its only reader
            table[running] = entry
        return entry

    def value(state: int) -> int:
        """U of a state with a job to start, not yet in the memo; each
        successor is read from the memo when it is there, without a call."""
        unstarted = state & everyone
        running = state >> n
        busy, pay, prod, closed, due, outcomes = table.get(running) or entry_of(running)
        scale = lcm_prod[unstarted]
        best: Optional[int] = None

        if unstarted & (unstarted - 1):
            for bit, place, a0, widen, placed, _ in starts_of[unstarted]:
                if busy & place:
                    continue
                rest = state - bit
                u = 0
                if a0:  # completes instantly at the current epoch, at zero cost
                    u = a0 * (memo[rest] if rest in memo else value(rest))
                rest += placed
                u = (u + (memo[rest] if rest in memo else value(rest))) * widen
                if best is None or u < best:
                    best = u
        else:
            # the last job: a start leaves no decision and, as a_0 + T(0) = t_ij,
            # costs L_j closed + (L_j / t_ij) w_j R(0) prod, so the cheapest
            # start has the least (L_j / t_ij) w_j R(0), its option's last field
            for _, place, _, _, _, lead in starts_of[unstarted]:
                if not busy & place and (best is None or lead < best):
                    best = lead
            if best is not None:
                best = scale * closed + best * prod

        if outcomes:
            # jump to the next epoch: everyone uncompleted pays its weight per unit
            u = (pay_of[unstarted] + pay) * scale * due
            for factor, delta in outcomes:
                nxt = state + delta
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

    `step(k)` returns A_k and the law of Y_k as (probability, Y)
    branches.  The contract is 0 <= A_k <= T, Y_k >= A_k on every branch
    and E[Y_k] <= 2 A_k; the law depends on k alone, so that mean is
    also the one conditional on the history.  `check_b2` checks all
    three exactly at every step it reaches.
    """

    label: str
    threshold: Fraction
    step: Callable[[int], tuple[FractionLike, Sequence[tuple[FractionLike, FractionLike]]]]


def constant_process(threshold: FractionLike) -> StoppingProcess:
    t = as_fraction(threshold)
    return StoppingProcess("constant", t, lambda k: (t, ((1, t),)))


def doubling_process(threshold: FractionLike) -> StoppingProcess:
    """A = T and Y is T or 3T with equal probability: E[Y] = 2A, the
    whole conditional-mean budget spent in one step."""
    t = as_fraction(threshold)
    law = ((Fraction(1, 2), t), (Fraction(1, 2), 3 * t))
    return StoppingProcess("doubling", t, lambda k: (t, law))


def staged_process(threshold: FractionLike, stages: int = 8) -> StoppingProcess:
    """Creep to T - T/stages deterministically, then spend the full
    budget on the final step as `doubling_process` does: the stopped
    mean is exactly 3T - T/stages."""
    t = as_fraction(threshold)
    if stages < 2:
        raise ValueError("need at least two stages")
    crumb = t / stages
    final = doubling_process(t).step(stages)
    return StoppingProcess(f"staged[{stages}]", t,
                           lambda k: (crumb, ((1, crumb),)) if k < stages else final)


def heavy_process(threshold: FractionLike) -> StoppingProcess:
    """Small steps with a rare heavy reward: A = T/8 and Y = A + A/q
    with probability q = 1/16, else exactly A; again E[Y] = 2A."""
    t = as_fraction(threshold)
    if t <= 0:
        raise ValueError("threshold must be positive")
    a, q = t / 8, Fraction(1, 16)
    law = ((1 - q, a), (q, a + a / q))
    return StoppingProcess("heavy", t, lambda k: (a, law))


def check_b2(process: StoppingProcess) -> Report:
    """Compute E[sum_{k<=tau} Y_k] exactly and test it against 4T, with
    tau the first k whose running sum reaches T.

    The paths still below T advance one step at a time, merged by their
    running sum, and each step's law is checked against the hypotheses
    when it is first reached; a violation means the process
    specification is broken, not the bound.  Returns the stopped mean
    and E[tau] as `Fraction`s.
    """
    t = process.threshold
    if t <= 0:
        raise ValueError("threshold must be positive")
    label = process.label
    below = {Fraction(0): Fraction(1)}  # running sum under T -> its probability
    mean = mean_stop = Fraction(0)
    k = 0
    while below:
        k += 1
        a, law = process.step(k)
        a = as_fraction(a)
        law = [(as_fraction(p), as_fraction(y)) for p, y in law]
        if not 0 <= a <= t:
            raise HypothesisViolatedError(f"{label}: A_{k} = {a} outside [0, T={t}]")
        for p, y in law:
            if p <= 0:
                raise HypothesisViolatedError(f"{label}: Y_{k} = {y} has probability {p}")
            if y < a:
                raise HypothesisViolatedError(f"{label}: Y_{k} = {y} < A_{k} = {a}")
        total = sum((p for p, _ in law), Fraction(0))
        if total != 1:
            raise HypothesisViolatedError(f"{label}: step {k}'s probabilities sum to {total}")
        drift = sum((p * y for p, y in law), Fraction(0))
        if drift > 2 * a:
            raise HypothesisViolatedError(f"{label}: E[Y_{k}] = {drift} > 2 A_{k} = {2 * a}")
        going: dict[Fraction, Fraction] = {}
        for acc, reach in below.items():
            for p, y in law:
                s, w = acc + y, reach * p
                if s >= t:
                    mean += w * s
                    mean_stop += w * k
                else:
                    going[s] = going.get(s, 0) + w
        below = going
    return Report(
        name=f"stopped-sum[{label}]",
        passed=mean <= 4 * t,
        metrics={"threshold": t, "mean": mean, "bound": 4 * t, "mean_stop": mean_stop},
    )


def appendix_checks(rng: random.Random, cases: int) -> tuple[Report, ...]:
    """The appendix's checks: `identity_fuzz` on `cases` distributions
    per family, then `check_b2` on the four stopped-sum processes at
    threshold 8."""
    threshold = Fraction(8)
    processes = (constant_process(threshold), doubling_process(threshold),
                 staged_process(threshold), heavy_process(threshold))
    return (*identity_fuzz(rng, cases), *(check_b2(p) for p in processes))


def _lemma5_bounds(inst: Instance, f: Fraction,
                   assignment: greedy_list.Assignment) -> dict[int, Fraction]:
    """Per job: four times its modified release plus twice its completion
    in the expected-duration schedule, which is the expected work at or
    above its priority on its machine.  With f = p/q, K the mean scale,
    m the job's integer mean and c its integer completion, that is
    (4*max(p*r*K, m*q) + 2*c*q) / (K*q), one `Fraction` per job."""
    jobs, means, k = inst.jobs, inst.scaled.means, inst.scaled.mean_scale
    p, q = f.numerator, f.denominator
    pk, kq = p * k, k * q
    bounds: dict[int, Fraction] = {}
    for machine, rows in list_schedule(inst, assignment.as_mapping()).items():
        for job_id, _, completion in rows:
            job = jobs[job_id - 1]
            mean = means[id(job.proc[machine - 1])]
            bounds[job_id] = Fraction(4 * max(job.release * pk, mean * q) + 2 * completion * q, kq)
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
    f = greedy_time._check_f(f)
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
