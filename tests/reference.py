"""Slow, plainly written references for the exhaustive oracles.

`stoch_opt` is the adaptive-optimum program written directly in
`Fraction` arithmetic, conditioning on per-step hazards instead of
carrying scaled integer counts; `det_opt` tries every assignment and, on
every machine, every order.  The property tests require exact equality
between these and the oracles, so they share no code with them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from stochsched.core import Instance


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
