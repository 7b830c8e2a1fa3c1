"""Shared generators and fixtures; all randomness flows through a seeded rng."""
from __future__ import annotations

import random
from fractions import Fraction

from stochsched.core import Instance, Job, ProcDist
from stochsched.oracle import random_dist


def worked_instance() -> Instance:
    """Two machines, two jobs; every downstream number is hand-checkable.

    Job 1 (w=1) means 2 and 3; job 2 (w=2) means 1 and 1.  The list
    greedy puts job 1 on machine 1 and job 2 on machine 2, total cost 4.
    """
    return Instance(2, [
        Job(1, Fraction(1), 0, (ProcDist.point(2), ProcDist.point(3))),
        Job(2, Fraction(2), 0, (ProcDist.point(1), ProcDist.point(1))),
    ])


def point_instance(machines: int, rows: list[tuple[int, int, tuple]]) -> Instance:
    """Build a deterministic instance from (weight, release, durations) rows.

    A duration of None forbids the machine; durations are point masses.
    """
    jobs = []
    for j, (w, r, durations) in enumerate(rows, 1):
        proc = tuple(None if d is None else ProcDist.point(d) for d in durations)
        jobs.append(Job(j, Fraction(w), r, proc))
    return Instance(machines, jobs)


def double_support(dist: ProcDist) -> ProcDist:
    return ProcDist({2 * v: p for v, p in dist.pmf})


def random_instance(rng: random.Random, *, max_machines: int = 4, max_jobs: int = 10,
                    max_value: int = 5, integer_mean: bool = False,
                    even_mean: bool = False, forbidden: bool = True,
                    releases: bool = False, max_release: int = 6,
                    max_weight: int = 9, fractional_weights: bool = False) -> Instance:
    """A seeded instance.  Weights are integers from 1 to `max_weight`;
    with `fractional_weights` each is divided by 1, 2, 3 or 7, one more
    draw per job, so the certificates' weight denominators are exercised."""
    m = rng.randint(1, max_machines)
    n = rng.randint(1, max_jobs)
    rel = sorted(rng.randint(0, max_release) for _ in range(n)) if releases else [0] * n
    jobs = []
    for j in range(1, n + 1):
        if forbidden and m > 1:
            mask = [rng.random() < 0.8 for _ in range(m)]
            if not any(mask):
                mask[rng.randrange(m)] = True
        else:
            mask = [True] * m
        row = []
        for allowed in mask:
            if not allowed:
                row.append(None)
                continue
            dist = random_dist(rng, max_value=max_value,
                               integer_mean=integer_mean or even_mean)
            while not (integer_mean or even_mean) and dist.mean < 1:
                dist = random_dist(rng, max_value=max_value)
            row.append(double_support(dist) if even_mean else dist)
        weight = Fraction(rng.randint(1, max_weight))
        if fractional_weights:
            weight /= rng.choice((1, 2, 3, 7))
        jobs.append(Job(j, weight, rel[j - 1], tuple(row)))
    return Instance(m, jobs)
