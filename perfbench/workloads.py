"""The three workloads: seeded inputs and the verdict that judges each.

A verdict is one instance, or one member of the lower-bound family,
fully judged: it returns whether the paper's bound held and the text of
every exact result (Fractions as p/q) and seeded Monte Carlo float it
produced, which the harness digests against the golden file.

Seeded inputs are drawn from fixed, indexed universes, and the seed
chooses members and their order.  Every member of a universe has a
golden digest, so any seed is checked byte for byte.  Where members
differ in cost several times over (sweep's stochastic instances,
cli-pipeline), the seed draws one member from each of equal
strata of a recorded cost order (`strata/<workload>.txt`), so that every
seed's pass has the same spread of costs.  Inputs are built
only with public constructors: `oracle.random_dist`, `core.ProcDist`,
`core.Job`, `core.Instance`, `oracle.gen_lower_bound` and
`cli.emit_instance`; sweep and tightness build theirs inside the
verdict, so construction is timed with the rest.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

from stochsched import cli, core, greedy_list, oracle
from stochsched.core import Instance, Job, ProcDist

Verdict = Callable[[], tuple[bool, str]]
Items = list[tuple[str, Verdict]]

STRATA = Path(__file__).resolve().parent / "strata"

# sweep: deterministic instances of the grid, plus stochastic ones small
# enough for the adaptive-optimum program.  A run judges a seeded sample
# of each, so that a pass is short enough to repeat some thirty times in
# a run: with all 6,174 grid instances and 200 stochastic ones a pass
# repeated 5 to 9 times, and the timings spread by 10-20 % between runs.
GRID_MACHINES = 2
GRID_DURATIONS = (1, 2, 3)
GRID_WEIGHTS = (1, 2)
GRID_MAX_JOBS = 3
SWEEP_GRID = 1000
SWEEP_UNIVERSE = 1000
SWEEP_STOCHASTIC = 50  # one from each stratum of 20
SWEEP_SHAPE = (2, 3)  # machines, jobs: one shape keeps seeds alike in cost

# tightness: an anchor chain k = 1, 2 at the smallest admissible machine
# counts 1 and 4 (ratios 1 and 11/6), then at each machine count m of
# TIGHT_MACHINES the chain k = 1, 2, ... up to TIGHT_K or the largest k
# with lcm(1..k)^2 | m.  Members stop at 144 machines (205 jobs): with
# members up to 288 machines (410 jobs) the timings spread by 10-24 %
# between runs on a shared two-vCPU host, against 2 % at this size.
TIGHT_K = 4
TIGHT_MACHINES = tuple(range(12, 145, 12))

# cli-pipeline: release-date instances with even means, so the speed-2
# schedules land on integer slots and all three certificates apply.
# CLI_JOBS and CLI_SAMPLES keep a verdict near 20 ms.  A verdict figures
# at its fastest repetition, and the longer it runs the less often a
# shared host gives it a fast stretch: with 3 jobs and 100 samples (45
# ms) the timings of the same 100 instances spread by 36 % between four
# interleaved runs, against 14 % with 25 samples (30 ms).
CLI_UNIVERSE = 1000
CLI_PASS = 100  # one from each stratum of 10
CLI_MACHINES = 2
CLI_JOBS = 2
CLI_MAX_VALUE = 2
CLI_MAX_RELEASE = 4
CLI_SAMPLES = 25


# workload -> key prefix of the members it draws by stratum
STRATIFIED = {"sweep": "s", "cli-pipeline": "c"}


def _choose(seed: int, name: str, universe: int, count: int) -> list[int]:
    return random.Random(f"{name}:{seed}").sample(range(universe), count)


def _stratified(seed: int, workload: str, count: int) -> list[int]:
    """Universe indices, one drawn from each of `count` equal strata of
    the workload's recorded cost order.  A seed's picks differ from
    another's only within strata, so a percentile of their costs moves
    with the program's speed and not with the draw: with 50 of sweep's
    stochastic instances drawn at random, the middle half of ten seeds'
    p99 verdict times spread by 17 to 30 % of their median."""
    keys = (STRATA / f"{workload}.txt").read_text(encoding="utf-8").split()
    size, rest = divmod(len(keys), count)
    prefix = STRATIFIED[workload]
    if rest or not all(key.startswith(prefix) for key in keys):
        raise ValueError(f"{STRATA / workload}.txt does not split into {count} strata")
    rng = random.Random(f"strata-{workload}:{seed}")
    return [int(keys[i * size + rng.randrange(size)][len(prefix):]) for i in range(count)]


def _permitted(rng: random.Random, machines: int) -> list[bool]:
    """Each machine allowed with probability 0.8, at least one allowed."""
    mask = [rng.random() < 0.8 for _ in range(machines)]
    if not any(mask):
        mask[rng.randrange(machines)] = True
    return mask


# ------------------------------------------------------------------- sweep
#
# A sweep member is plain data, one (weight, row) per job, where a row
# holds one pmf per machine (None where the machine is forbidden).  The
# verdict builds its ProcDist, Job and Instance objects itself, so every
# repetition pays for construction and validation and none reuses the
# program's cached properties from an earlier one.

Pmf = tuple[tuple[int, Fraction], ...]
Member = tuple[tuple[int, tuple[Pmf | None, ...]], ...]


def _grid() -> list[Member]:
    pmfs = [((v, Fraction(1)),) for v in GRID_DURATIONS]
    types = [(w, row) for w in GRID_WEIGHTS
             for row in itertools.product(pmfs, repeat=GRID_MACHINES)]
    return [combo for n in range(1, GRID_MAX_JOBS + 1)
            for combo in itertools.product(types, repeat=n)]


def _sweep_stochastic(index: int) -> Member:
    """SWEEP_SHAPE with supports within 0..4 and means >= 1, inside the
    adaptive-optimum program's limits."""
    rng = random.Random(f"sweep:{index}")
    machines, n = SWEEP_SHAPE
    jobs = []
    for _ in range(n):
        row = []
        for allowed in _permitted(rng, machines):
            dist = None
            while allowed and (dist is None or dist.mean < 1):
                dist = oracle.random_dist(rng, max_value=4)
            row.append(dist.pmf if dist else None)
        jobs.append((rng.randint(1, 9), tuple(row)))
    return tuple(jobs)


def _instance(member: Member, machines: int) -> Instance:
    return Instance(machines, [
        Job(job_id, Fraction(weight), 0,
            [None if pmf is None else ProcDist(pmf) for pmf in row])
        for job_id, (weight, row) in enumerate(member, start=1)])


def _det_verdict(member: Member) -> Verdict:
    def verdict():
        inst = _instance(member, GRID_MACHINES)
        alg = greedy_list.greedy_cost(inst)
        opt = oracle.det_opt(inst)
        return alg <= 4 * opt, f"{alg} {opt}"
    return verdict


def _stoch_verdict(member: Member) -> Verdict:
    def verdict():
        inst = _instance(member, SWEEP_SHAPE[0])
        alg = greedy_list.greedy_cost(inst)
        opt = oracle.stoch_opt(inst)
        return alg <= (4 + 2 * core.max_scv(inst)) * opt, f"{alg} {opt}"
    return verdict


def sweep(seed: int, workdir: str) -> Items:
    grid = _grid()
    items = [(f"g{i}", _det_verdict(grid[i]))
             for i in _choose(seed, "grid", len(grid), SWEEP_GRID)]
    items += [(f"s{u}", _stoch_verdict(_sweep_stochastic(u)))
              for u in _stratified(seed, "sweep", SWEEP_STOCHASTIC)]
    random.Random(f"sweep-order:{seed}").shuffle(items)
    return items


def sweep_universe(workdir: str) -> Items:
    return ([(f"g{i}", _det_verdict(member)) for i, member in enumerate(_grid())]
            + [(f"s{u}", _stoch_verdict(_sweep_stochastic(u))) for u in range(SWEEP_UNIVERSE)])


# --------------------------------------------------------------- tightness

def _lcm_squares(k: int) -> int:
    return math.lcm(*(h * h for h in range(1, k + 1)))


def _chain(machines: list[int], anchored: bool) -> Items:
    """Family members k = 1, 2, ... on `machines[k - 1]` machines, judged
    in order: each ratio must exceed the previous member's, stay below 4,
    and, on the anchor chain, hit 1 and 11/6."""
    previous: list[Fraction] = []
    anchors = {1: Fraction(1), 2: Fraction(11, 6)} if anchored else {}

    def member(k: int, m: int) -> Verdict:
        def verdict():
            if k == 1:
                previous.clear()
            inst = oracle.gen_lower_bound(k, m)
            assignment, _ = greedy_list.assign(inst)
            cost = core.fixed_assignment_cost(inst, assignment.as_mapping())
            opt = sum((Fraction(m, h) for h in range(1, k + 1)), Fraction(0))
            ratio = cost / opt
            ok = ratio < 4 and anchors.get(k, ratio) == ratio
            if k > 1:
                ok = ok and len(previous) == k - 1 and ratio > previous[-1]
            previous.append(ratio)
            return ok, f"{cost} {opt} {ratio}"
        return verdict

    prefix = "a" if anchored else ""
    return [(f"{prefix}k{k}m{m}", member(k, m)) for k, m in enumerate(machines, start=1)]


def tightness(seed: int, workdir: str) -> Items:
    chains = [_chain([_lcm_squares(k) for k in (1, 2)], anchored=True)]
    for m in TIGHT_MACHINES:
        top = max(k for k in range(1, TIGHT_K + 1) if m % _lcm_squares(k) == 0)
        chains.append(_chain([m] * top, anchored=False))
    # the family has no random parameter: the seed orders the chains
    random.Random(f"tightness:{seed}").shuffle(chains)
    return [item for chain in chains for item in chain]


def tightness_universe(workdir: str) -> Items:
    return tightness(0, workdir)


# ------------------------------------------------------------ cli-pipeline

def _cli_instance(index: int) -> Instance:
    rng = random.Random(f"cli:{index}")
    machines, n = CLI_MACHINES, CLI_JOBS
    releases = sorted(rng.randint(0, CLI_MAX_RELEASE) for _ in range(n))
    jobs = []
    for job_id in range(1, n + 1):
        row = []
        for allowed in _permitted(rng, machines):
            if allowed:
                base = oracle.random_dist(rng, max_value=CLI_MAX_VALUE, integer_mean=True)
                row.append(ProcDist({2 * v: p for v, p in base.pmf}))
            else:
                row.append(None)
        jobs.append(Job(job_id, Fraction(rng.randint(1, 9)), releases[job_id - 1], tuple(row)))
    return Instance(machines, jobs)


def _cli_verdict(path: str, index: int) -> Verdict:
    runs = (["time", path, "--samples", str(CLI_SAMPLES), "--seed", str(index),
             "--format", "json"],
            ["verify", path, "--format", "json"])

    def verdict():
        ok = True
        text = []
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            ok = ok and code == 0
            text.append(f"{code}\n{out.getvalue()}")
        return ok, "".join(text)
    return verdict


def _cli_items(indices, workdir: str) -> Items:
    items = []
    for u in indices:
        path = os.path.join(workdir, f"c{u}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.emit_instance(_cli_instance(u)))
        items.append((f"c{u}", _cli_verdict(path, u)))
    return items


def cli_pipeline(seed: int, workdir: str) -> Items:
    items = _cli_items(_stratified(seed, "cli-pipeline", CLI_PASS), workdir)
    random.Random(f"cli-order:{seed}").shuffle(items)
    return items


def cli_universe(workdir: str) -> Items:
    return _cli_items(range(CLI_UNIVERSE), workdir)


# name -> (seeded pass, golden universe)
WORKLOADS: dict[str, tuple[Callable[[int, str], Items], Callable[[str], Items]]] = {
    "sweep": (sweep, sweep_universe),
    "tightness": (tightness, tightness_universe),
    "cli-pipeline": (cli_pipeline, cli_universe),
}
