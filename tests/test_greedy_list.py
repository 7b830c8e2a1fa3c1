import copy as copy_module
import pickle
import random
import warnings
from fractions import Fraction

import pytest

from stochsched import greedy_time
from stochsched.core import Instance, Job, ProcDist, fixed_assignment_cost, list_schedule
from stochsched.errors import ForbiddenPairError, SmallMeanWarning
from stochsched.greedy_list import Assignment, GreedyRun, assign, expected_increase, greedy_cost

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction


def test_worked_instance_choices_and_scores():
    inst = worked_instance()
    assignment, increases = assign(inst)
    assert assignment.machines == (1, 2)
    assert increases == (F(2), F(2))
    assert greedy_cost(inst) == 4


def test_first_job_goes_to_smallest_weighted_mean():
    inst = point_instance(2, [(1, 0, (2, 3))])
    assignment, increases = assign(inst)
    assert assignment.machine_of(1) == 1
    assert increases[0] == 2


def test_single_machine_scores_sum_to_wsept_cost():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_instance(rng, max_machines=1, max_jobs=8, forbidden=False)
        _, increases = assign(inst)
        assert sum(increases, F(0)) == fixed_assignment_cost(
            inst, {j.id: 1 for j in inst.jobs})


def test_machine_ties_break_to_lowest_index():
    inst = point_instance(3, [(1, 0, (2, 2, 2)), (1, 0, (2, 2, 2))])
    assignment, _ = assign(inst)
    assert assignment.machine_of(1) == 1
    assert assignment.machine_of(2) == 2   # sharing beats stacking on m1


def test_forbidden_machines_are_skipped():
    inst = point_instance(2, [(1, 0, (None, 4))])
    assignment, increases = assign(inst)
    assert assignment.machine_of(1) == 2
    assert increases[0] == 4


def test_assignment_accessors():
    a = Assignment((1, 2, 1))
    assert a.machine_of(3) == 1
    assert a.machines == (1, 2, 1)
    assert a.as_mapping() == {1: 1, 2: 2, 3: 1}


# Core meaning of the score: it must equal the exact change in the
# fixed-assignment objective caused by adding the job to that machine.
def test_score_equals_insertion_cost_delta():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_instance(rng, max_machines=3, max_jobs=6)
        prefix: dict[int, int] = {}
        for job in inst.jobs:
            for machine in job.permitted:
                before = fixed_assignment_cost(inst, prefix) if prefix else F(0)
                trial = dict(prefix)
                trial[job.id] = machine
                delta = fixed_assignment_cost(inst, trial) - before
                assert expected_increase(inst, prefix, job.id, machine) == delta
            # extend the prefix the same way the greedy would
            best = min(job.permitted,
                       key=lambda m: (expected_increase(inst, prefix, job.id, m), m))
            prefix[job.id] = best


def test_greedy_cost_is_sum_of_accepted_scores():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng, max_machines=4, max_jobs=9)
        _, increases = assign(inst)
        assert greedy_cost(inst) == sum(increases, F(0))


def test_scaling_weights_scales_cost_linearly():
    inst = worked_instance()
    scaled = Instance(2, [
        Job(job.id, job.weight * 5, job.release, job.proc) for job in inst.jobs
    ])
    assignment, _ = assign(inst)
    scaled_assignment, _ = assign(scaled)
    assert assignment.machines == scaled_assignment.machines
    assert greedy_cost(scaled) == 5 * greedy_cost(inst)


def test_stochastic_jobs_score_by_mean_only():
    # same means as the worked instance, fatter tails: choices unchanged
    spread = ProcDist({1: F(1, 2), 3: F(1, 2)})       # mean 2
    spread3 = ProcDist({1: F(1, 2), 5: F(1, 2)})      # mean 3
    inst = Instance(2, [
        Job(1, F(1), 0, (spread, spread3)),
        Job(2, F(2), 0, (ProcDist.point(1), ProcDist.point(1))),
    ])
    assignment, increases = assign(inst)
    assert assignment.machines == (1, 2)
    assert increases == (F(2), F(2))


# ------------------------------------------------ the integer kernel
#
# The package runs the greedy, the machine order and the list cost on
# scaled integers; `reference` keeps their `Fraction` versions.  The
# instances mix releases, forbidden pairs, distributions and rows shared
# between jobs, equal distributions that are distinct objects, and
# weights and probabilities whose denominators (7, 11, 13) are pairwise
# coprime.

def _coprime_dist(rng: random.Random) -> ProcDist:
    shape = rng.randrange(3)
    if shape == 0:
        return ProcDist.point(rng.randint(1, 4))
    if shape == 1:
        k = rng.randint(1, 12)
        low, high = sorted(rng.sample(range(1, 6), 2))
        return ProcDist({low: F(k, 13), high: F(13 - k, 13)})
    values = rng.sample(range(0, 7), 3)
    return ProcDist(zip(values, (F(1, 7), F(1, 11), F(59, 77))))


def _coprime_instance(rng: random.Random) -> Instance:
    machines = rng.randint(1, 3)
    n = rng.randint(1, 9)
    pool = [_coprime_dist(rng) for _ in range(rng.randint(1, 4))]
    weights = (F(1), F(2), F(1, 7), F(3, 7), F(2, 11), F(5, 13))
    releases = sorted(rng.randint(0, 5) for _ in range(n))
    jobs = []
    for job_id in range(1, n + 1):
        row = [None if rng.random() < 0.2 else rng.choice(pool) for _ in range(machines)]
        if all(d is None for d in row):
            row[rng.randrange(machines)] = rng.choice(pool)
        # an equal distribution that is a different object
        row = [ProcDist(d.pmf) if d is not None and rng.random() < 0.2 else d for d in row]
        if jobs and rng.random() < 0.2:
            row = jobs[-1].proc  # the previous job's row itself
        jobs.append(Job(job_id, rng.choice(weights), releases[job_id - 1], row))
    return Instance(machines, jobs)


def _kernel_instances(seed: int, count: int) -> list[Instance]:
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallMeanWarning)
        return [_coprime_instance(rng) for _ in range(count)]


def _ties(inst: Instance, assignment) -> int:
    """Pairs of jobs on one machine with equal priority ratios."""
    ties = 0
    for machine in range(1, inst.machines + 1):
        ratios = [inst.ratio(machine, j + 1)
                  for j, m in enumerate(assignment.machines) if m == machine]
        ties += len(ratios) - len(set(ratios))
    return ties


@pytest.mark.parametrize("f", [None, F(1), F(2), F(7, 2)], ids=["list", "f=1", "f=2", "f=7/2"])
def test_integer_kernel_matches_the_fraction_reference(f):
    instances = _kernel_instances(71, 300)
    ties = releases = forbidden = shared = 0
    for inst in instances:
        expected = reference.dispatch(inst, f)
        run = assign(inst) if f is None else greedy_time.assign_with_increases(inst, f)
        assert type(run) is GreedyRun and run == expected
        assert all(type(x) is F for x in run.increases)
        if f is None:
            # the cost prices the kernel's machines apart from the scores
            cost = greedy_cost(inst)
            assert type(cost) is F
            assert cost == fixed_assignment_cost(inst, run.assignment.as_mapping())
            assert cost == reference.fixed_assignment_cost(inst, expected.assignment.as_mapping())
        else:
            assert greedy_time.assign(inst, f) == expected.assignment
        ties += _ties(inst, run.assignment)
        releases += inst.has_releases
        forbidden += any(d is None for job in inst.jobs for d in job.proc)
        shared += len({id(job.proc) for job in inst.jobs}) < inst.n
    assert ties > 0 and releases > 0 and forbidden > 0 and shared > 0
    # the denominators 7, 11 and 13 all reach the scales
    assert any(inst.scaled.weight_scale % 77 == 0 for inst in instances)
    assert any(inst.scaled.mean_scale % (7 * 11 * 13) == 0 for inst in instances)


def test_machine_order_and_list_cost_match_the_fraction_reference():
    rng = random.Random(73)
    for inst in _kernel_instances(72, 300):
        for machine in range(1, inst.machines + 1):
            ids = [job.id for job in inst.jobs if job.allows(machine)]
            rng.shuffle(ids)
            rows = list_schedule(inst, dict.fromkeys(ids, machine)).get(machine, [])
            assert [j for j, _, _ in rows] == reference.machine_order(inst, machine, ids)
        greedy = assign(inst).assignment.as_mapping()
        drawn = {job.id: rng.choice(job.permitted) for job in inst.jobs}
        prefix = {j: m for j, m in drawn.items() if j <= rng.randint(1, inst.n)}
        for assignment in (greedy, drawn, prefix):
            cost = fixed_assignment_cost(inst, assignment)
            assert type(cost) is F
            assert cost == reference.fixed_assignment_cost(inst, assignment)


def test_list_schedule_matches_a_fraction_clock():
    # each machine's order is `reference.machine_order`, and each scaled
    # completion is a `Fraction` clock over the means
    rng = random.Random(75)
    ties = forbidden = partial = 0
    for inst in _kernel_instances(76, 300):
        scaled = inst.scaled
        greedy = assign(inst).assignment.as_mapping()
        drawn = {job.id: rng.choice(job.permitted) for job in inst.jobs}
        prefix = {j: m for j, m in drawn.items() if j <= rng.randint(1, inst.n)}
        forbidden += any(d is None for job in inst.jobs for d in job.proc)
        partial += len(prefix) < inst.n
        for assignment in (greedy, drawn, prefix):
            schedule = list_schedule(inst, assignment)
            expected = reference.list_schedule(inst, assignment)
            assert list(schedule) == list(expected)   # machines by their first job
            for machine, rows in schedule.items():
                assert [(j, F(w, scaled.weight_scale), F(c, scaled.mean_scale))
                        for j, w, c in rows] == \
                    [(j, inst.job(j).weight, c) for j, c in expected[machine]]
                ratios = [inst.ratio(machine, j) for j, _, _ in rows]
                ties += len(ratios) - len(set(ratios))
    assert ties > 0 and forbidden > 0 and partial > 0


def test_list_schedule_refuses_a_forbidden_pair():
    inst = point_instance(2, [(1, 0, (2, None)), (1, 0, (1, 1))])
    with pytest.raises(ForbiddenPairError, match="job 1 assigned to forbidden machine 2"):
        list_schedule(inst, {1: 2, 2: 1})


def test_copies_rebuild_the_integer_view():
    # the view keys means by id(), so a copy must not carry it over
    inst = _kernel_instances(74, 1)[0]
    run = assign(inst)
    for copy in (pickle.loads(pickle.dumps(inst)), copy_module.deepcopy(inst)):
        assert copy == inst and assign(copy) == run
        assert fixed_assignment_cost(copy, run.assignment.as_mapping()) == \
            fixed_assignment_cost(inst, run.assignment.as_mapping())
