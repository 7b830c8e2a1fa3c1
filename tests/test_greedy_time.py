import random
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist
from stochsched import greedy_list as gl
from stochsched import greedy_time as gt

from helpers import point_instance, random_instance, worked_instance

F = Fraction


def _one_job(weight=1, release=0, mean=2):
    return point_instance(1, [(weight, release, (mean,))])


class TestModifiedRelease:
    @pytest.mark.parametrize("release,mean,f,want", [
        (3, 5, 2, 6),
        (0, 5, 2, 5),
        (4, 8, 2, 8),
    ])
    def test_examples(self, release, mean, f, want):
        inst = _one_job(release=release, mean=mean)
        assert gt.modified_release(inst, 1, 1, F(f)) == want

    def test_sped_release_is_quotient(self):
        rng = random.Random(3)
        for _ in range(30):
            release, mean = rng.randint(0, 9), rng.randint(1, 9)
            f = F(rng.randint(2, 5), rng.randint(1, 2))
            if f < 1:
                continue
            inst = _one_job(release=release, mean=mean)
            assert gt.sped_release(inst, 1, 1, f) == gt.modified_release(inst, 1, 1, f) / f

    def test_f_below_one_rejected(self):
        with pytest.raises(ValueError):
            gt.modified_release(_one_job(), 1, 1, F(1, 2))


class TestScore:
    def test_empty_machine(self):
        assert gt.expected_increase(_one_job(), {}, 1, 1, F(2)) == 6

    def test_release_inflates_score(self):
        assert gt.expected_increase(_one_job(release=3), {}, 1, 1, F(2)) == 14

    def test_lower_priority_holder_charged_by_weight(self):
        inst = point_instance(1, [(1, 0, (2,)), (2, 0, (1,))])
        assert gt.expected_increase(inst, {1: 1}, 2, 1, F(2)) == 7

    def test_higher_priority_holder_charged_by_mean(self):
        # holder has the higher ratio, so its mean delays the newcomer
        inst = point_instance(1, [(2, 0, (1,)), (1, 0, (2,))])
        score = gt.expected_increase(inst, {1: 1}, 2, 1, F(2))
        # w_j*(2*max{0,2} + 2 + 1) = 1*(4+3) = 7
        assert score == 7


class TestAssign:
    def test_two_identical_jobs_spread_out(self):
        inst = point_instance(2, [(1, 0, (2, 2)), (1, 0, (2, 2))])
        assignment = gt.assign(inst, F(1))
        assert assignment.machines == (1, 2)

    def test_worked_instance_regression(self):
        # regenerated by direct evaluation: both accepted scores are 6
        inst = worked_instance()
        assignment, increases = gt.assign_with_increases(inst, F(2))
        assert assignment.machines == (1, 2)
        assert increases == (F(6), F(6))
        assert gt.deterministic_cost(inst, F(2)) == 4

    def test_release_free_scores_ignore_f(self):
        # with r=0 the inflated release max{f*r, E} collapses to E, so
        # both the scores and the choices are the same for every f
        rng = random.Random(17)
        for _ in range(30):
            inst = random_instance(rng, max_machines=3, max_jobs=7)
            base = gt.assign_with_increases(inst, F(1))
            for f in (F(2), F(3), F(7, 2)):
                assert gt.assign_with_increases(inst, f) == base

    def test_release_term_can_flip_the_choice(self):
        # job 2's score on machine 2 carries a fixed charge for the held
        # job, while the release charge on machine 1 is capped by the
        # mean; raising f inflates only machine 2's release term
        inst = point_instance(2, [(10, 0, (None, 20)), (1, 2, (6, 1))])
        assert gt.assign(inst, F(1)).machines == (2, 2)
        assert gt.assign(inst, F(3)).machines == (2, 1)


@pytest.mark.parametrize("f", [None, F(1), F(2), F(7, 2)])
def test_kernel_scores_match_reference_on_every_prefix(f):
    # the shared dispatch kernel against the independent per-probe
    # scores: f None is the arrival-order model, otherwise release dates
    def reference(inst, prefix, job_id, machine):
        if f is None:
            return gl.expected_increase(inst, prefix, job_id, machine)
        return gt.expected_increase(inst, prefix, job_id, machine, f)

    rng = random.Random(53)
    ties = 0
    for _ in range(80):
        # small weights and values make equal priority ratios common
        inst = random_instance(rng, max_machines=3, max_jobs=8, max_value=3,
                               max_weight=3, releases=True)
        if f is None:
            assignment, increases = gl.assign(inst)
        else:
            assignment, increases = gt.assign_with_increases(inst, f)
        prefix: dict[int, int] = {}
        for job in inst.jobs:
            machine = assignment.machine_of(job.id)
            scores = {m: reference(inst, prefix, job.id, m) for m in job.permitted}
            assert increases[job.id - 1] == scores[machine]
            assert machine == min(job.permitted, key=lambda m: (scores[m], m))
            ratio = inst.ratio(machine, job.id)
            ties += any(m == machine and inst.ratio(m, other) == ratio
                        for other, m in prefix.items())
            prefix[job.id] = machine
    assert ties > 0


class TestSimulate:
    def test_forced_idle_doubles_the_expected_wait(self):
        inst = _one_job()
        assignment = gt.assign(inst, F(1))
        trace = gt.simulate(inst, assignment, gt.Realization(((2,),)), F(1))
        assert trace.cost(inst) == 6
        assert trace.machine_segments(1) == (
            ("sleep", F(0), F(2), None),
            ("held", F(2), F(4), 1),
            ("proc", F(4), F(6), 1),
        )

    def test_short_draw_still_pays_full_hold(self):
        inst = _one_job()
        assignment = gt.assign(inst, F(1))
        trace = gt.simulate(inst, assignment, gt.Realization(((1,),)), F(1))
        assert trace.cost(inst) == 5

    def test_speed_two_halves_the_trace(self):
        inst = _one_job()
        assignment = gt.assign(inst, F(1))
        trace = gt.simulate(inst, assignment, gt.Realization(((2,),)), F(2))
        assert trace.cost(inst) == 3

    def test_commitment_is_binding(self):
        # job 1 is committed at t=4; the far heavier job 2 shows up at
        # t=5, mid-hold, and still has to wait for the full run
        inst = point_instance(1, [(1, 0, (4,)), (100, 5, (1,))])
        assignment = gt.assign(inst, F(1))
        assert assignment.machines == (1, 1)
        trace = gt.simulate(inst, assignment, gt.Realization(((4,), (1,))), F(1))
        first = trace.trace(1)
        second = trace.trace(2)
        assert first.committed == 4 and first.completed == 12
        assert second.committed == 12 and second.completed == 14

    def test_wall_clock_is_f_times_sped_trace(self):
        rng = random.Random(29)
        for _ in range(25):
            inst = random_instance(rng, max_machines=3, max_jobs=6, releases=True)
            assignment = gt.assign(inst, F(1))
            realization = gt.draw_realization(inst, random.Random(rng.randint(0, 10**6)))
            for f in (F(2), F(3)):
                sped = gt.simulate(inst, assignment, realization, f)
                wall = gt.simulate_wall_clock(inst, assignment, realization, f)
                assert wall == sped.scaled(f)
                assert wall.cost(inst) == f * sped.cost(inst)

    def test_max_proc_mode_never_idles(self):
        inst = _one_job()
        assignment = gt.assign(inst, F(1))
        trace = gt.simulate(inst, assignment, gt.Realization(((1,),)), F(1), mode="max-proc")
        # release 2, no hold, processing stretched to the mean
        assert trace.trace(1).completed == 4
        kinds = [kind for kind, *_ in trace.machine_segments(1)]
        assert "held" not in kinds


class TestDeterministicSchedule:
    def test_single_job_skips_the_hold(self):
        trace, cost = gt.deterministic_schedule(_one_job(), F(2))
        assert cost == 2
        assert trace.trace(1).started == 1 and trace.trace(1).completed == 2

    def test_worked_instance_cost(self):
        assert gt.deterministic_cost(worked_instance(), F(2)) == 4


class TestEstimate:
    def test_deterministic_instance_is_exact(self):
        inst = worked_instance()
        est = gt.estimate_cost(inst, F(2), 64, 0)
        assert est.ci95 == 0.0
        assert est.samples == 64
        # wall-clock: job1 r=2 hold 2 proc 2 -> C=6; job2 r=1 hold 1 proc 1 -> C=3
        assert est.mean == 12.0
        assert est.per_job_mean == (6.0, 3.0)

    def test_known_mean_within_interval(self):
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        est = gt.estimate_cost(inst, F(1), 4000, 13)
        assert abs(est.mean - 6.0) <= est.ci95
        assert est.ci95 < 0.2

    def test_seed_and_order_determinism(self):
        inst = random_instance(random.Random(41), max_machines=2, max_jobs=5)
        a = gt.estimate_cost(inst, F(2), 300, 5)
        b = gt.estimate_cost(inst, F(2), 300, 5)
        assert a == b

    def test_distinct_seeds_agree_statistically(self):
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        hits = 0
        for trial in range(20):
            a = gt.estimate_cost(inst, F(1), 800, 2 * trial)
            b = gt.estimate_cost(inst, F(1), 800, 2 * trial + 1)
            if abs(a.mean - b.mean) <= a.ci95 + b.ci95:
                hits += 1
        assert hits >= 18
