import dataclasses
import random
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist, list_schedule
from stochsched import greedy_list as gl
from stochsched import greedy_time as gt

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction
# speeds with q = 1 and q > 1 in f = p/q
SPEEDS = (F(2), F(5, 2), F(7, 3), F(3))


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
        # asleep until 2, held until 4, processing until 6
        job = trace.trace(1)
        assert (job.committed, job.started, job.completed) == (2, 4, 6)

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
        # at f = 5/2 and 7/3 the speed clock's q is not 1, so a kernel
        # that dropped it would show here
        rng = random.Random(29)
        for _ in range(25):
            inst = random_instance(rng, max_machines=3, max_jobs=6, releases=True,
                                   fractional_weights=True)
            assignment = gt.assign(inst, F(1))
            realization = gt.draw_realization(inst, random.Random(rng.randint(0, 10**6)))
            for f in SPEEDS:
                for mode in gt.MODES:
                    sped = gt.simulate(inst, assignment, realization, f, mode)
                    wall = gt.simulate_wall_clock(inst, assignment, realization, f, mode)
                    assert wall == sped.scaled(f)
                    assert wall.cost(inst) == f * sped.cost(inst)

    def test_simulate_matches_the_fraction_event_loop(self):
        rng = random.Random(31)
        for _ in range(40):
            inst = random_instance(rng, max_machines=3, max_jobs=7, releases=True,
                                   fractional_weights=True)
            realization = gt.draw_realization(inst, random.Random(rng.randint(0, 10**6)))
            for f in SPEEDS:
                assignment = gt.assign(inst, f)
                for mode in gt.MODES:
                    trace = gt.simulate(inst, assignment, realization, f, mode)
                    assert (trace, trace.cost(inst)) == reference.speed_trace(
                        inst, assignment, f, realization, mode)

    def test_max_proc_mode_never_idles(self):
        inst = _one_job()
        assignment = gt.assign(inst, F(1))
        trace = gt.simulate(inst, assignment, gt.Realization(((1,),)), F(1), mode="max-proc")
        # release 2, no hold, processing stretched to the mean
        job = trace.trace(1)
        assert job.completed == 4
        assert job.started == job.committed


class TestDeterministicSchedule:
    def test_single_job_skips_the_hold(self):
        inst = _one_job()
        trace, cost = gt.deterministic_schedule(inst, F(2), gt.assign(inst, F(2)))
        assert cost == 2
        assert trace.trace(1).started == 1 and trace.trace(1).completed == 2

    def test_worked_instance_cost(self):
        assert gt.deterministic_cost(worked_instance(), F(2)) == 4

    def test_matches_the_fraction_event_loop(self):
        # fractional weights, means and speeds: the integer clock over
        # K*p against a Fraction clock, trace and cost
        rng = random.Random(37)
        seen = set()
        for _ in range(60):
            inst = random_instance(rng, max_machines=3, max_jobs=8, releases=True,
                                   fractional_weights=True)
            seen.update(name for name, present in (
                ("fractional weights", inst.scaled.weight_scale > 1),
                ("fractional means", inst.scaled.mean_scale > 1),
            ) if present)
            for f in SPEEDS:
                assignment = gt.assign(inst, f)
                assert gt.deterministic_schedule(inst, f, assignment) == \
                    reference.speed_trace(inst, assignment, f)
        assert seen == {"fractional weights", "fractional means"}


class TestEstimate:
    def test_deterministic_instance_is_exact(self):
        inst = worked_instance()
        est = gt.estimate_cost(inst, F(2), 64, 0, gt.assign(inst, F(2)))
        assert est.ci95 == 0.0
        assert est.samples == 64
        # wall-clock: job1 r=2 hold 2 proc 2 -> C=6; job2 r=1 hold 1 proc 1 -> C=3
        assert est.mean == 12.0
        assert est.per_job_mean == (6.0, 3.0)

    def test_known_mean_within_interval(self):
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        est = gt.estimate_cost(inst, F(1), 4000, 13, gt.assign(inst, F(1)))
        assert abs(est.mean - 6.0) <= est.ci95
        assert est.ci95 < 0.2

    def test_mean_ci_closed_form(self):
        # the values 1 and 3: mean 2, sample variance 2, 1.96 * sqrt(2 / 2)
        assert gt._mean_ci(4.0, 10.0, 2) == (2.0, 1.96)
        # one value opens no interval
        assert gt._mean_ci(5.0, 25.0, 1) == (5.0, 0.0)

    def test_two_different_samples_open_an_interval(self):
        # at speed 2 the job is released at its mean 2 and held 2, then the
        # drawn 1 or 3 runs: a replication ends at 5 or 7, and a mean of 6
        # means seed 0 drew one of each, d = 2 apart
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        est = gt.estimate_cost(inst, F(2), 2, 0, gt.assign(inst, F(2)))
        d = 7 - 5
        assert est.mean == 6.0 and est.per_job_mean == (6.0,)
        assert est.ci95 == 1.96 * d / 2
        assert est.per_job_ci95 == (1.96 * d / 2,)

    def test_seed_and_order_determinism(self):
        inst = random_instance(random.Random(41), max_machines=2, max_jobs=5)
        a = gt.estimate_cost(inst, F(2), 300, 5, gt.assign(inst, F(2)))
        b = gt.estimate_cost(inst, F(2), 300, 5, gt.assign(inst, F(2)))
        assert a == b

    def test_point_masses_match_the_exact_trace(self):
        # the estimate is the one exact trace, so it holds at speeds whose
        # event times no float can hold, and no interval opens
        rng = random.Random(83)
        seen = set()
        for _ in range(60):
            m = rng.randint(1, 3)
            rows = []
            for release in sorted(rng.randint(0, 6) for _ in range(rng.randint(1, 5))):
                durations = [rng.randint(1, 5) if rng.random() < 0.75 else None for _ in range(m)]
                if all(d is None for d in durations):
                    durations[rng.randrange(m)] = rng.randint(1, 5)
                rows.append((F(rng.randint(1, 9), rng.randint(1, 4)), release, tuple(durations)))
            inst = point_instance(m, rows)
            seen.update(name for name, present in (
                ("releases", inst.has_releases),
                ("forbidden pairs", any(None in job.proc for job in inst.jobs)),
                ("fractional weights", any(job.weight.denominator > 1 for job in inst.jobs)),
            ) if present)
            realization = gt.Realization(tuple(
                tuple(None if d is None else d.max_value for d in job.proc) for job in inst.jobs))
            for f in (F(1), F(2), F(3), F(5, 2), F(4, 3), F(7, 3), F(10, 7), F(11, 10)):
                assignment = gt.assign(inst, f)
                for mode in gt.MODES:
                    exact = gt.simulate_wall_clock(inst, assignment, realization, f, mode)
                    est = gt.estimate_cost(inst, f, rng.randint(1, 8), rng.randint(0, 99),
                                           assignment, mode)
                    assert est.per_job_mean == tuple(float(t.completed) for t in exact.jobs)
                    assert est.mean == float(exact.cost(inst))
                    assert est.ci95 == 0.0 and set(est.per_job_ci95) == {0.0}
        assert seen == {"releases", "forbidden pairs", "fractional weights"}

    def test_one_sample_is_the_exact_wall_clock_trace(self):
        # fractional weights and means with odd denominators: a replication
        # is exact until each completion and the cost become one float
        rng = random.Random(89)
        seen = set()
        for _ in range(40):
            inst = random_instance(rng, max_machines=3, max_jobs=6, releases=True,
                                   fractional_weights=True)
            seen.update(name for name, present in (
                ("fractional weights", inst.scaled.weight_scale > 1),
                ("non-dyadic means", inst.scaled.mean_scale & (inst.scaled.mean_scale - 1)),
                ("stochastic", not inst.deterministic),
            ) if present)
            for f in (F(1), F(2), F(5, 2), F(4, 3), F(7, 3), F(10, 7)):
                assignment = gt.assign(inst, f)
                for mode in gt.MODES:
                    seed = rng.randint(0, 99)
                    drawn = _drawn(inst, assignment, random.Random(f"{seed}:0"))
                    exact = gt.simulate_wall_clock(inst, assignment, drawn, f, mode)
                    est = gt.estimate_cost(inst, f, 1, seed, assignment, mode)
                    assert est.per_job_mean == tuple(float(t.completed) for t in exact.jobs)
                    assert est.mean == float(exact.cost(inst))
        assert seen == {"fractional weights", "non-dyadic means", "stochastic"}

    @pytest.mark.parametrize("point_masses", [True, False], ids=["point-masses", "stochastic"])
    def test_point_masses_simulate_one_replication(self, monkeypatch, point_masses):
        # weights p/q with q = 3 or 7 make the summed floats inexact, so
        # `samples` copies of one trace would open an interval
        rng = random.Random(2020 if point_masses else 2021)
        built = []

        class Counted(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        checked = 0
        while checked < 30:
            inst = random_instance(rng, max_machines=3, max_jobs=5, releases=True)
            if not point_masses and inst.deterministic:
                continue  # a draw of point masses alone
            checked += 1
            if point_masses:
                inst = Instance(inst.machines, [
                    Job(job.id, F(rng.randint(1, 20), rng.choice([3, 7])), job.release,
                        tuple(None if d is None else ProcDist.point(d.max_value) for d in job.proc))
                    for job in inst.jobs])
            assert inst.deterministic is point_masses
            f = rng.choice([F(1), F(2), F(5, 2)])
            samples, seed = rng.randint(1, 40), rng.randint(0, 99)
            assignment = gt.assign(inst, f)
            for mode in gt.MODES:
                if point_masses:
                    # the first replication is the estimate
                    expected = dataclasses.replace(_per_replication_estimate(
                        inst, f, 1, seed, assignment, mode), samples=samples)
                else:
                    expected = _per_replication_estimate(inst, f, samples, seed, assignment, mode)
                built.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(gt.random, "Random", Counted)
                    est = gt.estimate_cost(inst, f, samples, seed, assignment, mode)
                assert est == expected
                assert built == [f"{seed}:{rep}" for rep in range(1 if point_masses else samples)]

    def test_distinct_seeds_agree_statistically(self):
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        hits = 0
        for trial in range(20):
            a = gt.estimate_cost(inst, F(1), 800, 2 * trial, gt.assign(inst, F(1)))
            b = gt.estimate_cost(inst, F(1), 800, 2 * trial + 1, gt.assign(inst, F(1)))
            if abs(a.mean - b.mean) <= a.ci95 + b.ci95:
                hits += 1
        assert hits >= 18


def _drawn(inst, assignment, rng):
    """The values `estimate_cost` draws from `rng`, in its machine-block
    order; the pairs `assignment` leaves unused stay None."""
    values = [[None] * inst.machines for _ in inst.jobs]
    for machine, ranked in list_schedule(inst, assignment.as_mapping()).items():
        for job_id, _, _ in ranked:
            values[job_id - 1][machine - 1] = inst.job(job_id).dist(machine).sample(rng)
    return gt.Realization(tuple(tuple(row) for row in values))


def _per_replication_estimate(inst, f, samples, seed, assignment, mode):
    """`estimate_cost` on the `Fraction` clock of `simulate_wall_clock`:
    every replication draws from its own generator and adds the floats of
    its exact trace."""
    total_sum = total_sq = 0.0
    job_sum = [0.0] * inst.n
    job_sq = [0.0] * inst.n
    for rep in range(samples):
        drawn = _drawn(inst, assignment, random.Random(f"{seed}:{rep}"))
        trace = gt.simulate_wall_clock(inst, assignment, drawn, f, mode)
        total = float(trace.cost(inst))
        total_sum += total
        total_sq += total * total
        for j, job in enumerate(trace.jobs):
            end = float(job.completed)
            job_sum[j] += end
            job_sq[j] += end * end
    mean, ci = gt._mean_ci(total_sum, total_sq, samples)
    per_job = [gt._mean_ci(s, ssq, samples) for s, ssq in zip(job_sum, job_sq)]
    return gt.CostEstimate(mean, ci, samples, tuple(m for m, _ in per_job),
                           tuple(c for _, c in per_job), mode, seed)
