import random
import time
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist
from stochsched.errors import BadMError, HypothesisViolatedError, TooLargeError
from stochsched import greedy_list, greedy_time, oracle

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction


class TestDetOpt:
    def test_single_machine_pair(self):
        inst = point_instance(1, [(2, 0, (1,)), (1, 0, (2,))])
        assert oracle.det_opt(inst) == 5

    def test_worked_instance(self):
        assert oracle.det_opt(worked_instance()) == 4

    def test_two_identical_jobs_two_machines(self):
        inst = point_instance(2, [(1, 0, (1, 1)), (1, 0, (1, 1))])
        assert oracle.det_opt(inst) == 2

    def test_releases_can_reorder(self):
        # serving the light early job first beats priority order
        inst = point_instance(1, [(1, 0, (1,)), (9, 2, (1,))])
        assert oracle.det_opt(inst) == 28

    def test_rejects_stochastic_input(self):
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        with pytest.raises(ValueError):
            oracle.det_opt(inst)

    def test_size_limits(self):
        # 3^15 pairs on the middle machine, and 986,409 ordered prefixes on
        # each of two machines with releases: each is refused before any
        # table is built
        wide = point_instance(3, [(1, 0, (1, 1, 1)) for _ in range(15)])
        released = point_instance(2, [(1, j, (1, 2)) for j in range(9)])
        for inst, steps in ((wide, "15,135,339"), (released, "15,790,736")):
            start = time.process_time()
            with pytest.raises(TooLargeError, match=f"needs {steps} steps"):
                oracle.det_opt(inst)
            assert time.process_time() - start < 0.05

    def test_unit_jobs_spread_evenly(self):
        # n unit jobs of weight 1 on m identical machines: with n = q m + r,
        # r machines run q + 1 jobs and the rest q, and k unit jobs on one
        # machine cost 1 + 2 + ... + k
        unit = ProcDist.point(1)

        def unit_jobs(n: int, machines: int) -> Instance:
            return Instance(machines, [Job(j, F(1), 0, [unit] * machines)
                                       for j in range(1, n + 1)])

        for machines in range(1, 7):
            for n in range(1, 10):
                q, r = divmod(n, machines)
                even = r * (q + 1) * (q + 2) // 2 + (machines - r) * q * (q + 1) // 2
                assert oracle.det_opt(unit_jobs(n, machines)) == even, (n, machines)
        # three machines run two jobs and three run one: 3 * 3 + 3 * 1
        assert oracle.det_opt(unit_jobs(9, 6)) == 12

    def test_greedy_never_beats_the_oracle(self):
        rng = random.Random(97)
        for _ in range(40):
            inst = random_instance(rng, max_machines=3, max_jobs=6,
                                   integer_mean=True, max_value=4)
            points = point_instance(inst.machines, [
                (job.weight, job.release,
                 tuple(None if d is None else int(d.mean) for d in job.proc))
                for job in inst.jobs
            ])
            assert greedy_list.greedy_cost(points) >= oracle.det_opt(points)


class TestStochOpt:
    def test_single_spread_job(self):
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        assert oracle.stoch_opt(inst) == 2

    def test_one_job_costs_its_expected_duration(self):
        # nothing is left to start once the job runs: the closed form gives E[D]
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 5: F(1, 2)}),))])
        assert oracle.stoch_opt(inst) == 3

    def test_spread_then_point(self):
        inst = Instance(1, [
            Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),)),
            Job(2, F(1), 0, (ProcDist.point(2),)),
        ])
        assert oracle.stoch_opt(inst) == 6

    def test_matches_det_opt_on_deterministic_instances(self):
        rng = random.Random(101)
        for _ in range(20):
            inst = random_instance(rng, max_machines=2, max_jobs=3,
                                   integer_mean=True, max_value=4)
            points = point_instance(inst.machines, [
                (job.weight, 0,
                 tuple(None if d is None else min(int(d.mean), 4) for d in job.proc))
                for job in inst.jobs
            ])
            assert oracle.stoch_opt(points) == oracle.det_opt(points)

    def test_waiting_for_the_fast_machine_wins(self):
        # keeping machine 2 idle and queueing job 2 behind job 1 costs
        # 203; starting it on machine 2 at once costs 204
        inst = Instance(2, [
            Job(1, F(100), 0, (ProcDist.point(2), None)),
            Job(2, F(1), 0, (ProcDist.point(1), ProcDist.point(4))),
        ])
        assert oracle.stoch_opt(inst) == 203

    def test_adaptivity_beats_every_fixed_assignment(self):
        rng = random.Random(103)
        for _ in range(15):
            inst = random_instance(rng, max_machines=2, max_jobs=3, max_value=3)
            opt = oracle.stoch_opt(inst)
            assert opt <= greedy_list.greedy_cost(inst)

    def test_rejects_releases(self):
        inst = point_instance(1, [(1, 1, (1,))])
        with pytest.raises(ValueError):
            oracle.stoch_opt(inst)

    def test_size_limits(self):
        # six jobs of support {1, 4} on four machines: 24 codes a machine,
        # 1,827,904 states; 17 unit jobs on one machine: 1,245,184
        spread = ProcDist({1: F(1, 2), 4: F(1, 2)})
        wide = Instance(4, [Job(j, F(1), 0, [spread] * 4) for j in range(1, 7)])
        many = point_instance(1, [(1, 0, (1,)) for _ in range(17)])
        for inst, states in ((wide, "1,827,904"), (many, "1,245,184")):
            start = time.process_time()
            with pytest.raises(TooLargeError, match=f"visit {states} states"):
                oracle.stoch_opt(inst)
            assert time.process_time() - start < 0.05

    def test_long_support_is_refused_before_the_recursion_limit(self):
        # 2,001 nested calls would pass Python's default recursion limit
        long = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 2000: F(1, 2)}),))])
        with pytest.raises(TooLargeError, match="2,001 calls deep"):
            oracle.stoch_opt(long)
        # the deepest search the limit admits runs under a test runner's stack
        deepest = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 499: F(1, 2)}),))])
        assert oracle.stoch_opt(deepest) == 250


WEIGHTS = (F(1), F(3, 2), F(2, 3), F(5, 4), F(7))


def _mask(rng: random.Random, machines: int) -> list[bool]:
    mask = [rng.random() < 0.7 for _ in range(machines)]
    if not any(mask):
        mask[rng.randrange(machines)] = True
    return mask


class TestReferenceCrossCheck:
    """The oracles run on scaled integers; the references in
    `tests/reference.py` run on Fractions with no scaling.  They must
    agree exactly."""

    def test_stoch_opt_matches_reference(self):
        # the program packs a slot code per machine into one int: two
        # machines with four jobs reach its largest codes and strides, a 0
        # in a support its instant-completion branch, and the largest
        # support value a job's last elapsed time
        rng = random.Random(211)
        seen = {"zero": 0, "fractional": 0, "forbidden": 0,
                "two-by-four": 0, "zero-on-two-machines": 0, "max-value": 0}
        for _ in range(300):
            machines = rng.randint(1, 2)
            jobs = []
            for job_id in range(1, rng.randint(1, 4) + 1):
                row = []
                for allowed in _mask(rng, machines):
                    dist = None
                    while allowed and (dist is None or dist.mean < 1):
                        dist = oracle.random_dist(rng, max_value=4)
                    row.append(dist)
                jobs.append(Job(job_id, rng.choice(WEIGHTS), 0, row))
            inst = Instance(machines, jobs)
            seen["zero"] += any(d is not None and 0 in d.support
                                for job in inst.jobs for d in job.proc)
            seen["fractional"] += any(job.weight.denominator > 1 for job in inst.jobs)
            seen["forbidden"] += any(None in job.proc for job in inst.jobs)
            seen["two-by-four"] += machines == 2 and inst.n == 4
            seen["zero-on-two-machines"] += machines == 2 and any(
                d is not None and 0 in d.support for job in inst.jobs for d in job.proc)
            seen["max-value"] += any(d is not None and d.max_value == 4
                                     for job in inst.jobs for d in job.proc)
            assert oracle.stoch_opt(inst) == reference.stoch_opt(inst), inst
        assert min(seen.values()) >= 20, seen

    def test_stoch_opt_matches_reference_past_the_former_caps(self):
        # three machines, and support values of 5 and 6, which the program
        # refused while its reach was set by fixed shape limits
        rng = random.Random(229)
        seen = {"three-machines": 0, "three-by-four": 0, "value-5": 0, "value-6": 0}
        for _ in range(100):
            machines = rng.choice((1, 2, 3, 3))
            max_value = 4 if machines == 3 else 6
            jobs = []
            for job_id in range(1, rng.randint(1, 4) + 1):
                row = []
                for allowed in _mask(rng, machines):
                    dist = None
                    while allowed and (dist is None or dist.mean < 1):
                        dist = oracle.random_dist(rng, max_value=max_value)
                    row.append(dist)
                jobs.append(Job(job_id, rng.choice(WEIGHTS), 0, row))
            inst = Instance(machines, jobs)
            tops = {d.max_value for job in inst.jobs for d in job.proc if d is not None}
            seen["three-machines"] += machines == 3
            seen["three-by-four"] += machines == 3 and inst.n == 4
            seen["value-5"] += 5 in tops
            seen["value-6"] += 6 in tops
            assert oracle.stoch_opt(inst) == reference.stoch_opt(inst), inst
        assert min(seen.values()) >= 5, seen

    def test_stoch_opt_matches_reference_with_no_more_jobs_than_machines(self):
        # with every job started the program prices a state in closed form;
        # with n <= m most states it reaches are such states
        rng = random.Random(241)
        seen = {"zero": 0, "fractional": 0, "forbidden": 0, "four-machines": 0,
                "as-many-jobs-as-machines": 0}
        for _ in range(60):
            machines = rng.randint(2, 4)
            jobs = []
            for job_id in range(1, rng.randint(1, machines) + 1):
                row = []
                for allowed in _mask(rng, machines):
                    dist = None
                    while allowed and (dist is None or dist.mean < 1):
                        dist = oracle.random_dist(rng, max_value=3)
                    row.append(dist)
                jobs.append(Job(job_id, rng.choice(WEIGHTS), 0, row))
            inst = Instance(machines, jobs)
            seen["zero"] += any(d is not None and 0 in d.support
                                for job in inst.jobs for d in job.proc)
            seen["fractional"] += any(job.weight.denominator > 1 for job in inst.jobs)
            seen["forbidden"] += any(None in job.proc for job in inst.jobs)
            seen["four-machines"] += machines == 4
            seen["as-many-jobs-as-machines"] += inst.n == machines
            assert oracle.stoch_opt(inst) == reference.stoch_opt(inst), inst
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("machines", [1, 2, 3])
    def test_det_opt_with_releases_at_seven_jobs_matches_reference(self, machines):
        # seven jobs with releases, past the former cap of six
        rng = random.Random(233 + machines)
        starts = sorted(rng.randint(0, 8) for _ in range(7))
        jobs = [Job(job_id, rng.choice(WEIGHTS), starts[job_id - 1],
                    [ProcDist.point(rng.randint(1, 4)) if allowed else None
                     for allowed in _mask(rng, machines)])
                for job_id in range(1, 8)]
        inst = Instance(machines, jobs)
        assert inst.has_releases and oracle.det_opt(inst) == reference.det_opt(inst)

    @pytest.mark.parametrize("machines", [1, 2, 3, 7])
    def test_det_opt_of_no_jobs_matches_reference(self, machines):
        inst = Instance(machines, [])
        assert oracle.det_opt(inst) == reference.det_opt(inst) == 0

    @pytest.mark.parametrize("machines", [1, 2, 3, 7])
    def test_stoch_opt_of_no_jobs_matches_reference(self, machines):
        inst = Instance(machines, [])
        assert oracle.stoch_opt(inst) == reference.stoch_opt(inst) == 0

    @pytest.mark.parametrize("releases", [False, True])
    def test_det_opt_matches_reference(self, releases):
        # four machines put two in the middle of the subset program; jobs
        # only the first or only the last machine runs pin its ends
        rng = random.Random(223)
        released = 0
        seen = {"four-machines": 0, "first-only": 0, "last-only": 0, "fractional": 0}
        integer = 0
        for _ in range(200):
            machines = rng.randint(1, 4)
            n = rng.randint(1, 5)
            starts = sorted(rng.randint(0, 6) for _ in range(n)) if releases else [0] * n
            jobs = []
            for job_id in range(1, n + 1):
                mask = _mask(rng, machines)
                if machines > 1 and rng.random() < 0.2:
                    mask = [False] * machines
                    mask[rng.choice((0, -1))] = True
                jobs.append(Job(job_id, rng.choice(WEIGHTS), starts[job_id - 1],
                                [ProcDist.point(rng.randint(1, 4)) if allowed else None
                                 for allowed in mask]))
            inst = Instance(machines, jobs)
            released += inst.has_releases
            seen["four-machines"] += machines == 4
            seen["first-only"] += machines > 1 and any(
                job.permitted == (1,) for job in inst.jobs)
            seen["last-only"] += machines > 1 and any(
                job.permitted == (machines,) for job in inst.jobs)
            # a weight scale above 1, or of 1, which skips the lcm and the gcd
            seen["fractional"] += any(job.weight.denominator > 1 for job in inst.jobs)
            integer += all(job.weight.denominator == 1 for job in inst.jobs)
            opt = oracle.det_opt(inst)
            assert type(opt) is F and opt == reference.det_opt(inst), inst
        assert released >= 150 if releases else released == 0
        assert min(seen.values()) >= 30 and integer >= 20, (seen, integer)


class TestTightnessFamily:
    def test_level_two_shape(self):
        inst = oracle.gen_lower_bound(2, 4)
        assert inst.machines == 4 and inst.n == 5
        widths = [len(job.permitted) for job in inst.jobs]
        assert widths == [4, 3, 2, 1, 1]
        assert all(job.weight == 1 for job in inst.jobs)
        assert all(inst.mean(m, job.id) == 1
                   for job in inst.jobs for m in job.permitted)

    def test_level_three_size(self):
        inst = oracle.gen_lower_bound(3, 36)
        assert inst.n == 36 + 9 + 4 == 49

    def test_bad_machine_count(self):
        with pytest.raises(BadMError):
            oracle.gen_lower_bound(2, 6)      # 6 is not divisible by 4

    def test_ratio_values(self):
        greedy, opt, ratio = oracle.lower_bound_ratio(1)
        assert (greedy, opt, ratio) == (1, 1, 1)
        greedy, opt, ratio = oracle.lower_bound_ratio(2)
        assert (greedy, opt, ratio) == (11, 6, F(11, 6))

    def test_level_two_oracle_agrees(self):
        inst = oracle.gen_lower_bound(2, 4)
        assert oracle.det_opt(inst) == 6
        assert greedy_list.greedy_cost(inst) == 11

    def test_k_is_capped(self):
        with pytest.raises(TooLargeError):
            oracle.lower_bound_ratio(7)


class TestRandomDist:
    def test_integer_means(self):
        rng = random.Random(107)
        for _ in range(200):
            d = oracle.random_dist(rng, integer_mean=True)
            assert d.mean.denominator == 1 and d.mean >= 1

    def test_general_distributions_are_valid(self):
        rng = random.Random(109)
        for _ in range(200):
            d = oracle.random_dist(rng)
            assert sum((p for _, p in d.pmf), F(0)) == 1
            assert d.mean > 0


class TestSingleJobIdentity:
    def test_unit_job(self):
        report = oracle.check_b1(ProcDist.point(1), {0: F(1)})
        assert report.passed and report.metrics["direct"] == 1

    def test_spread_job(self):
        report = oracle.check_b1(ProcDist({1: F(1, 2), 3: F(1, 2)}), {0: F(1)})
        assert report.passed and report.metrics["direct"] == 2

    def test_shifted_and_split_starts(self):
        report = oracle.check_b1(ProcDist({1: F(1, 2), 3: F(1, 2)}),
                                 {2: F(1, 3), 5: F(2, 3)})
        assert report.passed
        assert report.metrics["direct"] == F(2, 3) + F(10, 3) + 2

    def test_fuzz(self):
        rng = random.Random(113)
        for _ in range(120):
            dist = oracle.random_dist(rng)
            starts = sorted(rng.sample(range(7), rng.randint(1, 3)))
            raw = [rng.randint(1, 5) for _ in starts]
            x = {t: F(a, sum(raw)) for t, a in zip(starts, raw)}
            assert oracle.check_b1(dist, x).passed


class TestStoppedSums:
    def test_families_respect_the_bound(self):
        t = F(8)
        for process in (oracle.constant_process(t), oracle.doubling_process(t),
                        oracle.staged_process(t), oracle.heavy_process(t)):
            report = oracle.check_b2(process, 600, 11)
            assert report.passed
            assert report.metrics["mean"] <= float(4 * t)

    def test_heavy_family_needs_a_positive_threshold(self):
        for t in (F(0), F(-1)):
            with pytest.raises(ValueError, match="threshold must be positive"):
                oracle.heavy_process(t)

    def test_staged_family_approaches_three_t(self):
        t = F(8)
        report = oracle.check_b2(oracle.staged_process(t, stages=32), 1500, 17)
        assert 2.5 * float(t) < report.metrics["mean"] < 3 * float(t)

    def test_hypothesis_violations_are_refused(self):
        shrinking = oracle.StoppingProcess(
            "bad-shrink", F(4), lambda rng, k: (F(2), F(1)))     # Y < A
        with pytest.raises(HypothesisViolatedError):
            oracle.check_b2(shrinking, 10, 0)
        oversized = oracle.StoppingProcess(
            "bad-big", F(4), lambda rng, k: (F(5), F(5)))        # A > T
        with pytest.raises(HypothesisViolatedError):
            oracle.check_b2(oversized, 10, 0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            oracle.check_b2(oracle.constant_process(F(0)), 10, 0)


class TestPerJobBound:
    def test_bounds_match_priority_split(self):
        # weights and means in {1, 2, 4} tie many ratios; about one pair
        # in five is forbidden
        rng = random.Random(139)
        choices = (1, 2, 4)
        for trial in range(60):
            machines = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(1, 9)):
                durations = [rng.choice(choices) if rng.random() < 0.8 else None
                             for _ in range(machines)]
                if all(d is None for d in durations):
                    durations[rng.randrange(machines)] = rng.choice(choices)
                rows.append((rng.choice(choices), rng.randint(0, 5), tuple(durations)))
            rows.sort(key=lambda row: row[1])
            inst = point_instance(machines, rows)
            if trial % 2:  # the same shape with two-point supports
                inst = Instance(machines, [
                    Job(job.id, job.weight, job.release, tuple(
                        None if d is None else ProcDist({d.max_value - 1: F(1, 2),
                                                         d.max_value + 1: F(1, 2)})
                        for d in job.proc))
                    for job in inst.jobs])
            for f in (F(1), F(2), F(5, 2)):
                assignment = greedy_time.assign(inst, f)
                assert oracle._lemma5_bounds(inst, f, assignment) == \
                    reference.lemma5_bounds(inst, f, assignment)

    def test_bounds_match_priority_split_on_fractional_means(self):
        # the integer bound over K*q against the Fraction one, with mean
        # scales K > 1 and speeds f = p/q with q > 1
        rng = random.Random(149)
        scales = set()
        for _ in range(40):
            inst = random_instance(rng, max_machines=3, max_jobs=7, releases=True,
                                   fractional_weights=True)
            scales.add(inst.scaled.mean_scale > 1)
            for f in (F(1), F(2), F(5, 2), F(7, 3), F(3)):
                assignment = greedy_time.assign(inst, f)
                assert oracle._lemma5_bounds(inst, f, assignment) == \
                    reference.lemma5_bounds(inst, f, assignment)
        assert scales == {False, True}

    def test_exact_on_the_worked_instance(self):
        inst = worked_instance()
        assignment = greedy_time.assign(inst, F(2))
        report = oracle.check_lemma5(inst, F(2), assignment, greedy_time.estimate_cost(
            inst, F(2), 10, 0, assignment))
        assert report.passed and report.name == "per-job-bound[exact]"

    def test_exact_on_random_deterministic_instances(self):
        rng = random.Random(127)
        for _ in range(20):
            inst = random_instance(rng, max_machines=3, max_jobs=6,
                                   integer_mean=True, releases=True)
            points = point_instance(inst.machines, [
                (job.weight, job.release,
                 tuple(None if d is None else int(d.mean) for d in job.proc))
                for job in inst.jobs
            ])
            assignment = greedy_time.assign(points, F(2))
            report = oracle.check_lemma5(points, F(2), assignment, greedy_time.estimate_cost(
                points, F(2), 10, 0, assignment))
            assert report.passed, report.violations

    def test_monte_carlo_on_heavy_tails(self):
        # the adversarial shape: a crowd of nearly-always-zero jobs in
        # front of one solid job
        from stochsched.errors import SmallMeanWarning
        bad = ProcDist({0: F(99, 100), 10: F(1, 100)})
        jobs = [Job(j, F(1, 100), 0, (bad,)) for j in range(1, 101)]
        jobs.append(Job(101, F(1), 1, (ProcDist.point(1),)))
        with pytest.warns(SmallMeanWarning):
            inst = Instance(1, jobs)
        assignment = greedy_time.assign(inst, F(2))
        report = oracle.check_lemma5(inst, F(2), assignment, greedy_time.estimate_cost(
            inst, F(2), 400, 3, assignment))
        assert report.name == "per-job-bound[mc]"
        assert report.passed, report.violations

    def test_shared_estimate_must_be_the_forced_idle_draws(self):
        two_point = ProcDist({1: F(1, 2), 3: F(1, 2)})
        inst = Instance(2, [Job(1, F(1), 0, (two_point, two_point)),
                            Job(2, F(2), 1, (two_point, None)),
                            Job(3, F(1), 2, (None, two_point))])
        assignment = greedy_time.assign(inst, F(2))
        other = greedy_time.estimate_cost(inst, F(2), 30, 4, assignment, "max-proc")
        with pytest.raises(ValueError, match="forced-idle estimate, got max-proc"):
            oracle.check_lemma5(inst, F(2), assignment, other)

    def test_exact_path_reads_no_estimate(self):
        # on point masses the bound is judged on the single trace, so the
        # estimate's mode does not matter and its draws are never read
        inst = worked_instance()
        assignment = greedy_time.assign(inst, F(2))
        forced = oracle.check_lemma5(inst, F(2), assignment, greedy_time.estimate_cost(
            inst, F(2), 10, 0, assignment))
        for other in (greedy_time.estimate_cost(inst, F(2), 30, 4, assignment, "max-proc"),
                      greedy_time.estimate_cost(inst, F(2), 1, 9, assignment)):
            assert oracle.check_lemma5(inst, F(2), assignment, other) == forced
