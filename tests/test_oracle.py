import random
import time
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist
from stochsched.errors import BadMError, HypothesisViolatedError, TooLargeError
from stochsched import greedy_list, greedy_time, oracle

import reference
from helpers import double_support, point_instance, random_instance, worked_instance

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
        # each jump takes a running job to its next support value, so 500
        # support values may nest 501 calls, past the limit
        long = Instance(1, [Job(1, F(1), 0, (_uniform(1, 500),))])
        with pytest.raises(TooLargeError, match="502 states 501 calls deep"):
            oracle.stoch_opt(long)
        # the deepest count the limit admits; one job is priced in closed form
        deepest = Instance(1, [Job(1, F(1), 0, (_uniform(1, 499),))])
        assert oracle.stoch_opt(deepest) == 250
        # a search that really nests that deep runs under a test runner's
        # stack: starting the long job first walks its 497 support values
        # in nested calls, 2 + 497 + 1 = 500
        nested = Instance(1, [Job(1, F(1), 0, (_uniform(1, 497),)), Job(2, F(1), 0, (ProcDist.point(1),))])
        assert oracle.stoch_opt(nested) == 1 + (1 + 249)

    def test_a_wide_gap_costs_one_jump(self):
        # 2,000 units in two support values, so two epochs a job; the
        # second job waits behind the first or takes the other machine
        long = ProcDist({1: F(1, 2), 2000: F(1, 2)})
        assert oracle.stoch_opt(Instance(1, [Job(1, F(1), 0, (long,))])) == F(2001, 2)
        two = Instance(2, [Job(1, F(1), 0, (long, None)), Job(2, F(1), 0, (long, ProcDist.point(3)))])
        # job 2 on machine 2 ends at 3, job 1 at its mean
        assert oracle.stoch_opt(two) == F(2001, 2) + 3

    def test_doubling_every_support_value_doubles_the_optimum(self):
        # every gap is then at least 2, so each advance of the doubled
        # instance is a jump of several units, and its epochs are twice
        # the original's
        rng = random.Random(257)
        seen = {"contiguous": 0, "zero": 0, "three-machines": 0}
        for _ in range(60):
            inst = random_instance(rng, max_machines=3, max_jobs=3, max_value=4,
                                   fractional_weights=True)
            doubled = Instance(inst.machines, [
                Job(job.id, job.weight, 0, [None if d is None else double_support(d) for d in job.proc])
                for job in inst.jobs])
            supports = [d.support for job in inst.jobs for d in job.proc if d is not None]
            seen["contiguous"] += any(len(s) > 1 and s[-1] - s[0] == len(s) - 1 for s in supports)
            seen["zero"] += any(s[0] == 0 for s in supports)
            seen["three-machines"] += inst.machines == 3
            assert oracle.stoch_opt(doubled) == 2 * oracle.stoch_opt(inst), inst
        assert min(seen.values()) >= 10, seen


def _uniform(low: int, high: int) -> ProcDist:
    return ProcDist({v: F(1, high - low + 1) for v in range(low, high + 1)})


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

    def test_stoch_opt_matches_reference_on_gapped_supports(self):
        # the program jumps a busy machine to its job's next support value;
        # the reference steps one unit at a time.  Gapped supports make
        # jumps of several units, busy machines with unequal gaps make the
        # longer gap run on, and a rare long value is the widest gap
        rng = random.Random(263)
        gapped = ((1, 4), (0, 3), (2, 9), (1, 5, 11), (3, 4, 10))
        seen = {"gapped": 0, "rare-long": 0, "zero": 0, "three-machines": 0,
                "fractional": 0, "forbidden": 0}
        for _ in range(60):
            machines = rng.choice((1, 2, 2, 3))
            jobs = []
            for job_id in range(1, rng.randint(1, 3 if machines == 3 else 4) + 1):
                row = []
                for allowed in _mask(rng, machines):
                    dist = None
                    while allowed and (dist is None or dist.mean < 1):
                        kind = rng.randrange(4)
                        if kind == 0:  # a rare long value
                            rare = F(1, rng.choice((8, 16, 20)))
                            dist = ProcDist({1: 1 - rare, 12: rare})
                        elif kind == 1:
                            dist = oracle.random_dist(rng, max_value=6)
                        else:
                            values = rng.choice(gapped)
                            raw = [rng.randint(1, 5) for _ in values]
                            dist = ProcDist({v: F(a, sum(raw)) for v, a in zip(values, raw)})
                    row.append(dist)
                jobs.append(Job(job_id, rng.choice(WEIGHTS), 0, row))
            inst = Instance(machines, jobs)
            supports = [d.support for job in inst.jobs for d in job.proc if d is not None]
            seen["gapped"] += any(b - a > 1 for s in supports for a, b in zip(s, s[1:]))
            seen["rare-long"] += (1, 12) in supports
            seen["zero"] += any(s[0] == 0 for s in supports)
            seen["three-machines"] += machines == 3
            seen["fractional"] += any(job.weight.denominator > 1 for job in inst.jobs)
            seen["forbidden"] += any(None in job.proc for job in inst.jobs)
            assert oracle.stoch_opt(inst) == reference.stoch_opt(inst), inst
        assert min(seen.values()) >= 8, seen

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
        with pytest.raises(BadMError, match="m=6 is not divisible by 4"):
            oracle.gen_lower_bound(2, 6)

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

    def test_integer_means_come_in_all_three_shapes(self):
        rng = random.Random(113)
        # perfbench draws its inputs from this stream, so its order is pinned
        first = [oracle.random_dist(rng, integer_mean=True).pmf for _ in range(3)]
        assert first == [((6, 1),), ((0, F(3, 4)), (4, F(1, 4))), ((4, F(1, 2)), (6, F(1, 2)))]
        shapes = set()
        for _ in range(200):
            d = oracle.random_dist(rng, integer_mean=True)
            assert d.mean.denominator == 1 and d.mean >= 1
            if len(d.pmf) == 1:
                shapes.add("point")
                continue
            (low, p_low), (high, p_high) = d.pmf
            if low > 0:                 # only the symmetric pair keeps off 0
                assert p_low == p_high == F(1, 2)
                shapes.add("symmetric")
            elif p_high != F(1, 2):     # only {0, top} weighs its points unequally
                assert p_high == d.mean / high
                shapes.add("zero-inflated")
        assert shapes == {"point", "symmetric", "zero-inflated"}

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
    @pytest.mark.parametrize("make, mean, mean_stop", [
        (oracle.constant_process, F(8), F(1)),
        (oracle.doubling_process, F(16), F(1)),
        (oracle.staged_process, F(23), F(8)),
        # 32 (1 - (15/16)^8) and half of it: eight steps of T/8, each
        # stopping at once with probability 1/16
        (oracle.heavy_process, F(1732076671, 134217728), F(1732076671, 268435456)),
    ], ids=["constant", "doubling", "staged", "heavy"])
    def test_exact_stopped_means(self, make, mean, mean_stop):
        report = oracle.check_b2(make(F(8)))
        assert report.passed
        assert report.metrics == {"threshold": 8, "mean": mean, "bound": 32,
                                  "mean_stop": mean_stop}
        assert all(type(v) is F for v in report.metrics.values())

    def test_heavy_family_needs_a_positive_threshold(self):
        for t in (F(0), F(-1)):
            with pytest.raises(ValueError, match="threshold must be positive"):
                oracle.heavy_process(t)

    def test_staged_family_is_three_t_less_a_stage(self):
        t = F(8)
        report = oracle.check_b2(oracle.staged_process(t, stages=32))
        assert report.metrics["mean"] == 3 * t - t / 32
        assert report.metrics["mean_stop"] == 32

    @pytest.mark.parametrize("step, match", [
        (lambda k: (F(2), ((1, F(1)),)), r"Y_1 = 1 < A_1 = 2"),
        (lambda k: (F(5), ((1, F(5)),)), r"A_1 = 5 outside \[0, T=4\]"),
        (lambda k: (F(1), ((1, F(1)),)) if k < 3 else (F(1), ((1, F(3)),)),
         r"E\[Y_3\] = 3 > 2 A_3 = 2"),
        (lambda k: (F(2), ((F(1, 2), F(2)), (F(1, 3), F(4)))),
         r"step 1's probabilities sum to 5/6"),
        (lambda k: (F(2), ((F(3, 2), F(2)), (F(-1, 2), F(4)))),
         r"Y_1 = 4 has probability -1/2"),
    ], ids=["y-below-a", "a-above-t", "mean-above-2a", "mass-not-one", "negative-mass"])
    def test_hypothesis_violations_are_refused(self, step, match):
        with pytest.raises(HypothesisViolatedError, match=match):
            oracle.check_b2(oracle.StoppingProcess("bad", F(4), step))

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            oracle.check_b2(oracle.constant_process(F(0)))


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
