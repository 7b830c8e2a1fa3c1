import dataclasses
import enum
import itertools
import math
import pickle
import random
import warnings
from fractions import Fraction

import pytest

from stochsched.core import (
    Instance, Job, ProcDist, as_fraction, fixed_assignment_cost, list_schedule,
    max_scv, priority_split, strict_fraction,
)
from stochsched.errors import (ProbSumError, SchemaError, SmallMeanWarning, UnschedulableError,
                               ZeroMeanError)

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction


def test_as_fraction_accepts_ints_strings_fractions():
    assert as_fraction(3) == F(3)
    assert as_fraction("5/2") == F(5, 2)
    assert as_fraction(F(1, 3)) == F(1, 3)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


@pytest.mark.parametrize("value, expected", [
    ("3/6", F(1, 2)), ("+4", F(4)), ("-0", F(0)), (7, F(7)), ("-12/8", F(-3, 2)),
    ("0007/0014", F(1, 2)),
], ids=["reduced", "plus-sign", "minus-zero", "int", "negative-p-over-q", "leading-zeros"])
def test_strict_fraction_accepts(value, expected):
    got = strict_fraction(value, "where")
    assert got.__class__ is Fraction and got == expected


@pytest.mark.parametrize("value", [
    True, 1.5, " 1", "1 ", "1_0", "\u0661", "1/0", "1/-2", "1e3", "0x1", "1/2/3", "", "+",
    "1" * 4301, "1/" + "1" * 4301, None,
], ids=["bool", "float", "leading-space", "trailing-space", "underscore", "arabic-indic-digit",
        "zero-denominator", "signed-denominator", "exponent", "hex", "two-slashes", "empty",
        "sign-alone", "4301-digit-numerator", "4301-digit-denominator", "null"])
def test_strict_fraction_refuses_naming_where(value):
    with pytest.raises(SchemaError) as info:
        strict_fraction(value, "jobs[0].w")
    assert str(info.value) == f"jobs[0].w: rationals are integers or 'p/q' strings, got {value!r}"


class TestProcDist:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ProbSumError):
            ProcDist({1: F(1, 2)})
        with pytest.raises(ProbSumError):
            ProcDist({1: F(1, 2), 2: F(2, 3)})

    def test_support_values_validated(self):
        with pytest.raises(ValueError):
            ProcDist({-1: 1})
        with pytest.raises(ValueError):
            ProcDist({1: F(3, 2), 2: F(-1, 2)})

    def test_duplicate_support_entries_merge(self):
        d = ProcDist([(2, F(1, 2)), (2, F(1, 2))])
        assert d.pmf == ((2, F(1)),)

    def test_point_mass(self):
        d = ProcDist.point(4)
        assert len(d.pmf) == 1 and d.mean == 4 and d.variance == 0 and d.scv == 0

    def test_two_point_moments(self):
        d = ProcDist({1: F(1, 2), 3: F(1, 2)})
        assert d.mean == 2
        assert d.second_moment == 5
        assert d.variance == 1
        assert d.scv == F(1, 4)
        assert d.support == (1, 3) and d.max_value == 3

    def test_tail(self):
        d = ProcDist({1: F(1, 2), 3: F(1, 2)})
        assert d.tail(0) == 1
        assert d.tail(1) == F(1, 2)
        assert d.tail(F(5, 2)) == F(1, 2)
        assert d.tail(3) == 0

    # The two identities every slot-based cost computation leans on:
    # summed tails give the mean, half-slot weighted tails give half the
    # second moment.
    def test_moment_identities_fuzz(self):
        from stochsched.oracle import random_dist
        rng = random.Random(20260822)
        for _ in range(500):
            d = random_dist(rng)
            top = d.max_value
            assert sum((d.tail(r) for r in range(top + 1)), F(0)) == d.mean
            weighted = sum(((F(r) + F(1, 2)) * d.tail(r) for r in range(top + 1)), F(0))
            assert weighted == d.second_moment / 2

    def test_sample_is_exact_and_deterministic(self):
        d = ProcDist({0: F(1, 3), 2: F(1, 3), 5: F(1, 3)})
        rng = random.Random(7)
        draws = [d.sample(rng) for _ in range(3000)]
        assert set(draws) <= {0, 2, 5}
        for v in (0, 2, 5):
            assert abs(draws.count(v) / 3000 - 1 / 3) < 0.05
        rng2 = random.Random(7)
        assert draws == [d.sample(rng2) for _ in range(3000)]

    # partial sums 1/2, 3/4 are floats; 1/3, 2/3, 1/10, 3/10 are not
    CDF_CASES = [
        {1: F(1, 2), 2: F(1, 4), 3: F(1, 4)},
        {0: F(1, 3), 2: F(1, 3), 5: F(1, 3)},
        {1: F(1, 10), 2: F(1, 5), 4: F(7, 10)},
        {3: F(1, 7), 4: F(3, 7), 9: F(3, 7)},
        {1: F(1)},
    ]

    def test_sample_matches_rational_cdf_stream(self):
        dists = [ProcDist(pmf) for pmf in self.CDF_CASES]
        from stochsched.oracle import random_dist
        dists += [random_dist(random.Random(seed)) for seed in range(40)]
        for index, d in enumerate(dists):
            fast, slow = random.Random(f"cdf:{index}"), random.Random(f"cdf:{index}")
            assert [d.sample(fast) for _ in range(2000)] == \
                [reference.sample(d, slow) for _ in range(2000)]

    def test_sample_bins_floats_next_to_each_partial_sum_like_the_cdf(self):
        class Replay:
            def __init__(self, values):
                self.values = iter(values)

            def random(self):
                return next(self.values)

        for pmf in self.CDF_CASES:
            d = ProcDist(pmf)
            acc, draws = F(0), [0.0, math.nextafter(1.0, 0.0)]
            for _, prob in d.pmf:
                acc += prob
                near = float(acc)
                draws += [math.nextafter(near, 0.0), near, math.nextafter(near, 1.0)]
            draws = [u for u in draws if 0.0 <= u < 1.0]
            assert [d.sample(Replay([u])) for u in draws] == \
                [reference.sample(d, Replay([u])) for u in draws]
            assert all(F(cut) >= q and F(math.nextafter(cut, 0.0)) < q for cut, q in
                       zip(d.cuts, itertools.accumulate(p for _, p in d.pmf)))

    # `ProcDist` checks and sums on integer counts; `reference` keeps the
    # `Fraction` sums it replaced
    def test_moments_match_the_fraction_reference(self):
        from stochsched.oracle import random_dist
        rng = random.Random(20261018)
        for _ in range(500):
            d = random_dist(rng, max_value=rng.randint(1, 12),
                            integer_mean=rng.random() < 0.3)
            # the same pmf again, split into duplicates and shuffled
            items = []
            for value, prob in d.pmf:
                part = prob * F(rng.randint(1, 6), 7)
                items += [(value, part), (value, prob - part)]
            rng.shuffle(items)
            again = ProcDist(items)
            assert again.pmf == reference.normalize_pmf(items) == d.pmf
            for dist in (d, again):
                assert (dist.mean, dist.second_moment, dist.scv) == reference.moments(dist.pmf)

    def test_duplicate_values_in_an_iterable_pmf_merge(self):
        items = [(5, F(1, 11)), (2, F(1, 7)), (5, F(3, 13)), (2, F(1, 7)), (9, F(1, 5))]
        items.append((9, 1 - sum((p for _, p in items), F(0))))
        d = ProcDist(items)
        assert d.pmf == reference.normalize_pmf(items)
        assert d.support == (2, 5, 9)
        assert (d.mean, d.second_moment, d.scv) == reference.moments(d.pmf)

    @pytest.mark.parametrize("items,text", [
        ({1: F(1, 2), 2: F(2, 3)}, "probabilities sum to 7/6, not 1"),
        ({1: F(1, 3), 2: F(1, 7)}, "probabilities sum to 10/21, not 1"),
        ([(1, F(1, 2)), (1, F(1, 2)), (2, F(1, 11))], "probabilities sum to 12/11, not 1"),
        ({1: 2}, "probabilities sum to 2, not 1"),
        ({}, "probabilities sum to 0, not 1"),
    ], ids=["above", "below", "duplicates-above", "integer", "empty"])
    def test_sum_errors_keep_their_text(self, items, text):
        for build in (ProcDist, reference.normalize_pmf):
            with pytest.raises(ProbSumError) as caught:
                build(items)
            assert str(caught.value) == text

    @pytest.mark.parametrize("items,text", [
        ({1: F(0), 2: F(1)}, "probability of 1 must be positive, got 0"),
        ({1: F(3, 2), 2: F(-1, 2)}, "probability of 2 must be positive, got -1/2"),
        ({1: "-1/3", 2: "4/3"}, "probability of 1 must be positive, got -1/3"),
        ([(2, F(1, 2)), (2, 0), (3, F(1, 2))], "probability of 2 must be positive, got 0"),
    ], ids=["zero", "negative", "negative-string", "zero-duplicate"])
    def test_zero_and_negative_probabilities_are_rejected(self, items, text):
        for build in (ProcDist, reference.normalize_pmf):
            with pytest.raises(ValueError) as caught:
                build(items)
            assert str(caught.value) == text

    def test_huge_common_denominator(self):
        # Mersenne primes 2^127 - 1 and 2^521 - 1: a 648-bit common denominator
        p, q = 2 ** 127 - 1, 2 ** 521 - 1
        items = {0: F(1, p), 3: F(1, q), 7: 1 - F(1, p) - F(1, q)}
        d = ProcDist(items)
        assert d.pmf == reference.normalize_pmf(items)
        assert d.mean.denominator == p * q
        assert (d.mean, d.second_moment, d.scv) == reference.moments(d.pmf)
        with pytest.raises(ProbSumError):
            ProcDist({0: F(1, p), 3: F(1, q), 7: 1 - F(1, p)})
        assert d.sample(random.Random(3)) in (0, 3, 7)


class TestJobAndInstance:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job(1, F(0), 0, (ProcDist.point(1),))
        with pytest.raises(ValueError):
            Job(1, F(1), -2, (ProcDist.point(1),))

    def test_bools_are_not_integers_here(self):
        # bool subclasses int, so True would otherwise read as id 1 or one machine
        row = (ProcDist.point(1),)
        with pytest.raises(ValueError, match="job id"):
            Job(True, F(1), 0, row)
        with pytest.raises(ValueError, match="release"):
            Job(1, F(1), True, row)
        with pytest.raises(ValueError, match="machine count"):
            Instance(True, [Job(1, F(1), 0, row)])

    def test_deterministic_reads_every_permitted_pair(self):
        point, spread = ProcDist.point(2), ProcDist({1: F(1, 2), 3: F(1, 2)})
        assert Instance(2, [Job(1, F(1), 0, (point, None))]).deterministic
        assert not Instance(2, [Job(1, F(1), 0, (point, None)),
                                Job(2, F(1), 0, (None, spread))]).deterministic

    def test_ids_must_be_arrival_order(self):
        with pytest.raises(ValueError):
            Instance(1, [Job(2, F(1), 0, (ProcDist.point(1),))])

    def test_releases_must_be_nondecreasing(self):
        jobs = [Job(1, F(1), 3, (ProcDist.point(1),)),
                Job(2, F(1), 1, (ProcDist.point(1),))]
        with pytest.raises(ValueError):
            Instance(1, jobs)

    def test_proc_row_length_must_match_machines(self):
        with pytest.raises(ValueError):
            Instance(2, [Job(1, F(1), 0, (ProcDist.point(1),))])

    def test_fully_forbidden_job_rejected(self):
        with pytest.raises(UnschedulableError):
            Instance(1, [Job(1, F(1), 0, (None,))])

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            Instance(1, [Job(1, F(1), 0, (ProcDist({0: 1}),))])

    def test_small_mean_warns(self):
        dist = ProcDist({0: F(1, 2), 1: F(1, 2)})
        with pytest.warns(SmallMeanWarning):
            Instance(1, [Job(1, F(1), 0, (dist,))])

    def test_zero_mean_names_the_first_offending_job(self):
        # distributions are validated once each, so the error must come
        # from the job where the shared zero-mean one first appears
        unit, zero = ProcDist.point(1), ProcDist.point(0)
        jobs = [Job(1, F(1), 0, (unit, unit)),
                Job(2, F(1), 0, (unit, zero)),
                Job(3, F(1), 0, (zero, ProcDist.point(0)))]
        with pytest.raises(ZeroMeanError, match="job 2 "):
            Instance(2, jobs)

    def test_shared_small_mean_warns_once(self):
        small = ProcDist({0: F(1, 2), 1: F(1, 2)})
        jobs = [Job(j, F(1), 0, (small, small if j % 2 else ProcDist.point(1)))
                for j in range(1, 6)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Instance(2, jobs)
        assert [w.category for w in caught] == [SmallMeanWarning]

    def test_accessors(self):
        inst = worked_instance()
        assert inst.n == 2
        assert inst.mean(1, 1) == 2 and inst.mean(2, 1) == 3
        assert inst.ratio(1, 2) == 2
        assert not inst.has_releases
        assert inst.job(2).permitted == (1, 2)

    def test_permitted_is_not_a_field(self):
        job = Job(1, F(2), 3, (None, ProcDist.point(2), ProcDist.point(1)))
        assert job.permitted == (2, 3)
        assert "permitted" not in repr(job)
        assert [f.name for f in dataclasses.fields(job)] == ["id", "weight", "release", "proc"]
        copy = pickle.loads(pickle.dumps(job))
        assert copy == job and copy.permitted == (2, 3)

    def test_job_stores_only_its_four_fields(self):
        # a stored `permitted` tuple per job holds 6.5 M machine ids on
        # the k = 5 lower-bound family and triples its peak memory
        job = Job(1, F(2), 3, (None, ProcDist.point(2), ProcDist.point(1)))
        assert job.permitted == (2, 3)
        assert sorted(vars(job)) == ["id", "proc", "release", "weight"]

    def test_max_scv(self):
        inst = worked_instance()
        assert max_scv(inst) == 0
        mixed = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 3: F(1, 2)}),))])
        assert max_scv(mixed) == F(1, 4)
        points = point_instance(3, [(1, 0, (2, None, 5)), (3, 0, (1, 4, None)), (2, 0, (6, 6, 6))])
        assert max_scv(points) == 0 and max_scv(Instance(2, [])) == 0

    def test_max_scv_matches_each_distributions_scv(self):
        # the integer form against the largest `ProcDist.scv`, on rows that
        # share distributions and whole rows, forbid pairs and hold a 0
        from stochsched.oracle import random_dist
        rng = random.Random(331)
        seen = {"fractional": 0, "shared": 0, "shared-row": 0, "forbidden": 0, "zero": 0}
        for _ in range(200):
            machines = rng.randint(1, 3)
            pool = []
            for _ in range(rng.randint(1, 4)):
                dist = None
                while dist is None or dist.mean < 1:
                    dist = random_dist(rng, max_value=6)
                pool.append(dist)
            jobs = []
            for job_id in range(1, rng.randint(1, 5) + 1):
                if jobs and rng.random() < 0.2:
                    row = jobs[-1].proc
                else:
                    row = [rng.choice(pool) for _ in range(machines)]
                    if machines > 1 and rng.random() < 0.3:
                        row[rng.randrange(machines)] = None
                    row = tuple(row)
                jobs.append(Job(job_id, F(rng.randint(1, 9)), 0, row))
            inst = Instance(machines, jobs)
            dists = [d for job in inst.jobs for d in job.proc if d is not None]
            seen["fractional"] += any(d.scale > 1 for d in dists)
            seen["shared"] += len({id(d) for d in dists}) < len(dists)
            seen["shared-row"] += any(a.proc is b.proc for a, b in zip(inst.jobs, inst.jobs[1:]))
            seen["forbidden"] += any(None in job.proc for job in inst.jobs)
            seen["zero"] += any(0 in d.support for d in dists)
            assert max_scv(inst) == max(d.scv for d in dists), inst
        assert min(seen.values()) >= 20, seen


def _random_items(rng: random.Random, broken: float = 0.25) -> list[tuple[object, object]]:
    """A pmf as (value, probability) items, unsorted, with repeated
    values now and then and probabilities as str, int or Fraction; a
    share `broken` of them is broken in one of the ways `ProcDist`
    refuses."""
    values = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
    raw = [rng.randint(1, 9) for _ in values]
    total = sum(raw)
    items = []
    for value, count in zip(values, raw):
        p = F(count, total)
        spelled = rng.choice((p, f"{count * 2}/{total * 2}", str(p)))
        items.append((value, 1 if p == 1 and rng.random() < 0.5 else spelled))
    if rng.random() < broken:
        k = rng.randrange(len(items))
        value, p = items[k]
        items[k] = rng.choice((
            (value, F(as_fraction(p) * 2)), (value, 0), (value, "-1/3"), (value, 2),
            (-1, p), (True, p), (1.0, p), (str(value), p), (value, 0.5), (value, True)))
    rng.shuffle(items)
    return items


def _outcome(build, items):
    """What `build` returns for `items`, or the class and text it raises."""
    try:
        return build(items)
    except (ValueError, TypeError, ProbSumError) as exc:
        return type(exc), str(exc)


class _Rank(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


class TestConstructorFastPaths:
    """The constructors test exact classes before `isinstance` and skip
    work for one-point pmfs; these hold them to the plain `Fraction`
    checks of `reference` on every spelling of the input."""

    def test_random_pmfs_match_the_reference(self):
        rng = random.Random(419)
        refused = zero_mean = 0
        for _ in range(2000):
            items = _random_items(rng)
            expected = _outcome(reference.normalize_pmf, items)
            forms = [tuple(items), list(items), (item for item in items)]
            if len({value for value, _ in items}) == len(items):
                forms.append(dict(items))
            for form in forms:
                got = _outcome(ProcDist, form)
                if not isinstance(got, ProcDist):
                    assert got == expected, items
                    continue
                assert got.pmf == expected, items
                if got.mean == 0:
                    with pytest.raises(ZeroMeanError):
                        got.scv
                    assert got.second_moment == 0
                else:
                    assert (got.mean, got.second_moment, got.scv) == reference.moments(got.pmf)
            refused += isinstance(expected[0], type)
            zero_mean += expected == ((0, F(1)),)
        assert 300 < refused < 700 and zero_mean > 10

    @pytest.mark.parametrize("value", [0, 7, _Rank.THREE, True, -1])
    @pytest.mark.parametrize("prob", [F(1), F(2, 2), 1, "1"])
    def test_one_point_pmfs_match_the_general_loop(self, value, prob):
        # only an exact int with the exact Fraction 1, as a 1-tuple of a
        # tuple or a dict, takes the one-point path; the generator form
        # always runs the general loop, so its state is the yardstick
        items = [(value, prob)]
        forms = [((value, prob),), ([value, prob],), {value: prob}, [(value, prob)],
                 (item for item in items)]
        expected = _outcome(reference.normalize_pmf, items)
        for form in forms:
            got = _outcome(ProcDist, form)
            if not isinstance(got, ProcDist):
                assert got == expected, form
                continue
            general = ProcDist(item for item in items)
            assert got.pmf == expected and vars(got) == vars(general), form
            assert got == general and hash(got) == hash(general) == hash(ProcDist.point(value))
            assert type(got.pmf[0][1]) is F and type(got.mean) is F
            if value:
                assert (got.mean, got.second_moment, got.scv) == reference.moments(got.pmf)
            else:
                assert got.mean == got.second_moment == 0
                with pytest.raises(ZeroMeanError):
                    got.scv
        assert (expected[0] is ValueError) == (value is True or value == -1)

    def test_a_lone_half_is_refused_in_every_spelling(self):
        for form in [((3, F(1, 2)),), {3: F(1, 2)}, [(3, F(1, 2))], ((3, "1/2"),)]:
            with pytest.raises(ProbSumError, match=r"^probabilities sum to 1/2, not 1$"):
                ProcDist(form)

    def test_scaled_matches_a_fraction_recomputation(self):
        rng = random.Random(421)
        for _ in range(200):
            machines = rng.randint(1, 3)
            pool = [ProcDist(_random_items(rng, broken=0)) for _ in range(8)]
            pool = [d for d in pool if d.mean > 0]
            if not pool:
                continue
            jobs = []
            for j in range(1, rng.randint(1, 6) + 1):
                # per slot a shared distribution, an equal copy of one or
                # none; now and then the previous job's row itself
                if jobs and rng.random() < 0.3:
                    row = jobs[-1].proc
                else:
                    row = [rng.choice((rng.choice(pool), ProcDist(rng.choice(pool).pmf), None))
                           for _ in range(machines)]
                    row[0] = row[0] or pool[0]
                weight = F(rng.randint(1, 9), rng.randint(1, 4))
                jobs.append(Job(j, weight, 0, row))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SmallMeanWarning)
                inst = Instance(machines, jobs)
            dists = {id(d): d for job in jobs for d in job.proc if d is not None}
            weight_scale = math.lcm(*[job.weight.denominator for job in jobs])
            means = {key: reference.moments(d.pmf)[0] for key, d in dists.items()}
            mean_scale = math.lcm(*[mean.denominator for mean in means.values()])
            scaled = inst.scaled
            assert (scaled.weight_scale, scaled.mean_scale) == (weight_scale, mean_scale)
            assert scaled.weights == tuple(job.weight * weight_scale for job in jobs)
            assert scaled.means == {key: mean * mean_scale for key, mean in means.items()}
            assert inst.deterministic == all(len(d.pmf) == 1 for d in dists.values())

    def test_counts_match_a_fraction_recomputation(self):
        # the exact optima of `oracle` read each pmf as counts over its
        # scale; one-point pmfs, the shortcut's included, hold (1,) over 1
        rng = random.Random(423)
        dists = [ProcDist.point(rng.randint(0, 6)) for _ in range(20)]
        for _ in range(500):
            items = _random_items(rng, broken=0)
            dists += [ProcDist(tuple(items)), ProcDist(item for item in items)]
        for d in dists:
            scale = math.lcm(*[p.denominator for _, p in d.pmf])
            assert d.scale == scale and d.counts == tuple(p * scale for _, p in d.pmf)
            assert "counts" not in repr(d) and d == ProcDist(d.pmf)

    def test_int_subclasses_other_than_bool_are_accepted(self):
        d = ProcDist({_Rank.THREE: 1})
        assert d == ProcDist.point(3) and d.mean == 3
        assert ProcDist([(_Rank.ONE, F(1, 2)), (_Rank.THREE, "1/2")]).mean == 2
        job = Job(_Rank.ONE, 2, _Rank.TWO, (d,))
        assert job == Job(1, 2, 2, (ProcDist.point(3),))
        inst = Instance(_Rank.ONE, [job])
        assert inst.machines == 1 and inst.scaled.means == {id(d): 3}


class TestPriorityOrder:
    def test_split_by_ratio(self):
        # ratios on machine 1: job1 1/2, job2 2; the reference job itself
        # always counts as "before"
        inst = worked_instance()
        split = priority_split(inst, 1, 1)
        assert split.before == frozenset({1, 2})
        assert split.after == frozenset()

    def test_equal_ratio_breaks_by_id(self):
        inst = point_instance(1, [(1, 0, (2,)), (1, 0, (2,)), (1, 0, (2,))])
        split = priority_split(inst, 1, 2)
        assert split.before == frozenset({1, 2})   # ids <= 2 win the tie
        assert split.after == frozenset({3})

    def test_forbidden_jobs_never_rank_before(self):
        inst = point_instance(2, [(9, 0, (1, None)), (1, 0, (None, 5))])
        split = priority_split(inst, 2, 2)
        assert split.before == frozenset({2})
        assert split.after == frozenset({1})

    def test_machine_order_sorts_by_ratio_then_id(self):
        def order(inst, ids):
            return [j for j, _, _ in list_schedule(inst, dict.fromkeys(ids, 1))[1]]

        inst = point_instance(1, [(1, 0, (2,)), (3, 0, (1,)), (1, 0, (2,))])
        assert order(inst, [1, 2, 3]) == [2, 1, 3]
        # equal ratios from different pairs (1/2, 3/6, 2/4): ids decide
        inst = point_instance(1, [(1, 0, (2,)), (3, 0, (6,)), (2, 0, (4,)), (5, 0, (2,))])
        assert order(inst, [3, 2, 1, 4]) == [4, 1, 2, 3]


class TestFixedAssignmentCost:
    def test_single_machine_two_jobs(self):
        # WSEPT: job1 (w=2, p=1) first, then job2 (w=1, p=2): 2*1 + 1*3 = 5
        inst = point_instance(1, [(2, 0, (1,)), (1, 0, (2,))])
        assert fixed_assignment_cost(inst, {1: 1, 2: 1}) == 5

    def test_worked_instance_assignment(self):
        inst = worked_instance()
        assert fixed_assignment_cost(inst, {1: 1, 2: 2}) == 4
        assert fixed_assignment_cost(inst, {1: 1, 2: 1}) == 5

    def test_stochastic_cost_uses_means(self):
        dist = ProcDist({1: F(1, 2), 3: F(1, 2)})
        inst = Instance(1, [Job(1, F(1), 0, (dist,)), Job(2, F(1), 0, (dist,))])
        # E[C1] = 2, E[C2] = 4 regardless of order (identical jobs)
        assert fixed_assignment_cost(inst, {1: 1, 2: 1}) == 6

    # the sequencing rule must actually be optimal for the fixed
    # assignment: compare against brute-force over all orders
    def test_wsept_beats_every_permutation(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, max_machines=1, max_jobs=6, forbidden=False)
            ids = [job.id for job in inst.jobs]
            best = min(
                sum(w * c for w, c in _chain_costs(inst, order))
                for order in itertools.permutations(ids)
            )
            assert fixed_assignment_cost(inst, {j: 1 for j in ids}) == best


def _chain_costs(inst, order):
    clock = F(0)
    out = []
    for job_id in order:
        job = inst.job(job_id)
        clock += job.dist(1).mean
        out.append((job.weight, clock))
    return out
