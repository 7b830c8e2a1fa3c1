import random
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist, max_scv
from stochsched.errors import HorizonTooSmallError, NotAPolicyDistributionError
from stochsched import lp, simplex

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction
SPREAD = ProcDist({1: F(1, 2), 3: F(1, 2)})


def _single(dist, release=0, weight=1):
    return Instance(1, [Job(1, F(weight), release, (dist,))])


class TestKnownOptima:
    def test_single_unit_job_mean_only(self):
        assert lp.solve_lp(lp.build_primal(_single(ProcDist.point(1)), "P")).value == 1

    def test_two_unit_jobs_mean_only(self):
        inst = point_instance(1, [(1, 0, (1,)), (1, 0, (1,))])
        assert lp.solve_lp(lp.build_primal(inst, "P")).value == 3

    def test_spread_job_variance_aware(self):
        assert lp.solve_lp(lp.build_primal(_single(SPREAD), "S")).value == 2

    def test_spread_job_mean_only_packs_early(self):
        # the mean-only model has no mass constraint, so all the mass
        # sits in the first two slots and the variance never shows up
        assert lp.solve_lp(lp.build_primal(_single(SPREAD), "P")).value == 2

    def test_online_release_shifts_slots(self):
        inst = _single(ProcDist.point(1), release=2)
        model = lp.build_primal(inst, "P_o")
        assert all(int(name.rsplit("_", 1)[1]) >= 2 for name in model.variables)
        assert lp.solve_lp(model).value == 3

    def test_worked_instance_values(self):
        inst = worked_instance()
        assert lp.solve_lp(lp.build_primal(inst, "P")).value == 4
        assert lp.solve_lp(lp.build_primal(inst, "S")).value == 4


class TestHorizon:
    def test_default_horizon_shapes(self):
        inst = _single(SPREAD, release=2)
        assert lp.default_horizon(inst, "S") == 2 + 3   # worst support value
        assert lp.default_horizon(inst, "P") == 2 + 2   # rounded-up mean

    def test_too_small_horizon_is_reported(self):
        inst = point_instance(1, [(1, 0, (4,))])
        with pytest.raises(HorizonTooSmallError):
            lp.build_primal(inst, "P", horizon=3)

    def test_greedy_witness_fits_exactly(self):
        # horizon equal to the job's full run is accepted, and the four
        # booked slots price out to the true completion time
        inst = point_instance(1, [(1, 0, (4,))])
        assert lp.solve_lp(lp.build_primal(inst, "P", horizon=4)).value == 4

    def test_default_horizon_holds_the_greedy_witness(self):
        # build_primal skips the witness at the default
        rng = random.Random(61)
        for _ in range(40):
            inst = random_instance(rng, max_machines=3, max_jobs=6, max_value=5,
                                   releases=True)
            for variant in lp.VARIANTS:
                lp._check_witness(inst, variant, lp.default_horizon(inst, variant))

    def test_enlarging_horizon_never_raises_value(self):
        rng = random.Random(47)
        for _ in range(8):
            inst = random_instance(rng, max_machines=2, max_jobs=3, max_value=3)
            base = lp.default_horizon(inst, "S")
            values = [lp.solve_lp(lp.build_primal(inst, "S", horizon=t)).value
                      for t in (base, base + 2, base + 5)]
            assert values[0] >= values[1] >= values[2]


class TestVariantRelations:
    def test_mean_only_within_variance_factor(self):
        rng = random.Random(53)
        for _ in range(12):
            inst = random_instance(rng, max_machines=2, max_jobs=4, max_value=4)
            z_s = lp.solve_lp(lp.build_primal(inst, "S")).value
            z_p = lp.solve_lp(lp.build_primal(inst, "P")).value
            assert z_p <= (1 + max_scv(inst) / 2) * z_s

    def test_online_value_at_least_offline(self):
        rng = random.Random(59)
        for _ in range(8):
            inst = random_instance(rng, max_machines=2, max_jobs=3,
                                   max_value=4, releases=True)
            z = lp.solve_lp(lp.build_primal(inst, "P")).value
            z_o = lp.solve_lp(lp.build_primal(inst, "P_o")).value
            assert z_o >= z


def _dual_point(inst: Instance, variant: str):
    """The optimum of P or P_o and the dual point its multipliers give:
    alpha_j of need_j, beta_(i, s) minus that of cap_i_s, 0 where no
    cap row exists."""
    model = lp.build_primal(inst, variant)
    solution = lp.solve_lp(model)
    alpha = {job.id: solution.dual[f"need_{job.id}"] for job in inst.jobs}
    beta = {(machine, s): -solution.dual.get(f"cap_{machine}_{s}", 0)
            for machine in range(1, inst.machines + 1) for s in range(model.horizon)}
    return solution.value, alpha, beta


class TestDuality:
    """The dual of P and P_o read off the primal solve: free alpha_j,
    beta_is >= 0, and the price row alpha_j/mean - beta_is <=
    w_j((s + 1/2)/mean + 1/2) for each permitted pair, at s >= r_j on
    P_o."""

    def test_strong_duality_on_random_instances(self):
        rng = random.Random(61)
        for _ in range(15):
            inst = random_instance(rng, max_machines=2, max_jobs=3, max_value=4,
                                   releases=rng.random() < 0.5)
            for variant in ("P", "P_o"):
                value, alpha, beta = _dual_point(inst, variant)
                assert all(b >= 0 for b in beta.values())
                assert sum(alpha.values()) - sum(beta.values()) == value

    def test_dual_point_is_price_feasible(self):
        rng = random.Random(62)
        instances = [worked_instance()] + [
            random_instance(rng, max_machines=3, max_jobs=4, max_value=4, releases=True)
            for _ in range(15)]
        for inst in instances:
            for variant in ("P", "P_o"):
                _, alpha, beta = _dual_point(inst, variant)
                for job in inst.jobs:
                    start = job.release if variant == "P_o" else 0
                    for machine in job.permitted:
                        mean = job.dist(machine).mean
                        for (i, s), b in beta.items():
                            if i == machine and s >= start:
                                price = job.weight * ((F(s) + F(1, 2)) / mean + F(1, 2))
                                assert alpha[job.id] / mean - b <= price


class TestYMass:
    def test_point_mass_start(self):
        y = lp.y_from_x({(1, 1, 0): 1}, {(1, 1): ProcDist.point(2)})
        assert y == {(1, 1, 0): F(1), (1, 1, 1): F(1)}

    def test_spread_start_decays_by_tail(self):
        y = lp.y_from_x({(1, 1, 0): 1}, {(1, 1): SPREAD})
        assert y == {(1, 1, 0): F(1), (1, 1, 1): F(1, 2), (1, 1, 2): F(1, 2)}

    def test_split_starts_accumulate(self):
        y = lp.y_from_x({(1, 1, 0): F(1, 2), (1, 1, 1): F(1, 2)},
                        {(1, 1): ProcDist.point(1)})
        assert y == {(1, 1, 0): F(1, 2), (1, 1, 1): F(1, 2)}

    def test_a_zero_start_adds_no_mass(self):
        # every y entry is positive, and a start of probability 0 needs no
        # distribution on its machine
        x = {(1, 1, 0): F(1, 2), (1, 1, 1): F(1, 2)}
        y = lp.y_from_x(x, {(1, 1): SPREAD})
        assert lp.y_from_x({**x, (1, 1, 4): F(0)}, {(1, 1): SPREAD}) == y
        assert lp.y_from_x({**x, (2, 1, 0): 0}, {(1, 1): SPREAD}) == y

    def test_start_mass_must_be_a_distribution(self):
        with pytest.raises(NotAPolicyDistributionError):
            lp.y_from_x({(1, 1, 0): F(1, 2)}, {(1, 1): ProcDist.point(1)})
        with pytest.raises(NotAPolicyDistributionError):
            lp.y_from_x({(1, 1, 0): F(3, 2), (1, 1, 1): F(-1, 2)},
                        {(1, 1): ProcDist.point(1)})

    def test_started_policy_satisfies_primal_constraints(self):
        # a y produced by actual starts is feasible for the S model,
        # including the per-job mass inequality
        rng = random.Random(67)
        for _ in range(20):
            inst = random_instance(rng, max_machines=2, max_jobs=3, max_value=4)
            dists = {(m, job.id): job.dist(m)
                     for job in inst.jobs for m in job.permitted}
            x = {}
            clocks = {m: 0 for m in range(1, inst.machines + 1)}
            for job in inst.jobs:
                machine = rng.choice(job.permitted)
                x[(machine, job.id, clocks[machine])] = F(1)
                clocks[machine] += job.dist(machine).max_value
            y = lp.y_from_x(x, dists)
            per_slot: dict[tuple[int, int], Fraction] = {}
            per_job: dict[int, Fraction] = {}
            for (machine, job_id, s), mass in y.items():
                per_slot[(machine, s)] = per_slot.get((machine, s), F(0)) + mass
                per_job[job_id] = per_job.get(job_id, F(0)) + mass
                assert 0 < mass <= 1
            assert all(v <= 1 for v in per_slot.values())
            for (machine, job_id, _) in x:
                assert per_job[job_id] == dists[(machine, job_id)].mean

    def test_completion_difference_between_variants_is_scv_term(self):
        y = lp.y_from_x({(1, 1, 0): 1}, {(1, 1): SPREAD})
        c_s = lp.completion_from_y(y, "S", {(1, 1): SPREAD})[1]
        c_p = lp.completion_from_y(y, "P", {(1, 1): SPREAD})[1]
        assert c_s == 2
        assert c_p - c_s == SPREAD.scv / 2 * sum(y.values())


class TestSerialization:
    def test_round_trip_bytes(self):
        inst = worked_instance()
        for variant in ("S", "P", "S_o", "P_o"):
            model = lp.build_primal(inst, variant)
            text = lp.export_lp(model)
            assert reference.parse_lp(text) == model
            assert lp.export_lp(reference.parse_lp(text)) == text

    def test_empty_model_is_header_only(self):
        model = lp.LpModel(1, (), (), ())
        text = lp.export_lp(model)
        assert text == "TIDX-LP v1 min horizon=1 obj\n"
        assert reference.parse_lp(text) == model

    def test_single_variable_no_constraints_is_three_lines(self):
        model = lp.LpModel(1, ("y_1_1_0",), (("y_1_1_0", F(1)),), ())
        text = lp.export_lp(model)
        assert len(text.splitlines()) == 3
        assert reference.parse_lp(text) == model

    def test_model_is_its_fields_alone(self):
        # plain data: no derived view beside the four fields
        assert [name for name in vars(lp.LpModel) if not name.startswith("_")] == []


def _fractional_instance(rng: random.Random) -> Instance:
    """`random_instance` with releases on some draws and weights p/q."""
    inst = random_instance(rng, max_machines=3, max_jobs=5, max_value=5,
                           releases=rng.random() < 0.5)
    return Instance(inst.machines, [
        Job(job.id, F(rng.randint(1, 9), rng.randint(1, 3)), job.release, job.proc)
        for job in inst.jobs])


def _typed(model: lp.LpModel):
    """The model with every number paired with its type."""
    def terms(pairs):
        return tuple((name, type(v), v) for name, v in pairs)
    return (model.horizon, model.variables, terms(model.objective),
            tuple((c.name, terms(c.coeffs), c.sense, type(c.rhs), c.rhs)
                  for c in model.constraints))


def _outcome(build, *args):
    try:
        return build(*args)
    except HorizonTooSmallError:
        return HorizonTooSmallError


class TestAgainstReference:
    """The integer coefficients against `Fraction` ones, on seeded
    instances with fractional weights and means, releases, forbidden
    pairs, the default horizon and a chosen one (too small included)."""

    def _check(self, got, expected):
        if expected is HorizonTooSmallError:
            assert got is HorizonTooSmallError
            return
        assert _typed(got) == _typed(expected)
        assert lp.export_lp(got) == lp.export_lp(expected)

    def test_build_primal_matches_reference(self):
        rng = random.Random(1010)
        seen = set()
        for _ in range(120):
            inst = _fractional_instance(rng)
            seen.update(name for name, present in (
                ("releases", inst.has_releases),
                ("forbidden pairs", any(None in job.proc for job in inst.jobs)),
                ("fractional weights", any(job.weight.denominator > 1 for job in inst.jobs)),
                ("fractional means", any(job.dist(m).mean.denominator > 1
                                         for job in inst.jobs for m in job.permitted)),
            ) if present)
            for variant in lp.VARIANTS:
                horizon = rng.choice([None, lp.default_horizon(inst, variant) + rng.randint(-3, 2)])
                expected = _outcome(reference.build_primal, inst, variant, horizon)
                self._check(_outcome(lp.build_primal, inst, variant, horizon), expected)
                seen.add(variant)
                if horizon is not None:
                    seen.add("too small" if expected is HorizonTooSmallError else "chosen horizon")
        assert seen == {*lp.VARIANTS, "releases", "forbidden pairs", "fractional weights",
                        "fractional means", "too small", "chosen horizon"}

    def test_completion_from_y_matches_reference(self):
        rng = random.Random(1012)
        for _ in range(40):
            inst = _fractional_instance(rng)
            dists = {(m, job.id): job.dist(m) for job in inst.jobs for m in job.permitted}
            y = {(m, j, s): F(rng.randint(0, 4), rng.randint(1, 3))
                 for (m, j) in dists for s in range(rng.randint(0, 4))}
            for variant in lp.VARIANTS:
                expected = {}
                for (machine, job_id, s), mass in y.items():
                    if mass == 0:   # a job with no nonzero mass has no entry
                        continue
                    coeff = reference.objective_coeff(variant, dists[(machine, job_id)], s)
                    expected[job_id] = expected.get(job_id, F(0)) + mass * coeff
                assert lp.completion_from_y(y, variant, dists) == expected


def _small_fractional_instance(rng: random.Random) -> Instance:
    """`_fractional_instance` at most 2 x 3 with supports up to 4, small
    enough for the reference simplex on every variant."""
    inst = random_instance(rng, max_machines=2, max_jobs=3, max_value=4,
                           releases=rng.random() < 0.5, max_release=4)
    return Instance(inst.machines, [
        Job(job.id, F(rng.randint(1, 9), rng.randint(1, 3)), job.release, job.proc)
        for job in inst.jobs])


def _reference_value(model: lp.LpModel) -> Fraction:
    """The model's optimum by `reference.solve_standard` on dense rows."""
    col = {name: j for j, name in enumerate(model.variables)}

    def dense(terms):
        row = [F(0)] * len(col)
        for name, value in terms:
            row[col[name]] += value
        return row

    value, _, _ = reference.solve_standard(
        dense(model.objective), [dense(c.coeffs) for c in model.constraints],
        [c.sense for c in model.constraints], [c.rhs for c in model.constraints])
    return value


def _error_text(fn, *args):
    with pytest.raises(HorizonTooSmallError) as info:
        fn(*args)
    return str(info.value)


class TestOptimum:
    """`lp.optimum` against the optimum of the built model, solved by
    `solve_lp` and by the reference simplex on the reference model."""

    def test_matches_built_models_on_every_variant(self, monkeypatch):
        rng = random.Random(2023)
        pivots = []
        pivot = simplex._pivot

        def recording(tableau, objrow, row, col, d):
            pivots.append((row, col))
            return pivot(tableau, objrow, row, col, d)

        monkeypatch.setattr(simplex, "_pivot", recording)
        seen = set()
        for _ in range(40):
            inst = _small_fractional_instance(rng)
            if rng.random() < 0.25:
                inst = Instance(inst.machines, [
                    Job(job.id, job.weight, job.release,
                        tuple(None if d is None else ProcDist.point(d.max_value) for d in job.proc))
                    for job in inst.jobs])
            seen.update(name for name, present in (
                ("releases", inst.has_releases),
                ("forbidden pairs", any(None in job.proc for job in inst.jobs)),
                ("fractional weights", any(job.weight.denominator > 1 for job in inst.jobs)),
                ("fractional probabilities", any(p.denominator > 1 for job in inst.jobs
                                                 for m in job.permitted
                                                 for _, p in job.dist(m).pmf)),
                ("point masses", inst.deterministic),
            ) if present)
            for variant in lp.VARIANTS:
                horizon = rng.choice([None, lp.default_horizon(inst, variant) + rng.randint(-3, 2)])
                try:
                    model = lp.build_primal(inst, variant, horizon)
                except HorizonTooSmallError:
                    continue
                seen.add(variant)
                seen.add("default horizon" if horizon is None else "chosen horizon")
                pivots.clear()
                expected = lp.solve_lp(model).value
                dense_pivots = list(pivots)
                pivots.clear()
                assert lp.optimum(inst, variant, horizon) == expected
                # the same rows in the same order: the same Bland pivots
                assert pivots == dense_pivots
                assert _reference_value(reference.build_primal(inst, variant, horizon)) == expected
        assert seen == {*lp.VARIANTS, "releases", "forbidden pairs", "fractional weights",
                        "fractional probabilities", "point masses", "default horizon",
                        "chosen horizon"}

    def test_small_horizons_raise_build_primal_text(self):
        rng = random.Random(2024)
        below_witness = 0
        for _ in range(30):
            inst = _small_fractional_instance(rng)
            for variant in lp.VARIANTS:
                for horizon in (0, -2, lp.default_horizon(inst, variant) - rng.randint(1, 4)):
                    try:
                        lp.build_primal(inst, variant, horizon)
                    except HorizonTooSmallError as exc:
                        assert _error_text(lp.optimum, inst, variant, horizon) == str(exc)
                        below_witness += horizon >= 1
                    else:
                        assert lp.optimum(inst, variant, horizon) == lp.solve_lp(
                            lp.build_primal(inst, variant, horizon)).value
        assert _error_text(lp.optimum, worked_instance(), "P", 0) == "horizon must be at least 1"
        assert below_witness >= 20

    def test_unknown_variant_is_refused_first(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            lp.optimum(worked_instance(), "Q", 0)


def _model_with(place: str, value) -> lp.LpModel:
    """min 2x + 2y s.t. c1: 2x + 2y >= 2, with `value` for one of the 2s."""
    two = F(2)
    objective = (("x", value if place == "objective" else two), ("y", two))
    coeffs = (("x", two), ("y", value if place == "coefficient" else two))
    rhs = value if place == "rhs" else two
    return lp.LpModel(1, ("x", "y"), objective, (lp.Constraint("c1", coeffs, ">=", rhs),))


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("place, where", [
    ("objective", "objective coefficient of 'x'"),
    ("coefficient", "constraint 'c1' coefficient of 'y'"),
    ("rhs", "constraint 'c1' right-hand side"),
])
def test_solve_lp_rejects_bools_and_floats(place, where, bad):
    # an int is exact; True is not read as 1
    assert lp.solve_lp(_model_with(place, 2)).value == 2
    with pytest.raises(TypeError, match=f"^{where} is {bad!r}; expected an int or a Fraction$"):
        lp.solve_lp(_model_with(place, bad))
