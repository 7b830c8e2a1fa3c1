import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist, list_schedule
from stochsched.errors import RequiresFGeq2Error, SchemaError
from stochsched import certify, dualfit, greedy_list, greedy_time, lp

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction



def test_shared_list_run_gives_the_same_certificates_and_reports():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng, max_machines=3, max_jobs=6)
        run = dualfit.list_run(inst)
        assert run.greedy == greedy_list.assign(inst)
        assert run.cost == greedy_list.greedy_cost(inst)

class TestListCertificate:
    def test_worked_instance_tables(self):
        inst = worked_instance()
        cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
        assert cert.kind == "list" and cert.f == 1
        assert cert.alpha == {1: F(2), 2: F(2)}
        assert cert.beta == {(1, 0): F(1), (1, 1): F(1), (2, 0): F(2)}
        assert cert.alpha_sum == 4 and cert.beta_sum == 4

    def test_hand_checked_constraint(self):
        # machine 1, job 2, slot 0: 2/1 <= 1 + 2*(0/1 + 1) = 3 holds, and
        # with alpha_2 raised to 4 its left side reads 4/1 > 3
        inst = worked_instance()
        cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
        report = certify.verify_certificate(inst, dualfit.perturbed(cert, 2, 2))
        row = {v.constraint: v for v in report.violations}["price_1_2_0"]
        assert (row.lhs, row.rhs) == (F(4), F(3))

    def test_worked_instance_feasible(self):
        inst = worked_instance()
        report = dualfit.check_list_feasibility(inst, dualfit.list_run(inst))
        assert report.passed
        assert report.violations == ()
        assert report.min_slack == F(2, 3)
        assert report.metrics["alpha_matches_alg"] is True
        assert report.metrics["beta_matches_alg"] is True

    def test_fractional_completion_passes(self):
        # mean 3/2: the completion is 3/2, so beta counts the weight at
        # slots 0 and 1 and sums to 2 = w * ceil(C), not to the cost
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 2: F(1, 2)}),))])
        report = dualfit.check_list_feasibility(inst, dualfit.list_run(inst))
        assert report.passed, report.violations
        assert report.metrics["alg_value"] == F(3, 2)
        assert report.metrics["beta_sum"] == 2
        assert report.metrics["beta_matches_alg"] is False

    def test_raised_beta_entry_fails_the_sum_gate(self, monkeypatch):
        # a larger beta entry only adds slack, so feasibility alone passes it
        inst = worked_instance()
        run = dualfit.list_run(inst)
        honest = dualfit.build_list_certificate(inst, run)

        def raised(inst, run):
            beta = dict(honest.beta)
            beta[(1, 0)] += 1
            return dataclasses.replace(honest, beta=beta)

        monkeypatch.setattr(dualfit, "build_list_certificate", raised)
        report = dualfit.check_list_feasibility(inst, run)
        assert report.violations == ()
        assert report.metrics["beta_sum"] == honest.beta_sum + 1
        assert not report.passed

    def test_single_job_slack_is_half_weight(self):
        # one unit job: alpha = 1, beta_0 = 1; slot 0 gives
        # 1 <= 1 + 1*(0+1), slack 1; slot 1 gives 1 <= 0 + 2
        inst = point_instance(1, [(1, 0, (1,))])
        report = dualfit.check_list_feasibility(inst, dualfit.list_run(inst))
        assert report.passed and report.min_slack == 1

    def test_sum_identities_on_random_integer_mean_instances(self):
        rng = random.Random(71)
        for _ in range(50):
            inst = random_instance(rng, integer_mean=True)
            cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
            alg = greedy_list.greedy_cost(inst)
            assert cert.alpha_sum == alg
            assert cert.beta_sum == alg
            assert certify.verify_certificate(inst, cert).passed

    def test_doubled_alpha_is_caught(self):
        inst = worked_instance()
        cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
        bad = dualfit.perturbed(cert, 2, F(2))          # alpha_2: 2 -> 4
        report = certify.verify_certificate(inst, bad)
        assert not report.passed
        names = {v.constraint for v in report.violations}
        assert "price_1_2_0" in names                    # 4 > 3 on machine 1
        assert "price_2_2_0" not in names                # 4 <= 4 boundary holds

    def test_bump_past_slot_zero_slack_always_fails(self):
        # a bump of E_ij*(beta_i0 + w_j) + 1 pushes the job's lhs past
        # the slot-0 row no matter how much slack the certificate had
        rng = random.Random(73)
        for _ in range(25):
            inst = random_instance(rng, integer_mean=True, max_jobs=6)
            cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
            victim = rng.randint(1, inst.n)
            machine = inst.job(victim).permitted[0]
            bump = inst.mean(machine, victim) * (
                cert.beta_at(machine, 0) + inst.job(victim).weight) + 1
            bad = dualfit.perturbed(cert, victim, bump)
            report = certify.verify_certificate(inst, bad)
            assert not report.passed
            assert any(v.constraint == f"price_{machine}_{victim}_0"
                       for v in report.violations)


class TestSpeedCertificate:
    def test_requires_speedup(self):
        inst = worked_instance()
        run = dualfit.list_run(inst)
        with pytest.raises(RequiresFGeq2Error):
            dualfit.build_speed_certificate(inst, F(3, 2), run)

    def test_worked_instance_at_two(self):
        inst = worked_instance()
        run = dualfit.list_run(inst)
        cert = dualfit.build_speed_certificate(inst, F(2), run)
        assert cert.alpha == {1: F(1), 2: F(1)}
        assert cert.beta == {(1, 0): F(1), (2, 0): F(2)}
        report = dualfit.check_speedf(inst, F(2), run)
        assert report.passed
        assert report.metrics["objective_formula"] == 1
        assert report.metrics["objective_actual"] == F(1, 2)
        assert report.metrics["objective_exact"] is False

    def test_worked_instance_at_three(self):
        inst = worked_instance()
        report = dualfit.check_speedf(inst, F(3), dualfit.list_run(inst))
        assert report.passed
        assert report.metrics["objective_formula"] == F(8, 9)
        assert report.metrics["objective_actual"] == F(1, 3)

    def test_formula_exact_when_f_divides_completions(self):
        inst = point_instance(1, [(1, 0, (2,))])
        report = dualfit.check_speedf(inst, F(2), dualfit.list_run(inst))
        assert report.metrics["objective_exact"] is True
        assert report.metrics["objective_actual"] == F(1, 2)

    def test_even_mean_instances_make_the_formula_exact(self):
        rng = random.Random(79)
        for _ in range(30):
            inst = random_instance(rng, even_mean=True, max_jobs=6)
            report = dualfit.check_speedf(inst, F(2), dualfit.list_run(inst))
            assert report.passed
            assert report.metrics["objective_exact"] is True

    def test_feasible_for_plain_dual_prices(self):
        # scaled by 1/f, the table satisfies the original pricing rows,
        # so its objective can never beat the mean-only optimum
        rng = random.Random(83)
        for _ in range(20):
            inst = random_instance(rng, integer_mean=True, max_jobs=5)
            report = dualfit.check_speedf(inst, F(2), dualfit.list_run(inst))
            assert report.passed
            optimum = lp.solve_lp(lp.build_primal(inst, "P")).value
            assert report.metrics["objective_actual"] <= optimum


class TestOnlineCertificate:
    def test_single_job_example(self):
        inst = point_instance(1, [(1, 0, (2,))])
        cert = dualfit.build_online_certificate(inst, F(2))
        assert cert.alpha == {1: F(3)}
        assert cert.beta == {(1, 0): F(1), (1, 1): F(1)}
        report = dualfit.check_online(inst, F(2))
        assert report.passed
        assert report.metrics["det_cost"] == 2
        assert report.metrics["lower_bound"] == F(2, 3)

    def test_worked_instance_chain(self):
        report = dualfit.check_online(worked_instance(), F(2))
        assert report.passed
        assert report.metrics["alpha_sum"] == 6
        assert report.metrics["beta_sum"] == 4
        assert report.metrics["det_cost"] == 4
        assert report.metrics["lower_bound"] == F(4, 3)

    def test_released_instances(self):
        rng = random.Random(89)
        for _ in range(15):
            inst = random_instance(rng, even_mean=True, max_jobs=5,
                                   max_machines=3, releases=True)
            report = dualfit.check_online(inst, F(2))
            assert report.passed, report.violations

    def test_fractional_completion_passes(self):
        # mean 3/2: the completion is 3/2, so beta counts the weight at
        # slots 0 and 1 and sums to 2 = w * ceil(C), not to the cost
        inst = Instance(1, [Job(1, F(1), 0, (ProcDist({1: F(1, 2), 2: F(1, 2)}),))])
        report = dualfit.check_online(inst, F(2))
        assert report.passed, report.violations
        assert report.metrics["det_cost"] == F(3, 2)
        assert report.metrics["beta_sum"] == 2
        assert report.metrics["beta_matches_cost"] is False

    def test_fractional_completions_pass(self):
        rng = random.Random(90)
        fractional = 0
        for _ in range(40):
            inst = random_instance(rng, max_jobs=5, max_machines=3, releases=True)
            for f in (F(2), F(5, 2)):
                report = dualfit.check_online(inst, f)
                assert report.passed, report.violations
                trace, _ = greedy_time.deterministic_schedule(inst, f, greedy_time.assign(inst, f))
                fractional += any(row.completed.denominator > 1 for row in trace.jobs)
        assert fractional >= 60  # 78 of the 80 runs

    def test_mutation_is_caught(self):
        inst = worked_instance()
        cert = dualfit.build_online_certificate(inst, F(2))
        bad = dualfit.perturbed(cert, 2, cert.alpha[2] + 3)
        assert not certify.verify_certificate(inst, bad).passed


class TestSerialization:
    def test_round_trip_all_kinds(self):
        inst = worked_instance()
        run = dualfit.list_run(inst)
        for cert in (dualfit.build_list_certificate(inst, run),
                     dualfit.build_speed_certificate(inst, F(2), run),
                     dualfit.build_online_certificate(inst, F(5, 2))):
            text = certify.serialize_certificate(cert)
            assert text.endswith("\n") and "\n" not in text[:-1]
            assert certify.parse_certificate(text) == cert
            assert certify.serialize_certificate(certify.parse_certificate(text)) == text

    def test_parse_rejects_bad_input(self):
        inst = worked_instance()
        good = certify.serialize_certificate(
            dualfit.build_list_certificate(inst, dualfit.list_run(inst)))
        with pytest.raises(SchemaError):
            certify.parse_certificate("not json")
        with pytest.raises(SchemaError):
            certify.parse_certificate(good.replace("CERT v1", "CERT v2"))
        with pytest.raises(SchemaError):
            certify.parse_certificate(good.replace('"list"', '"wat"'))
        with pytest.raises(SchemaError):
            certify.parse_certificate(good.replace('[[1,"2"]', '[[1,"-2"]'))
        payload = json.loads(good)
        del payload["beta"]
        with pytest.raises(SchemaError, match="^malformed certificate: missing field 'beta'$"):
            certify.parse_certificate(json.dumps(payload))

    def test_round_trip_seeded_release_instances(self):
        rng = random.Random(17)
        for _ in range(10):
            inst = random_instance(rng, max_machines=3, max_jobs=5, releases=True)
            run = dualfit.list_run(inst)
            for cert in (dualfit.build_list_certificate(inst, run),
                         dualfit.build_speed_certificate(inst, F(2), run),
                         dualfit.build_online_certificate(inst, F(3))):
                text = certify.serialize_certificate(cert)
                assert certify.parse_certificate(text) == cert

    def test_the_kind_fixes_the_scale(self):
        # with a scale of its own choosing a text could claim any bound:
        # the list certificate with ["1","100"] would read 99/25
        inst = worked_instance()
        run = dualfit.list_run(inst)
        for cert in (dualfit.build_list_certificate(inst, run),
                     dualfit.build_speed_certificate(inst, F(5, 2), run),
                     dualfit.build_online_certificate(inst, F(5, 2))):
            payload = json.loads(certify.serialize_certificate(cert))
            own = payload["scale"]
            for scale in (["1", "100"], ["1", "1000"], ["2", "2"], ["1", "5/2"],
                          ["3", "15/2"], ["1", "1"]):
                payload["scale"] = scale
                text = json.dumps(payload)
                if scale == own:
                    assert certify.parse_certificate(text) == cert
                    continue
                with pytest.raises(SchemaError, match="fixed by its kind"):
                    certify.parse_certificate(text)

    def test_speed_and_online_need_a_positive_f(self):
        for kind in ("speed", "online"):
            with pytest.raises(ValueError):
                certify.DualCertificate(kind, F(0), {1: F(1)}, {})
            text = GOOD_CERT.replace('"list"', f'"{kind}"').replace('"f":"1"', '"f":"-2"')
            with pytest.raises(SchemaError):
                certify.parse_certificate(text)
        # a list certificate never reads f
        cert = certify.DualCertificate("list", F(0), {1: F(1)}, {})
        assert cert.alpha_sum == 1 and cert.beta_sum == 0

    def test_the_scale_is_read_off_the_kind(self):
        assert [field.name for field in dataclasses.fields(certify.DualCertificate)] == [
            "kind", "f", "alpha", "beta"]
        for f in (F(2), F(5, 2), F(3)):
            scales = {kind: certify.DualCertificate(kind, f, {1: F(1)}, {}).scale
                      for kind in certify.KINDS}
            assert scales == {"list": (2, 2), "speed": (1, f), "online": (3, 3 * f)}


class TestAgainstTheSlotScan:
    """The per-run verifier and the one-sweep beta table against the
    slot-by-slot references in `tests/reference.py`."""

    FACTORS = (F(2), F(5, 2), F(3))

    def _assert_same(self, inst, cert):
        assert certify.verify_certificate(inst, cert) == reference.verify_certificate(inst, cert)

    def _every_kind(self, rng, fractional_weights=False):
        """40 seeded instances, each with its list certificate and its
        speed and online certificates at every factor, as built and with
        one alpha shifted."""
        violated = 0
        for _ in range(40):
            inst = random_instance(rng, max_machines=3, max_jobs=7,
                                   releases=rng.random() < 0.5,
                                   fractional_weights=fractional_weights)
            run = dualfit.list_run(inst)
            certs = [dualfit.build_list_certificate(inst, run)]
            for f in self.FACTORS:
                certs.append(dualfit.build_speed_certificate(inst, f, run))
                certs.append(dualfit.build_online_certificate(inst, f))
            for cert in certs:
                self._assert_same(inst, cert)
                # alpha shifted up and down, often into violation
                victim = rng.randint(1, inst.n)
                delta = F(rng.randint(-40, 40), rng.randint(1, 3))
                if cert.alpha[victim] + delta >= 0:
                    bad = dualfit.perturbed(cert, victim, delta)
                    self._assert_same(inst, bad)
                    violated += not certify.verify_certificate(inst, bad).passed
        return violated

    def test_seeded_certificates_of_every_kind(self):
        self._every_kind(random.Random(811))

    def test_fractional_weights_of_every_kind(self):
        # weights over 2, 3 and 7 put the weight's denominator into every
        # integer slack; integer weights alone leave it 1
        rng = random.Random(839)
        assert self._every_kind(rng, fractional_weights=True) > 0

    def test_the_three_mutation_shapes_of_the_acceptance_gate(self):
        rng = random.Random(823)
        for _ in range(15):
            inst = random_instance(rng, integer_mean=True, max_jobs=8)
            released = random_instance(rng, even_mean=True, max_jobs=8, releases=True)
            victim = rng.randint(1, inst.n)
            job = inst.job(victim)
            machine = job.permitted[0]
            mean, w = inst.mean(machine, victim), job.weight
            cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
            bump = mean * (cert.beta_at(machine, 0) + w) + 1
            self._assert_same(inst, dualfit.perturbed(cert, victim, bump))
            cert = dualfit.build_speed_certificate(inst, F(2), dualfit.list_run(inst))
            bump = mean * (cert.beta_at(machine, 0) / 2 + w / 2) + 1
            self._assert_same(inst, dualfit.perturbed(cert, victim, bump))

            victim = rng.randint(1, released.n)
            job = released.job(victim)
            machine = job.permitted[0]
            mean = released.mean(machine, victim)
            cert = dualfit.build_online_certificate(released, F(2))
            s0 = job.release
            rhs = cert.beta_at(machine, s0) + 6 * job.weight * ((s0 + F(1, 2)) / mean + F(1, 2))
            bad = dualfit.perturbed(cert, victim, rhs * mean / 2 + 1)
            assert certify.verify_certificate(released, bad).violations
            self._assert_same(released, bad)

    def test_hand_made_tables_that_rise_gap_and_hold_zeros(self):
        rng = random.Random(827)
        for _ in range(150):
            inst = random_instance(rng, max_machines=3, max_jobs=5, releases=True)
            kind = rng.choice(certify.KINDS)
            f = F(1) if kind == "list" else rng.choice(self.FACTORS)
            beta = {}
            for machine in range(1, inst.machines + 2):   # one machine past the instance
                slot = rng.randint(-2, 3)
                for _ in range(rng.randint(0, 5)):
                    value = rng.choice([F(0), F(0), F(1, 2), F(1), F(3), F(7, 3)])
                    for _ in range(rng.randint(1, 4)):   # runs of equal entries
                        beta[(machine, slot)] = value
                        slot += 1
                    slot += rng.choice([0, 0, 1, 3])     # gaps
            alpha = {job.id: F(rng.randint(0, 60), rng.randint(1, 4)) for job in inst.jobs}
            cert = certify.DualCertificate(kind, f, alpha, beta)
            self._assert_same(inst, cert)

    def test_beta_tables_match_the_rescan(self):
        # the package reads the integer kernel, the rescan a Fraction clock
        rng = random.Random(829)
        for _ in range(30):
            inst = random_instance(rng, max_machines=3, max_jobs=8)
            assignment = greedy_list.assign(inst).assignment.as_mapping()
            scaled = inst.scaled
            schedule = list_schedule(inst, assignment)
            completions = {machine: [(c, inst.job(j).weight) for j, c in rows]
                           for machine, rows in reference.list_schedule(inst, assignment).items()}
            for stretch in (F(1), F(2), F(5, 2), F(3)):
                assert dualfit._beta_table(schedule, scaled.mean_scale, scaled.weight_scale,
                                           stretch) == reference.beta_table(completions, stretch)
        # unsorted rows, shared completion times, fractional times
        rows = {1: [(F(7, 2), F(1)), (F(1, 3), F(2, 5)), (F(7, 2), F(3)), (F(6), F(1, 7))],
                2: [], 3: [(F(1, 2), F(4))]}
        time_scale = math.lcm(*[c.denominator for machine in rows.values() for c, _ in machine])
        weight_scale = math.lcm(*[w.denominator for machine in rows.values() for _, w in machine])
        schedule = {machine: [(k, w.numerator * (weight_scale // w.denominator),
                               c.numerator * (time_scale // c.denominator))
                              for k, (c, w) in enumerate(machine_rows, 1)]
                    for machine, machine_rows in rows.items()}
        for stretch in (F(1), F(2), F(5, 2), F(3)):
            assert dualfit._beta_table(schedule, time_scale, weight_scale, stretch) == \
                reference.beta_table(rows, stretch)

    def test_alpha_prices_exactly_the_jobs(self):
        inst = worked_instance()
        cert = dualfit.build_speed_certificate(inst, F(2), dualfit.list_run(inst))
        assert cert.objective() == F(1, 2)
        # an extra entry would lift the objective to 2001/2
        extra = dataclasses.replace(cert, alpha={**cert.alpha, 7: F(1000)})
        with pytest.raises(ValueError, match=r"missing \[\], extra \[7\]"):
            certify.verify_certificate(inst, extra)
        missing = dataclasses.replace(cert, alpha={1: cert.alpha[1]})
        with pytest.raises(ValueError, match=r"missing \[2\], extra \[\]"):
            certify.verify_certificate(inst, missing)
        # beta rows on a machine past the instance only lower the objective
        wide = dataclasses.replace(cert, beta={**cert.beta, (3, 0): F(1)})
        assert certify.verify_certificate(inst, wide).passed

    def test_a_far_slot_is_checked_without_walking_to_it(self):
        # machine 1 gains an entry at slot 10**12: every job permitted
        # there is priced on 10**12 + 2 slots, machine 2 keeps its two
        text = GOOD_CERT.replace('[2,0,"2"]', '[1,1000000000000,"1"],[2,0,"2"]')
        cert = certify.parse_certificate(text)
        report = certify.verify_certificate(worked_instance(), cert)
        assert report.passed
        assert report.metrics["constraints_checked"] == 2_000_000_000_008
        assert report.min_slack == F(2, 3)


GOOD_CERT = ('{"format":"CERT v1","kind":"list","f":"1","scale":["2","2"],'
             '"alpha":[[1,"2"],[2,"2"]],"beta":[[1,0,"1"],[1,1,"1"],[2,0,"2"]]}')


@pytest.mark.parametrize("old,new", [
    pytest.param('"f":"1"', '"f":Infinity', id="f-infinity"),
    pytest.param('"f":"1"', '"f":NaN', id="f-nan"),
    pytest.param('"f":"1"', '"f":0.1', id="f-float"),
    pytest.param('"f":"1"', '"f":true', id="f-bool"),
    pytest.param('"f":"1"', '"f":"1/0"', id="f-zero-denominator"),
    pytest.param('[[1,"2"]', '[[1,1e400]', id="alpha-overflow"),
    pytest.param('[[1,"2"]', '[[1,0.5]', id="alpha-float"),
    pytest.param('[[1,"2"]', '[[1,"x"]', id="alpha-garbage"),
    pytest.param('[[1,"2"]', '[[1,"1e-3"]', id="alpha-exponent"),
    pytest.param('[[1,"2"]', '[[1,"1e20000000"]', id="alpha-huge-exponent"),
    pytest.param('[[1,"2"]', '[[1,"2.0"]', id="alpha-decimal-string"),
    pytest.param('[[1,"2"]', '[[1,' + "2" * 5000 + ']', id="alpha-5000-digits"),
    pytest.param('"f":"1"', '"f":"0.5"', id="f-decimal-string"),
    pytest.param('"f":"1"', '"f":"1e0"', id="f-exponent"),
    pytest.param('["2","2"]', '["2"," 2"]', id="scale-space"),
    pytest.param('[[1,0,"1"]', '[[1,0,"1e-3"]', id="beta-exponent"),
    pytest.param('[[1,"2"]', '[[true,"2"]', id="alpha-bool-id"),
    pytest.param('[[1,"2"]', '[["1","2"]', id="alpha-string-id"),
    pytest.param('[[1,0,"1"]', '[[true,0,"1"]', id="beta-bool-machine"),
    pytest.param('[[1,0,"1"]', '[[1,false,"1"]', id="beta-bool-slot"),
    pytest.param('[[1,0,"1"]', '[[1,0,-Infinity]', id="beta-minus-infinity"),
    pytest.param('["2","2"]', '["0","2"]', id="scale-zero"),
    pytest.param('["2","2"]', '["2","-1"]', id="scale-negative"),
    pytest.param('["2","2"]', '[2.0,2]', id="scale-floats"),
    pytest.param('["2","2"]', '["2"]', id="scale-short"),
    pytest.param('["2","2"]', '["2","2","0"]', id="scale-long"),
    pytest.param('["2","2"]', '"22"', id="scale-string"),
    pytest.param('["2","2"]', '["1","100"]', id="scale-not-the-kinds"),
    pytest.param('"kind":"list"', '"kind":"list","junk":1', id="unknown-field"),
    pytest.param('[[1,"2"],[2,"2"]]', '[[1,"2"],[1,"2"]]', id="alpha-repeated-id"),
    pytest.param('[1,1,"1"]', '[1,0,"1"]', id="beta-repeated-key"),
    pytest.param('"kind":"list"', '"kind":"list","alpha":[[1,"9"],[2,"9"]]',
                 id="alpha-field-twice"),
    pytest.param('"f":"1"', '"f":' + "[" * 100_000, id="nested-too-deep"),
])
def test_malformed_certificate_is_a_schema_error(old, new):
    inst = worked_instance()
    assert certify.parse_certificate(GOOD_CERT) == dualfit.build_list_certificate(
        inst, dualfit.list_run(inst))
    assert GOOD_CERT.count(old) == 1
    with pytest.raises(SchemaError):
        certify.parse_certificate(GOOD_CERT.replace(old, new))
