import random
from fractions import Fraction

import pytest

from stochsched.core import Instance, Job, ProcDist
from stochsched.errors import RequiresFGeq2Error, SchemaError
from stochsched import dualfit, greedy_list, greedy_time, lp

from helpers import point_instance, random_instance, worked_instance

F = Fraction


class TestListCertificate:
    def test_worked_instance_tables(self):
        cert = dualfit.build_list_certificate(worked_instance())
        assert cert.kind == "list" and cert.f == 1
        assert cert.alpha == {1: F(2), 2: F(2)}
        assert cert.beta == {(1, 0): F(1), (1, 1): F(1), (2, 0): F(2)}
        assert cert.alpha_sum == 4 and cert.beta_sum == 4

    def test_hand_checked_constraint(self):
        # machine 1, job 2, slot 0: 2/1 <= 1 + 2*(0/1 + 1) = 3
        inst = worked_instance()
        cert = dualfit.build_list_certificate(inst)
        lhs, rhs = dualfit._constraint(cert, inst, 2, 1, 0)
        assert (lhs, rhs) == (F(2), F(3))

    def test_worked_instance_feasible(self):
        inst = worked_instance()
        report = dualfit.check_list_feasibility(inst, dualfit.build_list_certificate(inst))
        assert report.passed
        assert report.violations == ()
        assert report.min_slack == F(2, 3)
        assert report.metrics["alpha_matches_alg"] is True
        assert report.metrics["beta_matches_alg"] is True

    def test_single_job_slack_is_half_weight(self):
        # one unit job: alpha = 1, beta_0 = 1; slot 0 gives
        # 1 <= 1 + 1*(0+1), slack 1; slot 1 gives 1 <= 0 + 2
        inst = point_instance(1, [(1, 0, (1,))])
        report = dualfit.check_list_feasibility(
            inst, dualfit.build_list_certificate(inst))
        assert report.passed and report.min_slack == 1

    def test_sum_identities_on_random_integer_mean_instances(self):
        rng = random.Random(71)
        for _ in range(50):
            inst = random_instance(rng, integer_mean=True)
            cert = dualfit.build_list_certificate(inst)
            alg = greedy_list.greedy_cost(inst)
            assert cert.alpha_sum == alg
            assert cert.beta_sum == alg
            assert dualfit.verify_certificate(inst, cert).passed

    def test_doubled_alpha_is_caught(self):
        inst = worked_instance()
        cert = dualfit.build_list_certificate(inst)
        bad = dualfit.perturbed(cert, 2, F(2))          # alpha_2: 2 -> 4
        report = dualfit.verify_certificate(inst, bad)
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
            cert = dualfit.build_list_certificate(inst)
            victim = rng.randint(1, inst.n)
            machine = inst.job(victim).permitted[0]
            bump = inst.mean(machine, victim) * (
                cert.beta_at(machine, 0) + inst.job(victim).weight) + 1
            bad = dualfit.perturbed(cert, victim, bump)
            report = dualfit.verify_certificate(inst, bad)
            assert not report.passed
            assert any(v.constraint == f"price_{machine}_{victim}_0"
                       for v in report.violations)

    def test_wrong_kind_rejected(self):
        inst = worked_instance()
        cert = dualfit.build_speed_certificate(inst, F(2))
        with pytest.raises(ValueError):
            dualfit.check_list_feasibility(inst, cert)


class TestSpeedCertificate:
    def test_requires_speedup(self):
        with pytest.raises(RequiresFGeq2Error):
            dualfit.build_speed_certificate(worked_instance(), F(3, 2))

    def test_worked_instance_at_two(self):
        inst = worked_instance()
        cert = dualfit.build_speed_certificate(inst, F(2))
        assert cert.alpha == {1: F(1), 2: F(1)}
        assert cert.beta == {(1, 0): F(1), (2, 0): F(2)}
        report = dualfit.check_speedf(inst, F(2))
        assert report.passed
        assert report.metrics["objective_formula"] == 1
        assert report.metrics["objective_actual"] == F(1, 2)
        assert report.metrics["objective_exact"] is False

    def test_worked_instance_at_three(self):
        report = dualfit.check_speedf(worked_instance(), F(3))
        assert report.passed
        assert report.metrics["objective_formula"] == F(8, 9)
        assert report.metrics["objective_actual"] == F(1, 3)

    def test_formula_exact_when_f_divides_completions(self):
        inst = point_instance(1, [(1, 0, (2,))])
        report = dualfit.check_speedf(inst, F(2))
        assert report.metrics["objective_exact"] is True
        assert report.metrics["objective_actual"] == F(1, 2)

    def test_even_mean_instances_make_the_formula_exact(self):
        rng = random.Random(79)
        for _ in range(30):
            inst = random_instance(rng, even_mean=True, max_jobs=6)
            report = dualfit.check_speedf(inst, F(2))
            assert report.passed
            assert report.metrics["objective_exact"] is True

    def test_feasible_for_plain_dual_prices(self):
        # scaled by 1/f, the table satisfies the original pricing rows,
        # so its objective can never beat the mean-only optimum
        rng = random.Random(83)
        for _ in range(20):
            inst = random_instance(rng, integer_mean=True, max_jobs=5)
            report = dualfit.check_speedf(inst, F(2))
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
        assert report.metrics["lp_value"] == 2
        assert report.metrics["lower_bound_le_lp"] is True

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
            report = dualfit.check_online(inst, F(2), solve=False)
            assert report.passed, report.violations

    def test_mutation_is_caught(self):
        inst = worked_instance()
        cert = dualfit.build_online_certificate(inst, F(2))
        bad = dualfit.perturbed(cert, 2, cert.alpha[2] + 3)
        assert not dualfit.verify_certificate(inst, bad).passed


class TestSerialization:
    def test_round_trip_all_kinds(self):
        inst = worked_instance()
        for cert in (dualfit.build_list_certificate(inst),
                     dualfit.build_speed_certificate(inst, F(2)),
                     dualfit.build_online_certificate(inst, F(5, 2))):
            text = dualfit.serialize_certificate(cert)
            assert text.endswith("\n") and "\n" not in text[:-1]
            assert dualfit.parse_certificate(text) == cert
            assert dualfit.serialize_certificate(dualfit.parse_certificate(text)) == text

    def test_parse_rejects_bad_input(self):
        good = dualfit.serialize_certificate(
            dualfit.build_list_certificate(worked_instance()))
        with pytest.raises(SchemaError):
            dualfit.parse_certificate("not json")
        with pytest.raises(SchemaError):
            dualfit.parse_certificate(good.replace("CERT v1", "CERT v2"))
        with pytest.raises(SchemaError):
            dualfit.parse_certificate(good.replace('"list"', '"wat"'))
        with pytest.raises(SchemaError):
            dualfit.parse_certificate(good.replace('[[1,"2"]', '[[1,"-2"]'))

    def test_round_trip_seeded_release_instances(self):
        rng = random.Random(17)
        for _ in range(10):
            inst = random_instance(rng, max_machines=3, max_jobs=5, releases=True)
            for cert in (dualfit.build_list_certificate(inst),
                         dualfit.build_speed_certificate(inst, F(2)),
                         dualfit.build_online_certificate(inst, F(3))):
                text = dualfit.serialize_certificate(cert)
                assert dualfit.parse_certificate(text) == cert


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
    pytest.param('[[1,"2"]', '[[true,"2"]', id="alpha-bool-id"),
    pytest.param('[[1,"2"]', '[["1","2"]', id="alpha-string-id"),
    pytest.param('[[1,0,"1"]', '[[true,0,"1"]', id="beta-bool-machine"),
    pytest.param('[[1,0,"1"]', '[[1,false,"1"]', id="beta-bool-slot"),
    pytest.param('[[1,0,"1"]', '[[1,0,-Infinity]', id="beta-minus-infinity"),
    pytest.param('["2","2"]', '["0","2"]', id="scale-zero"),
    pytest.param('["2","2"]', '["2","-1"]', id="scale-negative"),
    pytest.param('["2","2"]', '[2.0,2]', id="scale-floats"),
    pytest.param('["2","2"]', '["2"]', id="scale-short"),
])
def test_malformed_certificate_is_a_schema_error(old, new):
    assert dualfit.parse_certificate(GOOD_CERT) == dualfit.build_list_certificate(
        worked_instance())
    assert GOOD_CERT.count(old) == 1
    with pytest.raises(SchemaError):
        dualfit.parse_certificate(GOOD_CERT.replace(old, new))
