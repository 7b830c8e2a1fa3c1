"""Acceptance gate: eight end-to-end checks, each with a wall-clock budget.

Every test prints one summary line (`ACCEPTANCE <n> (<label>): PASS|FAIL`)
and fails if any sub-check or the budget is missed.  Run with
`pytest tests/test_acceptance.py -s` to watch the lines as they appear;
without `-s` pytest shows them only for failing tests.
"""
from __future__ import annotations

import itertools
import random
import time
import warnings
from fractions import Fraction
from typing import Callable

from helpers import point_instance, random_instance
from stochsched import dualfit, greedy_list, greedy_time, lp, oracle
from stochsched.core import Instance, Job, ProcDist, max_scv
from stochsched.errors import SmallMeanWarning

F = Fraction


def _criterion(number: int, label: str, budget: float,
               body: Callable[[], str]) -> None:
    start = time.perf_counter()
    try:
        detail = body()
    except Exception as exc:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({label}): FAIL  "
              f"[{elapsed:.1f}s/{budget:.0f}s] {exc}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {verdict}  "
          f"[{elapsed:.1f}s/{budget:.0f}s] {detail}")
    assert elapsed < budget, (
        f"criterion {number} finished in {elapsed:.1f}s, budget {budget:.0f}s")


def _accounting_batch() -> list[Instance]:
    # shared by criteria 1 and 2: integer means keep every completion of
    # the expected-duration schedule on the slot grid
    rng = random.Random(101)
    return [random_instance(rng, max_machines=4, max_jobs=10, max_value=5,
                            integer_mean=True) for _ in range(200)]


def _released_batch() -> list[Instance]:
    # even means: halved durations stay integral on the speed-2 clock
    rng = random.Random(303)
    return [random_instance(rng, max_machines=4, max_jobs=10, max_value=5,
                            even_mean=True, releases=True) for _ in range(100)]


def test_criterion_1_exact_accounting():
    def body() -> str:
        for inst in _accounting_batch():
            alg = greedy_list.greedy_cost(inst)
            cert = dualfit.build_list_certificate(inst)
            assert cert.alpha_sum == alg, (cert.alpha_sum, alg)
            assert cert.beta_sum == alg, (cert.beta_sum, alg)
        return "200 instances: sum(alpha) == sum(beta) == greedy cost"

    _criterion(1, "exact-accounting", 5.0, body)


def test_criterion_2_certificate_feasibility():
    def body() -> str:
        plain = _accounting_batch()
        released = _released_batch()
        violations = 0
        for inst in plain:
            cert = dualfit.build_list_certificate(inst)
            violations += len(dualfit.check_list_feasibility(inst, cert).violations)
            violations += len(dualfit.check_speedf(inst, F(2)).violations)
            violations += len(dualfit.check_speedf(inst, F(3)).violations)
        for inst in released:
            violations += len(dualfit.check_online(inst, F(2), solve=False).violations)
        assert violations == 0, f"{violations} certificate violations"

        # mutation sweep: bumping any job's alpha past its slot-0 (or
        # first release slot) row must be flagged
        mut = random.Random(404)
        caught = 0
        for inst in plain[:10]:
            cert = dualfit.build_list_certificate(inst)
            victim = mut.randint(1, inst.n)
            machine = inst.job(victim).permitted[0]
            mean = inst.mean(machine, victim)
            bump = mean * (cert.beta_at(machine, 0) + inst.job(victim).weight) + 1
            report = dualfit.verify_certificate(inst, dualfit.perturbed(cert, victim, bump))
            assert report.violations, "list mutation went unnoticed"
            caught += 1
        for inst in plain[10:20]:
            cert = dualfit.build_speed_certificate(inst, F(2))
            victim = mut.randint(1, inst.n)
            machine = inst.job(victim).permitted[0]
            mean = inst.mean(machine, victim)
            w = inst.job(victim).weight
            bump = mean * (cert.beta_at(machine, 0) / 2 + w / 2) + 1
            report = dualfit.verify_certificate(inst, dualfit.perturbed(cert, victim, bump))
            assert report.violations, "speed mutation went unnoticed"
            caught += 1
        for inst in released[:10]:
            cert = dualfit.build_online_certificate(inst, F(2))
            victim = mut.randint(1, inst.n)
            job = inst.job(victim)
            machine = job.permitted[0]
            mean = inst.mean(machine, victim)
            s0 = job.release
            rhs = cert.beta_at(machine, s0) + 6 * job.weight * (
                (s0 + F(1, 2)) / mean + F(1, 2))
            bump = rhs * mean / 2 + 1
            report = dualfit.verify_certificate(inst, dualfit.perturbed(cert, victim, bump))
            assert report.violations, "online mutation went unnoticed"
            caught += 1
        return (f"0 violations over 200 plain + 100 released instances; "
                f"{caught}/30 mutations flagged")

    _criterion(2, "certificate-feasibility", 30.0, body)


def test_criterion_3_worst_case_factor():
    def body() -> str:
        dists = {v: ProcDist.point(v) for v in (1, 2, 3)}
        types1 = [(F(w), (dists[p],))
                  for w in (1, 2) for p in (1, 2, 3)]
        types2 = [(F(w), (dists[a], dists[b]))
                  for w in (1, 2) for a in (1, 2, 3) for b in (1, 2, 3)]
        checked = 0
        for machines, types in ((1, types1), (2, types2)):
            for n in range(1, 5):
                for combo in itertools.product(types, repeat=n):
                    jobs = [Job(j + 1, w, 0, proc)
                            for j, (w, proc) in enumerate(combo)]
                    inst = Instance(machines, jobs)
                    alg = greedy_list.greedy_cost(inst)
                    opt = oracle.det_opt(inst)
                    assert alg <= 4 * opt, (machines, combo, alg, opt)
                    checked += 1
        assert checked == 112_704, checked

        rng = random.Random(505)
        for _ in range(100):
            inst = random_instance(rng, max_machines=2, max_jobs=4, max_value=4)
            alg = greedy_list.greedy_cost(inst)
            opt = oracle.stoch_opt(inst)
            slack = 4 + 2 * max_scv(inst)
            assert alg <= slack * opt, (alg, opt, slack)
        return (f"{checked} deterministic instances within 4x optimum, "
                "100 stochastic within (4 + 2*scv)x adaptive optimum")

    _criterion(3, "worst-case-factor", 60.0, body)


def test_criterion_4_lower_bound_family():
    def body() -> str:
        ratios = [oracle.lower_bound_ratio(k)[2] for k in range(1, 6)]
        assert ratios[0] == 1, ratios[0]
        assert ratios[1] == F(11, 6), ratios[1]
        for prev, cur in zip(ratios, ratios[1:]):
            assert cur > prev, (prev, cur)
        assert all(r < 4 for r in ratios), ratios
        shown = ", ".join(str(r) for r in ratios)
        return f"ratios {shown}: anchored, strictly increasing, below 4"

    _criterion(4, "lower-bound-family", 60.0, body)


def test_criterion_5_lp_relaxations():
    def body() -> str:
        rng = random.Random(707)
        for _ in range(50):
            inst = random_instance(rng, max_machines=2, max_jobs=4, max_value=4)
            z_slot = lp.solve_lp(lp.build_primal(inst, variant="S")).value
            z_point = lp.solve_lp(lp.build_primal(inst, variant="P")).value
            assert z_point <= (1 + max_scv(inst) / 2) * z_slot, (z_point, z_slot)
            alg = greedy_list.greedy_cost(inst)
            assert alg <= 4 * z_point, (alg, z_point)
            actual = dualfit.check_speedf(inst, F(2)).metrics["objective_actual"]
            assert actual <= z_point, (actual, z_point)
        return ("50 instances: z_P within (1 + scv/2) of z_S, greedy within "
                "4x z_P, certificate objective below the primal optimum")

    _criterion(5, "lp-relaxations", 120.0, body)


def test_criterion_6_speed_scaling_pipeline():
    def body() -> str:
        # step 1: one realization, two clocks, exact scaling
        rng = random.Random(606)
        for i in range(100):
            inst = random_instance(rng, max_machines=3, max_jobs=6, max_value=4,
                                   releases=True)
            f = F(2) if i % 2 == 0 else F(3)
            assignment = greedy_time.assign(inst, f)
            real = greedy_time.draw_realization(inst, rng)
            sped = greedy_time.simulate(inst, assignment, real, f)
            wall = greedy_time.simulate_wall_clock(inst, assignment, real, f)
            assert wall == sped.scaled(f), f"trace scaling broke on pair {i}"

        # step 2: simulated cost of the sped stochastic schedule vs its
        # deterministic counterpart (wall-clock figures divided by f)
        rng = random.Random(616)
        for i in range(50):
            inst = random_instance(rng, max_machines=3, max_jobs=6, max_value=4,
                                   releases=True)
            det = float(greedy_time.deterministic_cost(inst, F(2)))
            est = greedy_time.estimate_cost(inst, F(2), samples=10_000, seed=1000 + i)
            assert est.mean / 2 <= 6 * det + 3 * (est.ci95 / 2), (est.mean, det)

        # step 3: deterministic sped cost against the release-aware LP
        rng = random.Random(626)
        for _ in range(50):
            inst = random_instance(rng, max_machines=2, max_jobs=4, max_value=4,
                                   releases=True, max_release=4, even_mean=True)
            det = greedy_time.deterministic_cost(inst, F(2))
            z = lp.solve_lp(lp.build_primal(inst, variant="P_o")).value
            assert det <= 6 * z, (det, z)

        # end to end: deployed-policy estimate against the sanity ceiling
        rng = random.Random(636)
        for i in range(10):
            inst = random_instance(rng, max_machines=2, max_jobs=4, max_value=4,
                                   releases=True, max_release=4, even_mean=True)
            z = lp.solve_lp(lp.build_primal(inst, variant="S_o")).value
            ceiling = float((72 + 36 * max_scv(inst)) * z)
            est = greedy_time.estimate_cost(inst, F(2), samples=10_000, seed=2000 + i)
            assert est.mean <= ceiling + 3 * est.ci95, (est.mean, ceiling)
        return ("100 exact trace scalings, 50 simulated-vs-deterministic "
                "bounds, 50 LP bounds, 10 end-to-end ceilings")

    _criterion(6, "speed-scaling-pipeline", 600.0, body)


def test_criterion_7_moment_and_stopping_bounds():
    def body() -> str:
        for report in oracle.identity_fuzz(random.Random(700), 500):
            assert report.passed, (report.name, report.metrics)

        threshold = F(8)
        names = []
        for process in (oracle.constant_process(threshold),
                        oracle.doubling_process(threshold),
                        oracle.staged_process(threshold),
                        oracle.heavy_process(threshold)):
            report = oracle.check_b2(process, trials=2000, seed=77)
            assert report.passed, report.metrics
            names.append(process.label)
        return (f"500 start-profile identities, 500 moment identities, "
                f"stopped sums within 4x threshold for {', '.join(names)}")

    _criterion(7, "moment-and-stopping-bounds", 60.0, body)


def test_criterion_8_per_job_bound():
    def body() -> str:
        checked = 0
        # deterministic instances get the exact trace check
        rng = random.Random(800)
        for _ in range(20):
            shape = random_instance(rng, max_machines=3, max_jobs=6,
                                    integer_mean=True, releases=True)
            points = point_instance(shape.machines, [
                (job.weight, job.release,
                 tuple(None if d is None else int(d.mean) for d in job.proc))
                for job in shape.jobs
            ])
            report = oracle.check_lemma5(points, F(2), 10, 0)
            assert report.passed, report.violations
            checked += 1

        # stochastic instances fall back to Monte Carlo
        rng = random.Random(808)
        for i in range(9):
            inst = random_instance(rng, max_machines=3, max_jobs=6, max_value=4,
                                   releases=True)
            report = oracle.check_lemma5(inst, F(2), 1500, 90 + i)
            assert report.passed, report.violations
            checked += 1

        # a crowd of nearly-always-zero jobs in front of one solid job:
        # the shape that makes naive per-job bounds fail
        bad = ProcDist({0: F(99, 100), 10: F(1, 100)})
        jobs = [Job(j, F(1, 100), 0, (bad,)) for j in range(1, 101)]
        jobs.append(Job(101, F(1), 1, (ProcDist.point(1),)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallMeanWarning)
            crowd = Instance(1, jobs)
        report = oracle.check_lemma5(crowd, F(2), 1200, 3)
        assert report.passed, report.violations
        checked += 1
        return f"{checked} instances: every job within its completion bound"

    _criterion(8, "per-job-bound", 300.0, body)
