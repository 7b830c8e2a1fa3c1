import random
from fractions import Fraction

import pytest

from stochsched.errors import InfeasibleError, UnboundedError
from stochsched.simplex import solve_standard

F = Fraction

scipy = pytest.importorskip("scipy", reason="float cross-check only")
import numpy as np               # noqa: E402  (scipy implies numpy)
from scipy.optimize import linprog  # noqa: E402


def test_bounded_maximum_via_negation():
    # max x s.t. x <= 3 written as min -x
    value, x, duals = solve_standard([F(-1)], [[F(1)]], ["<="], [F(3)])
    assert value == -3 and x == [F(3)]
    assert duals == [F(-1)]


def test_equality_and_leq_mix():
    # min x + y s.t. x + y = 2, x <= 1
    value, x, _ = solve_standard([F(1), F(1)], [[F(1), F(1)], [F(1), F(0)]],
                                 ["=", "<="], [F(2), F(1)])
    assert value == 2


def test_geq_rows():
    value, x, _ = solve_standard([F(2), F(3)], [[F(1), F(1)]], [">="], [F(4)])
    assert value == 8 and x == [F(4), F(0)]


def test_infeasible():
    with pytest.raises(InfeasibleError):
        solve_standard([F(1)], [[F(1)], [F(1)]], ["<=", ">="], [F(1), F(2)])


def test_unbounded():
    with pytest.raises(UnboundedError):
        solve_standard([F(-1)], [[F(1)]], [">="], [F(0)])


def test_redundant_equalities_are_dropped():
    value, x, _ = solve_standard([F(1)], [[F(1)], [F(1)]], ["=", "="], [F(2), F(2)])
    assert value == 2 and x == [F(2)]


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    costs = [F(-3, 4), F(150), F(-1, 50), F(6)]
    rows = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    value, _, _ = solve_standard(costs, rows, ["<=", "<=", "<="], [F(0), F(0), F(1)])
    assert value == F(-1, 20)


def _random_program(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 4)
    costs = [F(rng.randint(0, 8)) for _ in range(n)]
    rows = [[F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    rhs = [F(rng.randint(0, 12)) for _ in range(m)]
    return costs, rows, senses, rhs


def test_against_scipy_on_random_programs():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        costs, rows, senses, rhs = _random_program(rng)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row, sense, b in zip(rows, senses, rhs):
            if sense == "<=":
                a_ub.append([float(c) for c in row]); b_ub.append(float(b))
            elif sense == ">=":
                a_ub.append([-float(c) for c in row]); b_ub.append(-float(b))
            else:
                a_eq.append([float(c) for c in row]); b_eq.append(float(b))
        ref = linprog([float(c) for c in costs],
                      A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(a_eq) if a_eq else None,
                      b_eq=np.array(b_eq) if b_eq else None,
                      method="highs")
        try:
            value, x, _ = solve_standard(costs, rows, senses, rhs)
        except InfeasibleError:
            assert ref.status == 2
            continue
        except UnboundedError:
            assert ref.status == 3
            continue
        assert ref.status == 0
        assert abs(float(value) - ref.fun) < 1e-7
        checked += 1
    assert checked > 40        # the generator must produce real solves


def _fractional_program(rng):
    def entry():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
    n = rng.randint(1, 6)
    m = rng.randint(1, 5)
    costs = [abs(entry()) for _ in range(n)]
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    return costs, rows, senses, rhs


def test_against_scipy_on_fractional_signed_programs():
    # row scaling and negative-rhs flips, which integer entries never reach
    rng = random.Random(2025)
    checked = 0
    for _ in range(200):
        costs, rows, senses, rhs = _fractional_program(rng)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row, sense, b in zip(rows, senses, rhs):
            if sense == "<=":
                a_ub.append([float(c) for c in row]); b_ub.append(float(b))
            elif sense == ">=":
                a_ub.append([-float(c) for c in row]); b_ub.append(-float(b))
            else:
                a_eq.append([float(c) for c in row]); b_eq.append(float(b))
        ref = linprog([float(c) for c in costs],
                      A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(a_eq) if a_eq else None,
                      b_eq=np.array(b_eq) if b_eq else None,
                      method="highs")
        try:
            value, x, _ = solve_standard(costs, rows, senses, rhs)
        except InfeasibleError:
            assert ref.status == 2
            continue
        except UnboundedError:
            assert ref.status == 3
            continue
        assert ref.status == 0
        assert abs(float(value) - ref.fun) < 1e-7
        checked += 1
    assert checked > 40


def test_duals_price_rhs_perturbations():
    costs = [F(3), F(5)]
    rows = [[F(1), F(0)], [F(0), F(2)], [F(3), F(2)]]
    senses = [">=", ">=", ">="]
    rhs = [F(4), F(12), F(18)]
    value, _, duals = solve_standard(costs, rows, senses, rhs)
    # strong duality: value equals duals . rhs for this nondegenerate program
    assert value == sum(d * b for d, b in zip(duals, rhs))
