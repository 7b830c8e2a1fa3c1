"""The integer simplex against the Fraction-tableau reference, and the
dual certificate of every solve.

Every model here is solved through `lp.solve_lp` with
`simplex.solve_standard` wrapped so that each call also runs
`reference.solve_standard` on the same arguments and requires the same
(value, x, duals), or the same error.  Exact equality holds because the
integer tableau is a positive rescaling of the reference's, so both take
the same Bland pivots; it is what catches a wrong phase-1 cost or tie
rule, which may still reach an optimum of the right value.  Each solved
model must also carry a dual certificate.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from stochsched import lp, simplex
from stochsched.errors import InfeasibleError, UnboundedError

import reference
from helpers import random_instance

F = Fraction
DENOMINATORS = (1, 2, 3, 4, 6, 7)
FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


@pytest.fixture
def seen(monkeypatch):
    """Route every solve through both solvers; count what happened."""
    counts = Counter()
    solve = simplex.solve_standard

    def agreeing(costs, rows, senses, rhs):
        expected = _outcome(reference.solve_standard, costs, rows, senses, rhs, paths=counts)
        got = _outcome(solve, costs, rows, senses, rhs)
        assert got == expected
        if isinstance(got, type):
            counts[got.__name__] += 1
            raise got("as the reference")
        counts["solved"] += 1
        return got

    monkeypatch.setattr(simplex, "solve_standard", agreeing)
    return counts


def _check_certificate(model: lp.LpModel, sol: lp.LpSolution) -> None:
    """Primal feasible, dual feasible and equal values: so optimal."""
    assert sum((sol.dual[con.name] * con.rhs for con in model.constraints), F(0)) == sol.value
    assert sum((c * sol.primal[name] for name, c in model.objective), F(0)) == sol.value
    reduced = Counter()
    for name, c in model.objective:
        reduced[name] += c
    for con in model.constraints:
        y = sol.dual[con.name]
        lhs = sum((a * sol.primal[name] for name, a in con.coeffs), F(0))
        if con.sense == "<=":
            assert lhs <= con.rhs and y <= 0
        elif con.sense == ">=":
            assert lhs >= con.rhs and y >= 0
        else:
            assert lhs == con.rhs
        for name, a in con.coeffs:
            reduced[name] -= y * a
    for name in model.variables:
        assert sol.primal[name] >= 0 and reduced[name] >= 0


def _entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return F(0)
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))


def _random_model(rng: random.Random) -> lp.LpModel:
    """1-7 nonnegative columns, 1-6 rows of every sense with signed
    fractional entries and right-hand sides; about one column in five
    has an opposite twin, every entry negated, as a free column split in
    two would.  In about 30 % of models one row comes twice, the copy
    scaled by a signed factor, so phase 1 ends with a redundant row to
    drop."""
    n = rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(1, 6)):
        rows.append(([_entry(rng) for _ in range(n)], rng.choice(("<=", ">=", "=")), _entry(rng)))
    if rng.random() < 0.3:
        coeffs, sense, b = rng.choice(rows)
        f = rng.choice((-1, 1)) * F(rng.randint(1, 3), rng.choice(DENOMINATORS))
        rows.insert(rng.randrange(len(rows) + 1),
                    ([f * a for a in coeffs], sense if f > 0 else FLIP[sense], f * b))
    costs = [_entry(rng) for _ in range(n)]
    # (name, base column, sign): each twin follows the column it negates
    columns = []
    for j in range(n):
        columns.append((f"x{j}", j, 1))
        if rng.random() < 0.2:
            columns.append((f"x{j}_neg", j, -1))

    def terms(entries):
        return tuple((name, sign * entries[j]) for name, j, sign in columns if entries[j])

    constraints = tuple(lp.Constraint(f"c{i}", terms(coeffs), sense, b)
                        for i, (coeffs, sense, b) in enumerate(rows))
    return lp.LpModel(0, tuple(name for name, _, _ in columns), terms(costs), constraints)


def test_random_programs_match_reference_and_certify(seen):
    rng = random.Random(4)
    for _ in range(3000):
        model = _random_model(rng)
        try:
            sol = lp.solve_lp(model)
        except (InfeasibleError, UnboundedError):
            continue
        _check_certificate(model, sol)
    # every path of the solver ran, and most of it more than once
    assert seen["solved"] >= 500
    assert seen["InfeasibleError"] >= 100 and seen["UnboundedError"] >= 100
    assert seen["flipped"] >= 500 and seen["dropped"] >= 50


def test_lp_models_match_reference_and_certify(seen):
    rng = random.Random(12)
    for _ in range(30):
        inst = random_instance(rng, max_machines=2, max_jobs=3, max_value=3, releases=True,
                               max_release=3)
        for variant in lp.VARIANTS:
            model = lp.build_primal(inst, variant)
            _check_certificate(model, lp.solve_lp(model))
    assert seen["solved"] == 30 * 4


def test_int_entries_solve_like_fractions():
    rng = random.Random(9)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        costs = [rng.randint(-3, 8) for _ in range(n)]
        rows = [[rng.randint(-2, 4) for _ in range(n)] for _ in range(m)]
        senses = [rng.choice(("<=", ">=", "=")) for _ in range(m)]
        rhs = [rng.randint(-4, 12) for _ in range(m)]
        as_ints = _outcome(simplex.solve_standard, costs, rows, senses, rhs)
        as_fractions = _outcome(simplex.solve_standard, [F(c) for c in costs],
                                [[F(a) for a in row] for row in rows], senses,
                                [F(b) for b in rhs])
        assert as_ints == as_fractions
        assert as_ints == _outcome(reference.solve_standard, costs, rows, senses, rhs)


@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("place, where", [
    ("cost", "cost 1"),
    ("coefficient", "row 1 column 0"),
    ("rhs", "row 0 right-hand side"),
])
def test_inexact_input_is_rejected(bad, place, where):
    # among Fractions, and among plain ints, which skip the lcm of the
    # denominators but not the refusal
    for exact in (F, int):
        costs = [exact(1), exact(1)]
        rows = [[exact(1), exact(1)], [exact(1), exact(0)]]
        rhs = [exact(2), exact(1)]
        if place == "cost":
            costs[1] = bad
        elif place == "coefficient":
            rows[1][0] = bad
        else:
            rhs[0] = bad
        with pytest.raises(TypeError, match=where):
            simplex.solve_standard(costs, rows, ["=", "<="], rhs)
