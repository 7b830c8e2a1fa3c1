"""Exact rational primal simplex on a dense, fraction-free tableau.

Two phases, Bland's rule for both the entering and leaving choice, so
cycling is impossible.  Sized for desk-scale models (a few thousand
nonzeros), not for production solving.

solve_standard handles   min c.x  s.t.  A x {<=,=,>=} b,  x >= 0
and returns the optimum, a solution, and the dual multipliers read off
the final tableau (the certificate of optimality: multipliers times b
reproduces the optimum exactly).  Inputs are ints or Fractions and every
returned number is a Fraction; in between the solver works on Python
ints only.

Representation.  After rows with a negative right-hand side are flipped,
row i is multiplied by s_i, the lcm of the denominators of its
coefficients and right-hand side, so the constraint rows become integer.
Slack and artificial coefficients stay +-1, which is a positive
rescaling of those columns alone.  The tableau is held as an int matrix
M with one common denominator D > 0, the true tableau being M / D, and
the objective as one more int row over D * K, K clearing the cost
denominators.  A pivot on p = M[r][c] is Bareiss's integer-preserving
step (Sylvester's identity):

    M[i][k] <- (p * M[i][k] - M[i][c] * M[r][k]) // D,    D <- p

applied to every row but r (a row with M[i][c] = 0 is still rescaled by
p / D) and to the objective row.  The division is exact because D is
|det| of the current basis and the entries are its signed minors.  Only
the clean-up that pivots leftover artificials out can meet p < 0; then
every row is negated so that D stays positive.

Phase 1 gives row i's artificial the cost K1 / s_i, with K1 the lcm of
those s_i, which is the usual sum of artificials written in the rescaled
columns and multiplied by K1.  Phase 2 uses the costs times K.  Duals
come off the slack or artificial column of each row and are multiplied
back by s_i.

Why the answers do not change.  Positive row and column scalings, and
a positive common factor on the objective, preserve the sign of every
reduced cost and tableau entry and the order of (and ties between) every
ratio b_i / a_i, which the ratio test compares by cross-multiplying.
So the pivot sequence under Bland's rule is the one a Fraction tableau
takes on the unscaled program, and with it x and the duals, even at a
degenerate or alternate optimum.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InfeasibleError, UnboundedError

__all__ = ["solve_standard"]

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}
_EXACT = frozenset((int, Fraction))
_INT = frozenset((int,))


def _scaled(values, row: Optional[int]) -> tuple[list[int], int]:
    """Integers k * v for k, the lcm of the values' denominators; and k.

    `values` are the costs (row None) or a row's coefficients followed
    by its right-hand side.  Values that are all plain ints, such as a
    0/1 cap row, go through as they are with k = 1.  A float or a bool
    raises TypeError naming its place: neither may slip into exact
    arithmetic.
    """
    kinds = set(map(type, values))
    if kinds == _INT:
        return list(values), 1
    if not _EXACT.issuperset(kinds):
        for j, v in enumerate(values):
            if v.__class__ is bool or not isinstance(v, (int, Fraction)):
                where = (f"cost {j}" if row is None else
                         f"row {row} right-hand side" if j == len(values) - 1 else
                         f"row {row} column {j}")
                raise TypeError(f"{where} is {v!r}; expected an int or a Fraction")
    dens = [v.denominator for v in values]
    k = lcm(*dens)
    if k == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (k // d) for v, d in zip(values, dens)], k


def _pivot(tableau, objrow, row: int, col: int, d: int) -> int:
    """Bareiss pivot on tableau[row][col], in place on the tableau and on
    the objective row unless that is None; returns the new denominator."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    others = [other for other in tableau if other is not pivot_row]
    if objrow is not None:
        others.append(objrow)
    if p == d:
        # p * v // d is v itself, so only the pivot row's nonzero columns
        # move, and only in rows with a nonzero in the pivot column
        nonzero = [(k, w) for k, w in enumerate(pivot_row) if w]
        for other in others:
            f = other[col]
            if f:
                for k, w in nonzero:
                    other[k] -= f * w // d
        return d
    for other in others:
        f = other[col]
        if f:
            other[:] = [(p * v - f * w) // d for v, w in zip(other, pivot_row)]
        else:
            other[:] = [p * v // d for v in other]
    if p < 0:
        for other in others + [pivot_row]:
            other[:] = [-v for v in other]
        return -p
    return p


def _objective_row(tableau, basis, costs, d: int):
    """Integer costs priced against the basis, over the denominator d
    times the costs' own scale."""
    objrow = [d * c for c in costs] + [0]
    for i, b in enumerate(basis):
        cb = costs[b]
        if cb:
            objrow = [v - cb * w for v, w in zip(objrow, tableau[i])]
    return objrow


def _run_simplex(tableau, objrow, basis, allowed: int, d: int) -> int:
    """Bland iterations until none of the first `allowed` columns prices
    out negative; returns the final denominator."""
    while True:
        entering = next((j for j in range(allowed) if objrow[j] < 0), -1)
        if entering < 0:
            return d
        leaving = -1
        best_b = best_a = 0
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                # b / a against best_b / best_a, both denominators positive
                lhs = row[-1] * best_a
                rhs = best_b * a
                if leaving < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    best_b, best_a = row[-1], a
                    leaving = i
        if leaving < 0:
            raise UnboundedError("objective decreases without bound")
        d = _pivot(tableau, objrow, leaving, entering, d)
        basis[leaving] = entering


def solve_standard(costs: Sequence[Fraction], rows: Sequence[Sequence[Fraction]],
                   senses: Sequence[str], rhs: Sequence[Fraction]):
    """Minimize costs.x over A x (sense) b, x >= 0.

    Every cost, coefficient and right-hand side must be an int or a
    Fraction; anything else (a float or a bool) raises TypeError.
    Returns (value, x, duals) with duals indexed like the input rows.
    Raises InfeasibleError or UnboundedError.
    """
    n = len(costs)
    m = len(rows)
    senses = list(senses)
    int_costs, k = _scaled(costs, None)
    flipped = [False] * m
    scaled = []
    scale = []
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError(f"row {i} has {len(rows[i])} coefficients, expected {n}")
        ints, s = _scaled([*rows[i], rhs[i]], i)
        if ints[-1] < 0:
            ints = [-v for v in ints]
            senses[i] = _FLIP[senses[i]]
            flipped[i] = True
        scaled.append(ints)
        scale.append(s)

    # column layout: structural | one slack/surplus per inequality | artificials
    slack_of = [-1] * m
    n_slack = 0
    for i, s in enumerate(senses):
        if s in ("<=", ">="):
            slack_of[i] = n + n_slack
            n_slack += 1
        elif s != "=":
            raise ValueError(f"unknown sense {s!r}")
    art_of = [-1] * m
    n_art = 0
    for i, s in enumerate(senses):
        if s in ("=", ">="):
            art_of[i] = n + n_slack + n_art
            n_art += 1
    width = n + n_slack + n_art

    tableau = []
    basis = []
    for i in range(m):
        ints = scaled[i]
        row = ints[:-1] + [0] * (n_slack + n_art) + ints[-1:]
        if slack_of[i] >= 0:
            row[slack_of[i]] = 1 if senses[i] == "<=" else -1
        if art_of[i] >= 0:
            row[art_of[i]] = 1
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        tableau.append(row)

    structural = n + n_slack  # artificials never re-enter
    d = 1

    if n_art:
        k1 = lcm(*[scale[i] for i in range(m) if art_of[i] >= 0])
        phase1 = [0] * width
        for i in range(m):
            if art_of[i] >= 0:
                phase1[art_of[i]] = k1 // scale[i]
        objrow = _objective_row(tableau, basis, phase1, d)
        d = _run_simplex(tableau, objrow, basis, structural, d)
        if any(tableau[i][-1] for i in range(m) if basis[i] >= structural):
            raise InfeasibleError("no point satisfies every constraint")
        # pivot leftover zero-level artificials out; drop rows that went redundant
        drop = []
        for i in range(m):
            if basis[i] < structural:
                continue
            col = next((j for j in range(structural) if tableau[i][j] != 0), -1)
            if col < 0:
                drop.append(i)
            else:
                d = _pivot(tableau, None, i, col, d)
                basis[i] = col
        kept = [i for i in range(m) if i not in drop]
        tableau = [tableau[i] for i in kept]
        basis = [basis[i] for i in kept]
    else:
        kept = list(range(m))

    objrow = _objective_row(tableau, basis, int_costs + [0] * (n_slack + n_art), d)
    d = _run_simplex(tableau, objrow, basis, structural, d)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[i][-1], d)
    value = Fraction(-objrow[-1], d * k)

    # duals come off the priced-out identity columns of each surviving row
    # (the artificial, or the slack of a row without one: a <= row), times
    # the row's scale
    duals = [Fraction(0)] * m
    for orig in kept:
        y = -objrow[art_of[orig] if art_of[orig] >= 0 else slack_of[orig]] * scale[orig]
        if y:
            duals[orig] = Fraction(-y if flipped[orig] else y, d * k)
    return value, x, duals
