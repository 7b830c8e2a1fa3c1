import importlib
import pkgutil
from fractions import Fraction

import pytest

import stochsched
from stochsched import cli, dualfit, greedy_list, greedy_time, lp, oracle, simplex
from stochsched.errors import ForbiddenPairError, RequiresFGeq2Error
from stochsched.report import Report

from helpers import point_instance, worked_instance

MODULES = ["stochsched", *(f"stochsched.{m.name}" for m in pkgutil.iter_modules(stochsched.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _exit_code(argv: list) -> None:
    raise SystemExit(cli.main(argv))


_WORKED = worked_instance()
# job 1 runs on machine 1 only
_ONE_FORBIDDEN = point_instance(2, [(1, 0, (1, None)), (2, 0, (1, 1))])
_UNKNOWN_COLUMN = lp.LpModel(1, ("x",), (("x", Fraction(1)),),
                             (lp.Constraint("c", (("y", Fraction(1)),), "<=", Fraction(1)),))
_REALIZATION = greedy_time.Realization(((1, None), (1, 1)))


@pytest.mark.parametrize("call,error,match", [
    (lambda: simplex.solve_standard([1, 1], [[1]], ["<="], [1]),
     ValueError, r"row 0 has 1 coefficients, expected 2"),
    (lambda: simplex.solve_standard([1], [[1]], ["<"], [1]), ValueError, "unknown sense '<'"),
    (lambda: lp.solve_lp(_UNKNOWN_COLUMN), ValueError, "unknown variable 'y'"),
    (lambda: _ONE_FORBIDDEN.job(1).dist(2), ForbiddenPairError, "job 1 cannot run on machine 2"),
    (lambda: greedy_list.expected_increase(_ONE_FORBIDDEN, {}, 1, 2),
     ForbiddenPairError, "job 1 cannot run on machine 2"),
    (lambda: _REALIZATION.value(1, 2), ForbiddenPairError, "job 1 cannot run on machine 2"),
    (lambda: greedy_time.simulate(_ONE_FORBIDDEN, greedy_time.assign(_ONE_FORBIDDEN, 2),
                                  _REALIZATION, 2, "idle"),
     ValueError, "mode must be one of"),
    (lambda: oracle.staged_process(3, stages=1), ValueError, "at least two stages"),
    (lambda: oracle.gen_lower_bound(0, 1), ValueError, "k must be a positive integer, got 0"),
    (lambda: oracle.lower_bound_ratio(0), ValueError, "k must be a positive integer, got 0"),
    (lambda: oracle.gen_lower_bound(True, 1), ValueError, "k must be a positive integer, got True"),
    (lambda: oracle.gen_lower_bound(1, True), ValueError, "m must be a positive integer, got True"),
    (lambda: oracle.lower_bound_ratio(True), ValueError, "k must be a positive integer, got True"),
    (lambda: dualfit.build_online_certificate(_WORKED, Fraction(3, 2)),
     RequiresFGeq2Error, "need f >= 2, got 3/2"),
    (lambda: dualfit.DualCertificate("list", Fraction(1), {1: Fraction(1)},
                                     {(1, 0): Fraction(-1)}),
     ValueError, "beta values must be nonnegative"),
    (lambda: cli.render(Report("list", True), "xml"), ValueError, "format must be one of"),
    (lambda: _exit_code(["lowerbound", "0"]), SystemExit, "^6$"),
], ids=["simplex-row-length", "simplex-sense", "lp-unknown-variable", "job-dist-forbidden",
        "expected-increase-forbidden", "realization-forbidden", "simulate-mode",
        "staged-process-one-stage", "gen-lower-bound-k0", "lower-bound-ratio-k0",
        "gen-lower-bound-k-true", "gen-lower-bound-m-true", "lower-bound-ratio-k-true",
        "online-certificate-f-below-2", "negative-beta", "render-unknown-format",
        "cli-lowerbound-k0"])
def test_each_refusal_raises_in_its_own_words(call, error, match, capsys):
    with pytest.raises(error, match=match):
        call()
    if error is SystemExit:
        assert capsys.readouterr().err == "error: k must be at least 1\n"
