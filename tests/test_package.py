import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stochsched
from stochsched import certify, cli, dualfit, greedy_list, greedy_time, lp, oracle, simplex
from stochsched.core import emit_instance
from stochsched.errors import ForbiddenPairError, RequiresFGeq2Error, SchemaError
from stochsched.report import Report, render

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
_LIST_CERT = certify.serialize_certificate(dualfit.build_list_certificate(
    _WORKED, dualfit.list_run(_WORKED)))


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
    (lambda: oracle.random_dist(random.Random(0), max_value=0),
     ValueError, "need room for at least the value 1"),
    (lambda: oracle.gen_lower_bound(0, 1), ValueError, "k must be a positive integer, got 0"),
    (lambda: oracle.lower_bound_ratio(0), ValueError, "k must be a positive integer, got 0"),
    (lambda: oracle.gen_lower_bound(True, 1), ValueError, "k must be a positive integer, got True"),
    (lambda: oracle.gen_lower_bound(1, True), ValueError, "m must be a positive integer, got True"),
    (lambda: oracle.lower_bound_ratio(True), ValueError, "k must be a positive integer, got True"),
    (lambda: dualfit.build_online_certificate(_WORKED, Fraction(3, 2)),
     RequiresFGeq2Error, "need f >= 2, got 3/2"),
    (lambda: certify.DualCertificate("list", Fraction(1), {1: Fraction(1)},
                                     {(1, 0): Fraction(-1)}),
     ValueError, "beta values must be nonnegative"),
    (lambda: certify.DualCertificate("wat", Fraction(1), {1: Fraction(1)}, {}),
     ValueError, "kind must be one of"),
    (lambda: certify.DualCertificate("list", Fraction(1), {1: Fraction(-1)}, {}),
     ValueError, "alpha values must be nonnegative"),
    (lambda: certify.DualCertificate("speed", Fraction(0), {1: Fraction(1)}, {}),
     ValueError, "speed certificates need f > 0"),
    (lambda: certify.parse_certificate(_LIST_CERT.replace('["2","2"]', '["2"]')),
     SchemaError, "scale must list exactly two rationals"),
    (lambda: render(Report("list", True), "xml"), ValueError, "format must be one of"),
    (lambda: _exit_code(["lowerbound", "0"]), SystemExit, "^6$"),
], ids=["simplex-row-length", "simplex-sense", "lp-unknown-variable", "job-dist-forbidden",
        "expected-increase-forbidden", "realization-forbidden", "simulate-mode",
        "staged-process-one-stage", "random-dist-no-room", "gen-lower-bound-k0",
        "lower-bound-ratio-k0", "gen-lower-bound-k-true", "gen-lower-bound-m-true",
        "lower-bound-ratio-k-true", "online-certificate-f-below-2", "negative-beta",
        "certificate-kind", "negative-alpha", "speed-certificate-f0", "certificate-scale-length",
        "render-unknown-format", "cli-lowerbound-k0"])
def test_each_refusal_raises_in_its_own_words(call, error, match, capsys):
    with pytest.raises(error, match=match):
        call()
    if error is SystemExit:
        assert capsys.readouterr().err == "error: k must be at least 1\n"


_CHECKER = """
import sys
from stochsched import certify, core
inst = core.parse_instance(sys.argv[1])
report = certify.verify_certificate(inst, certify.parse_certificate(sys.argv[2]))
print(report.passed, report.metrics["constraints_checked"])
print(" ".join(sorted(name for name in sys.modules if name.startswith("stochsched"))))
"""


def test_a_certificate_is_read_and_judged_without_its_builders():
    """A fresh interpreter that imports only `core` and `certify` reads the
    worked instance and its list certificate from their texts and judges
    the certificate, loading none of the code that builds one."""
    root = str(Path(stochsched.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _CHECKER, emit_instance(_WORKED), _LIST_CERT],
                         capture_output=True, text=True, check=True, env=env).stdout
    verdict, loaded = out.splitlines()
    assert verdict == "True 10"
    builders = {f"stochsched.{name}" for name in
                ("greedy_list", "greedy_time", "dualfit", "lp", "simplex", "oracle", "cli")}
    assert "stochsched.certify" in loaded.split() and not builders & set(loaded.split())
