import contextlib
import dataclasses
import enum
import io
import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from stochsched import cli, dualfit, greedy_list, greedy_time, lp
from stochsched.core import Instance, Job, ProcDist
from stochsched.errors import SchemaError
from stochsched.report import Report, Violation

import reference
from helpers import point_instance, random_instance, worked_instance

F = Fraction


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(cli.emit_instance(worked_instance()))
    return str(path)


class TestInstanceIO:
    def test_round_trip_equality(self):
        rng = random.Random(131)
        for _ in range(25):
            inst = random_instance(rng, releases=True)
            assert cli.parse_instance(cli.emit_instance(inst)) == inst

    def test_emit_is_canonical(self):
        inst = worked_instance()
        text = cli.emit_instance(inst)
        assert cli.emit_instance(cli.parse_instance(text)) == text

    @pytest.mark.parametrize("text,hint", [
        ("{", "JSON"),
        ("[]", "object"),
        ('{"format": "SCHED v2", "machines": 1, "jobs": []}', "format"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [], "extra": 1}', "unknown"),
        ('{"format": "SCHED v1", "machines": 0, "jobs": []}', "machine count"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": 0.5, '
         '"r": 0, "proc": [[[1, "1"]]]}]}', "rational"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[[1, "1"], [1, "0"]]]}]}', "duplicate"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[[-1, "1"]]]}]}', "value"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[[1, "2/3"]]]}]}', "sum"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0}]}', "proc"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": []}', "at least one job"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[[0, "1"]]]}]}', "zero expected"),
        ('{"format": "SCHED v1", "machines": "1", "jobs": []}', "integer"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1.0, "w": "1", '
         '"r": 0, "proc": [[[1, "1"]]]}]}', "integer"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": true, "proc": [[[1, "1"]]]}]}', "integer"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": {}}', "array"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [1]}', "object"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[]]}]}', "nonempty array"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[[1]]]}]}', "[int, rational]"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [[[1, "0"]]]}]}', "positive"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 0, "w": "1", '
         '"r": 0, "proc": [[[1, "1"]]]}]}', "positive integer"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": -1, "proc": [[[1, "1"]]]}]}', "release"),
        ('{"format": "SCHED v1", "machines": 2, "machines": 1, "jobs": [{"id": 1, '
         '"w": "1", "r": 0, "proc": [[[1, "1"]]]}]}', "twice"),
        pytest.param("[" * 100_000, "too deep", id="nested-too-deep"),
        ('{"format": "SCHED v1", "machines": 1}', "instance: missing field 'jobs'"),
        ('{"format": "SCHED v1", "jobs": []}', "instance: missing field 'machines'"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": {}}]}', "jobs[0].proc: expected an array"),
        ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, "w": "1", '
         '"r": 0, "proc": [{"1": "1"}]}]}', "jobs[0].proc[0]: expected an array of rows"),
    ])
    def test_schema_errors(self, text, hint):
        with pytest.raises(SchemaError) as err:
            cli.parse_instance(text)
        assert hint.lower() in str(err.value).lower()

    def test_weight_accepts_plain_integers(self):
        text = ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, '
                '"w": 3, "r": 0, "proc": [[[2, "1"]]]}]}')
        inst = cli.parse_instance(text)
        assert inst.job(1).weight == 3


class TestExitCodes:
    def test_pass_is_zero(self, worked_path, capsys):
        assert cli.main(["list", worked_path]) == 0
        assert "list: PASS" in capsys.readouterr().out

    def test_failed_check_is_one(self, worked_path, monkeypatch, capsys):
        # a speed certificate check that fails fails list and verify
        check_speedf = dualfit.check_speedf
        monkeypatch.setattr(dualfit, "check_speedf", lambda *args: dataclasses.replace(
            check_speedf(*args), passed=False))
        for sub in ("list", "verify"):
            assert cli.main([sub, worked_path]) == 1
            assert "[FAIL] speed-certificate" in capsys.readouterr().out

    def test_schema_error_is_two(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        assert cli.main(["list", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_instance_is_two(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"format":"SCHED v1","machines":1,"jobs":[]}')
        for sub in ("oracle", "list", "time", "lp", "verify"):
            assert cli.main([sub, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: instance must have at least one job\n"

    # rationals are ints or '[+-]digits[/digits]' strings: a decimal or
    # an exponent is refused before any digit of its value is computed
    @pytest.mark.parametrize("weight,prob", [
        ('"1e20000000"', '"1"'),
        ('"0.5"', '"1"'),
        ('"1e-3"', '"1"'),
        ('"1"', '"1e0"'),
        ('"1"', '"1.0"'),
        ('" 1"', '"1"'),
        ('"1/2 "', '"1"'),
        ('"\u0661"', '"1"'),
        ("1" * 5000, '"1"'),
        ('"1"', "1" * 5000),
    ], ids=["huge-exponent", "decimal", "small-exponent", "prob-exponent", "prob-decimal",
            "leading-space", "trailing-space", "arabic-indic-digit", "5000-digit-weight",
            "5000-digit-prob"])
    def test_non_rational_text_is_two_at_once(self, tmp_path, capsys, weight, prob):
        path = tmp_path / "strict.json"
        path.write_text('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, '
                        f'"w": {weight}, "r": 0, "proc": [[[2, {prob}]]]}}]}}')
        start = time.process_time()
        assert cli.main(["list", str(path)]) == 2
        assert time.process_time() - start < 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_signed_and_p_over_q_strings_are_rationals(self):
        text = ('{"format": "SCHED v1", "machines": 1, "jobs": [{"id": 1, '
                '"w": "+6/4", "r": 0, "proc": [[[2, "+1/3"], [4, "2/3"]]]}]}')
        inst = cli.parse_instance(text)
        assert inst.job(1).weight == F(3, 2) and inst.mean(1, 1) == F(10, 3)

    def test_unschedulable_is_three(self, tmp_path):
        path = tmp_path / "unsched.json"
        path.write_text('{"format": "SCHED v1", "machines": 1, "jobs": '
                        '[{"id": 1, "w": "1", "r": 0, "proc": [null]}]}')
        assert cli.main(["list", str(path)]) == 3

    def test_small_horizon_is_four(self, worked_path):
        assert cli.main(["lp", worked_path, "--horizon", "1"]) == 4
        assert cli.main(["verify", worked_path, "--horizon", "1"]) == 4

    def test_oversized_family_is_five(self):
        assert cli.main(["lowerbound", "9"]) == 5

    def test_low_speed_factor_is_six(self, worked_path, capsys):
        assert cli.main(["verify", worked_path, "--f", "3/2"]) == 6
        assert cli.main(["list", worked_path, "--f", "1/2"]) == 6
        capsys.readouterr()
        assert cli.main(["list", worked_path, "--f", "1/0"]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_speed_factor_beyond_float_range(self, worked_path, capsys):
        # the chain factor is a non-integer rational near 1e400, which no
        # float holds: the human format prints it exactly, with no hint
        assert cli.main(["list", worked_path, "--f", "1" + "0" * 400, "--format", "json"]) == 0
        exact = json.loads(capsys.readouterr().out)["metrics"]["chain_factor"]
        assert "/" in exact
        assert cli.main(["list", worked_path, "--f", "1" + "0" * 400]) == 0
        assert f"  chain_factor: {exact}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("command", ["list", "verify"])
    def test_result_past_the_digit_limit_is_six_in_own_words(self, worked_path, capsys,
                                                             command, fmt):
        # f = 10**2200 is a valid factor, but (f - 1)/f^2 times the cost
        # carries about twice its digits, more than Python prints
        assert cli.main([command, worked_path, "--f", "1" + "0" * 2200, "--format", fmt]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: a result needs more than ") and err.count("\n") == 1
        assert err.rstrip().endswith("digits to print exactly")

    def test_time_prints_a_factor_of_3001_digits(self, worked_path, capsys):
        assert cli.main(["time", worked_path, "--f", "1" + "0" * 3000, "--samples", "5"]) == 0
        assert f"  f: 1{'0' * 3000}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("text", ["1e5000", "1e2000000", "1e-5000", "0e99999999999",
                                      "1" * 4301 + "/3"])
    def test_speed_factor_past_the_digit_limit_is_six_at_once(self, worked_path, capsys, text):
        # refused before the Fraction is built: 1e2000000 used to run
        # for minutes and then fail inside Python's int conversion
        start = time.process_time()
        assert cli.main(["list", worked_path, "--f", text]) == 6
        assert time.process_time() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: speed factor ") and err.count("\n") == 1
        assert "4300 digits" in err

    def test_missing_file_is_six(self):
        assert cli.main(["list", "/nonexistent/nope.json"]) == 6

    @pytest.mark.parametrize("argv", [
        ["list"],
        ["oracle", "-", "--format", "xml"],
        ["time", "WORKED", "--samples", "0"],
        ["time", "WORKED", "--f", "1/2"],
        ["appendix", "--samples", "1"],
    ], ids=["no-instance", "unknown-format", "zero-samples", "f-below-1", "one-trial"])
    def test_usage_error_is_six(self, worked_path, capsys, argv):
        assert cli.main([worked_path if arg == "WORKED" else arg for arg in argv]) == 6
        assert capsys.readouterr().out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: stochsched" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"format": "SCHED v1", "machines": 2, "machines": 1, "jobs": [{"id": 1, '
        '"w": "1", "r": 0, "proc": [[[1, "1"]]]}]}',
    ], ids=["nested-too-deep", "repeated-key"])
    def test_too_deep_or_repeated_key_is_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["oracle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestOutputs:
    def test_lowerbound_table(self, capsys):
        assert cli.main(["lowerbound", "2"]) == 0
        out = capsys.readouterr().out
        assert "11/6" in out and "1.83333" in out

    def test_lp_single_unit_job(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(cli.emit_instance(point_instance(1, [(1, 0, (1,))])))
        assert cli.main(["lp", str(path), "--variant", "P"]) == 0
        out = capsys.readouterr().out
        assert "value: 1" in out

    def test_export_writes_parseable_model(self, worked_path, tmp_path, capsys):
        target = tmp_path / "model.lp"
        assert cli.main(["lp", worked_path, "--variant", "S",
                         "--export", str(target)]) == 0
        capsys.readouterr()
        model = reference.parse_lp(target.read_text())
        assert lp.solve_lp(model).value == 4

    def test_export_to_stdout_comes_before_the_report(self, worked_path, capsys):
        assert cli.main(["lp", worked_path, "--variant", "S", "--export", "-"]) == 0
        out = capsys.readouterr().out
        model = lp.export_lp(lp.build_primal(cli.parse_instance(Path(worked_path).read_text()),
                                             "S"))
        assert out.startswith(model)
        assert out[len(model):].startswith("lp: PASS\n") and "exported: -" in out

    def test_lp_export_past_the_digit_limit_is_six_in_own_words(self, tmp_path, capsys):
        # a 4,300-digit weight gives objective entries past the limit;
        # the export says so as the printed value would
        path = tmp_path / "heavy.json"
        path.write_text(cli.emit_instance(point_instance(1, [("9" * 4300, 0, (2,))])))
        assert cli.main(["lp", str(path), "--variant", "P", "--export", "-"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a result needs more than 4300 digits")

    def test_json_format_is_loadable(self, worked_path, capsys):
        assert cli.main(["list", worked_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["metrics"]["alg_value"] == "4"

    def test_csv_format_has_rows(self, worked_path, capsys):
        assert cli.main(["list", worked_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "job,machine,increase"
        assert lines[1:] == ["1,1,2", "2,2,2"]

    def test_stdin_instance(self, monkeypatch, capsys):
        text = cli.emit_instance(worked_instance())
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["oracle", "-"]) == 0
        assert "oracle: PASS" in capsys.readouterr().out

    def test_byte_determinism(self, worked_path, capsys):
        outputs = set()
        for _ in range(2):
            assert cli.main(["time", worked_path, "--samples", "150",
                             "--format", "json"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_appendix_is_byte_deterministic(self, capsys):
        outputs = set()
        for _ in range(2):
            assert cli.main(["appendix", "--samples", "50", "--format", "json"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_verify_compares_the_online_bound_with_p_o(self):
        report = cli.run(cli.RunConfig("verify", instance=point_instance(1, [(1, 0, (2,))])))
        online = report.checks[2]
        assert online.name == "online-certificate" and online.passed
        assert online.metrics["lower_bound"] == Fraction(2, 3)
        assert online.metrics["lp_value"] == 2
        assert online.metrics["lower_bound_le_lp"] is True

    def test_verify_at_a_roomy_horizon_prints_the_same_bytes(self, worked_path, capsys):
        assert cli.main(["verify", worked_path]) == 0
        default = capsys.readouterr().out
        assert cli.main(["verify", worked_path, "--horizon", "40"]) == 0
        assert capsys.readouterr().out == default

    def test_verify_worked_instance(self, worked_path, capsys):
        assert cli.main(["verify", worked_path]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "online-certificate" in out


class TestReport:
    def test_frozen(self):
        report = Report("r", True, {"x": 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.passed = False

    def test_json_puts_checks_then_rows_last_in_metrics(self):
        child = Report("child", False, {"a": F(1, 2)},
                       violations=(Violation("c", F(2), F(1)),), min_slack=F(-1))
        report = Report("parent", False, {"x": F(3), "y": 1.5},
                        checks=(child,), rows=({"k": 1, "v": F(1, 3)},))
        payload = json.loads(cli.render(report, "json"))
        assert list(payload) == ["name", "passed", "metrics", "violations", "min_slack"]
        assert list(payload["metrics"]) == ["x", "y", "checks", "rows"]
        assert payload["metrics"]["checks"][0]["violations"] == [
            {"constraint": "c", "lhs": "2", "rhs": "1", "slack": "-1"}]
        assert payload["metrics"]["rows"] == [{"k": 1, "v": "1/3"}]

    def test_json_omits_empty_checks_and_rows(self):
        assert json.loads(cli.render(Report("r", True, {"x": 1}), "json"))["metrics"] == {"x": 1}

    def test_a_failing_certificate_renders_top_level_and_nested(self):
        # both jobs' scores raised: ten pricing rows break, min slack -9
        inst = worked_instance()
        cert = dualfit.build_list_certificate(inst, dualfit.list_run(inst))
        cert = dualfit.perturbed(dualfit.perturbed(cert, 1, F(21, 2)), 2, 10)
        failed = dualfit.verify_certificate(inst, cert)
        assert len(failed.violations) == 10 and failed.min_slack == -9
        metrics = ("  kind: list\n  f: 1\n  alpha_sum: 49/2 (24.5)\n  beta_sum: 4\n"
                   "  constraints_checked: 10\n")
        # the first five violated rows, the top level's min_slack before them
        assert cli.render(failed, "human") == (
            "feasibility[list]: FAIL\n" + metrics + "  min_slack: -9\n"
            "  violated price_1_1_0: 25/4 (6.25) > 2\n"
            "  violated price_1_1_1: 25/4 (6.25) > 5/2 (2.5)\n"
            "  violated price_1_1_2: 25/4 (6.25) > 2\n"
            "  violated price_2_1_0: 25/6 (4.16667) > 3\n"
            "  violated price_2_1_1: 25/6 (4.16667) > 4/3 (1.33333)\n")
        assert cli.render(failed, "csv") == (
            "key,value\npassed,false\nkind,list\nf,1\nalpha_sum,49/2\nbeta_sum,4\n"
            "constraints_checked,10\n")
        outer = Report("verify", False, {"f": F(2)}, checks=(failed,))
        assert cli.render(outer, "human") == (
            "verify: FAIL\n  f: 2\n  checks:\n"
            "    [FAIL] feasibility[list] (min_slack=-9, violations=10)\n"
            + metrics.replace("  ", "        "))
        assert cli.render(outer, "csv") == "key,value\npassed,false\nf,2\n"
        for report in (failed, outer):
            assert cli.render(report, "json") == _json_oracle(report)


def _json_oracle(report: Report) -> str:
    return json.dumps(reference.jsonable(report), indent=2) + "\n"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Text(str):
    pass


class _Real(float):
    pass


_STRINGS = ("", "plain", "na\u00efve \u2713", "tab\there\r\n", "nul\x00 bell\x07 del\x7f",
            'quote" back\\slash /', "\u2028\u2029", "\U0001f600", "\ud800 lone surrogate")
_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -2.5e-310, 0.1, 1.5)
_KEYS = ("alpha", "na\u00efve \u2713", "tab\t", "checks", "rows")


def _number(rng: random.Random):
    return (F(rng.randint(-50, 50), rng.randint(1, 9)) if rng.random() < 0.5
            else rng.choice(_FLOATS))


def _scalar(rng: random.Random, depth: int = 0):
    kind = rng.randrange(11)
    if kind == 0:
        return rng.choice(_STRINGS)
    if kind == 1:
        return rng.choice(_FLOATS)
    if kind == 2:
        return rng.choice([0, -1, 10 ** 1000, -(10 ** 400) - 7])
    if kind == 3:
        return rng.choice([*_Level, _Text("sub\u00e9"), _Real(-2.5), _Real(math.inf)])
    if kind == 4:
        return rng.random() < 0.5
    if kind == 5:
        return None
    if kind == 6:
        return F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
    if kind == 7 and depth < 2:
        return tuple(_scalar(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if kind == 8 and depth < 2:
        return {rng.choice([2, None, 1.5, "k", "\u00e9"]): _scalar(rng, depth + 1)
                for _ in range(rng.randint(0, 3))}
    return rng.randint(-9, 9)


def _generated_report(rng: random.Random, depth: int = 0) -> Report:
    """A report of every piece a JSON rendering can meet, nested by sub-checks."""
    return Report(
        name=rng.choice(_STRINGS),
        passed=rng.random() < 0.5,
        metrics={rng.choice(_KEYS): _scalar(rng) for _ in range(rng.randint(0, 4))},
        violations=tuple(Violation(rng.choice(_STRINGS), _number(rng), _number(rng))
                         for _ in range(rng.randint(0, 2))),
        min_slack=rng.choice([None, _number(rng)]),
        checks=tuple(_generated_report(rng, depth + 1)
                     for _ in range(rng.randint(0, 2) if depth < 3 else 0)),
        rows=tuple({rng.choice([*_KEYS, 3, 2.5, None, True]): _scalar(rng)
                    for _ in range(rng.randint(0, 3))}
                   for _ in range(rng.randint(0, 3))),
    )


def _pieces(report: Report):
    """Every report and scalar inside `report`, depth first."""
    yield report
    for violation in report.violations:
        yield from (violation.lhs, violation.rhs)
    yield report.min_slack
    for value in [*report.metrics.values(), *(v for row in report.rows for v in row.values())]:
        yield from _pieces(value) if isinstance(value, Report) else (value,)
    for child in report.checks:
        yield from _pieces(child)


class TestJsonWriter:
    """`render(report, "json")` against `json.dumps` of
    `reference.jsonable(report)`, byte for byte."""

    def test_every_golden_report(self, tmp_path, monkeypatch):
        reports = []
        render = cli.render

        def recording(report, fmt):
            reports.append(report)
            return render(report, fmt)

        monkeypatch.setattr(cli, "render", recording)
        _cli_outputs(tmp_path)
        assert {r.name for r in reports} == {"list", "time", "lp", "verify", "oracle",
                                             "lowerbound", "appendix"}
        for report in reports:
            assert render(report, "json") == _json_oracle(report)

    def test_generated_reports(self):
        rng = random.Random(2718)
        seen = set()
        for _ in range(400):
            report = _generated_report(rng)
            assert cli.render(report, "json") == _json_oracle(report)
            for piece in _pieces(report):
                if isinstance(piece, Report):
                    seen.update(name for name, present in (
                        ("no checks", not piece.checks), ("nested checks", piece.checks),
                        ("no rows", not piece.rows), ("rows", piece.rows),
                        ("empty row", any(not row for row in piece.rows)),
                        ("no violations", not piece.violations),
                        ("violations", piece.violations),
                        ("checks key", "checks" in piece.metrics and piece.checks),
                    ) if present)
                elif isinstance(piece, float):
                    seen.add(repr(piece))
                elif isinstance(piece, _Level):
                    seen.add("IntEnum")
                elif piece.__class__ is int and abs(piece) > 10 ** 300:
                    seen.add("huge int")
                elif isinstance(piece, str) and not piece.isascii():
                    seen.add("non-ASCII")
                elif isinstance(piece, str) and any(ord(c) < 32 for c in piece):
                    seen.add("control character")
        assert seen >= {"no checks", "nested checks", "no rows", "rows", "empty row",
                        "no violations", "violations", "checks key", "nan", "inf", "-inf",
                        "-0.0", "1e+300", "IntEnum", "huge int", "non-ASCII",
                        "control character"}

    @pytest.mark.parametrize("value, error", [
        (F(10 ** 4400, 3), ValueError),
        (10 ** 4400, ValueError),
        ({1, 2}, TypeError),
        (object(), TypeError),
        (1j, TypeError),
    ], ids=["fraction-past-digit-limit", "int-past-digit-limit", "set", "object", "complex"])
    def test_refusals_match_json(self, value, error):
        child = Report("child", True, {"x": 1}, rows=({"bad": value},))
        report = Report("r", False, {"a": F(1, 2)}, checks=(child,))
        with pytest.raises(error) as ours:
            cli.render(report, "json")
        with pytest.raises(error) as theirs:
            _json_oracle(report)
        assert str(ours.value) == str(theirs.value)


# ------------------------------------------------------------ malformed input

# bytes that JSON and the rational syntax give meaning to, plus noise
FUZZ_BYTES = b'0123456789-+/.eE,:[]{}" nultrfa\\\x00\x7f\xc3\xff'


def _mutants(text: str, rng: random.Random, count: int) -> list:
    data = text.encode("utf-8")
    out = []
    for _ in range(count):
        if rng.random() < 0.25:
            out.append(data[:rng.randrange(len(data))])
            continue
        mutant = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            mutant[rng.randrange(len(mutant))] = rng.choice(FUZZ_BYTES)
        out.append(bytes(mutant))
    return out


def test_fuzzed_texts_are_schema_errors(tmp_path, capsys):
    """Truncated and byte-mutated SCHED v1 and CERT v1 texts either parse
    or raise SchemaError; `verify` exits 2 on every one that does not
    parse."""
    rng = random.Random(2)
    instances = list(_golden_instances().values())
    rejected = 0
    for index, mutant in enumerate(m for inst in instances
                                   for m in _mutants(cli.emit_instance(inst), rng, 150)):
        try:
            cli.parse_instance(mutant.decode("utf-8"))
            continue
        except (SchemaError, UnicodeDecodeError):
            rejected += 1
        path = tmp_path / f"mutant{index}.json"
        path.write_bytes(mutant)
        assert cli.main(["verify", str(path)]) == 2, mutant
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert rejected >= 300
    certs = [dualfit.serialize_certificate(build(inst)) for inst in instances
             for build in (lambda inst: dualfit.build_list_certificate(
                               inst, dualfit.list_run(inst)),
                           lambda inst: dualfit.build_online_certificate(inst, 2))]
    rejected = 0
    for mutant in (m for text in certs for m in _mutants(text, rng, 100)):
        try:
            dualfit.parse_certificate(mutant.decode("latin-1"))
        except SchemaError:
            rejected += 1
    assert rejected >= 400


# ------------------------------------------------------- work done once per run

def _count_work(argv: list, monkeypatch) -> Counter:
    """Run one CLI call with the greedy dispatch, the Monte Carlo and the
    deterministic schedule counted wherever a module holds them."""
    counts: Counter = Counter()

    def counted(function, label):
        def wrapper(*args, **kwargs):
            counts[label(*args, **kwargs)] += 1
            return function(*args, **kwargs)
        return wrapper

    wrappers = {
        id(greedy_list._dispatch): counted(
            greedy_list._dispatch, lambda inst, f: "list" if f is None else "online"),
        id(greedy_time.estimate_cost): counted(
            greedy_time.estimate_cost, lambda *a, **k: "estimate_cost"),
        id(greedy_time.deterministic_schedule): counted(
            greedy_time.deterministic_schedule, lambda *a, **k: "deterministic_schedule"),
    }
    for name, module in list(sys.modules.items()):
        if name.startswith("stochsched"):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("argv,expected", [
    (["list"], {"list": 1}),
    (["time", "--samples", "20"],
     {"online": 1, "estimate_cost": 1, "deterministic_schedule": 1}),
    (["time", "--samples", "20", "--mode", "max-proc"],
     {"online": 1, "estimate_cost": 2, "deterministic_schedule": 1}),
    (["verify"], {"list": 1, "online": 1, "deterministic_schedule": 1}),
])
def test_each_subcommand_runs_the_greedy_once(argv, expected, tmp_path, monkeypatch):
    path = tmp_path / "stochastic.json"
    path.write_text(cli.emit_instance(_golden_instances()["stochastic"]))
    assert _count_work([argv[0], str(path), *argv[1:]], monkeypatch) == expected


def test_max_proc_on_point_masses_draws_one_estimate(worked_path, monkeypatch):
    # the per-job bound is exact on point masses and reads no estimate,
    # so no forced-idle one is drawn beside the max-proc one
    argv = ["time", worked_path, "--samples", "20", "--mode", "max-proc"]
    assert _count_work(argv, monkeypatch) == {
        "online": 1, "estimate_cost": 1, "deterministic_schedule": 1}


def test_cached_parser_survives_usage_errors(worked_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["list", worked_path, "--mode", "max-proc"]) == 6
    assert cli.main(["time", worked_path, "--samples", "x"]) == 6
    capsys.readouterr()
    assert cli.main(["time", worked_path, "--samples", "20", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("job,machine,modified_release")


# ------------------------------------------------------- byte-for-byte goldens

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("human", "csv", "json")


def _golden_instances() -> dict:
    """The worked instance plus two seeded release-date ones.  The
    oracle solves the deterministic one and refuses the stochastic one
    (exit 6), so both of its paths are pinned."""
    rng = random.Random(8)
    rows = sorted(((rng.randint(1, 5), rng.randint(0, 4),
                    (rng.randint(1, 4), rng.randint(1, 4))) for _ in range(3)),
                  key=lambda row: row[1])
    return {
        "worked": worked_instance(),
        "stochastic": random_instance(random.Random(5), max_machines=2, max_jobs=3,
                                      releases=True),
        "point": point_instance(2, rows),
    }


def _golden_invocations() -> list:
    calls = []
    for name in _golden_instances():
        for extra in (["list"], ["time", "--samples", "50"], ["lp", "--variant", "P_o"],
                      ["verify"], ["oracle"]):
            calls.extend([extra[0], name, *extra[1:], "--format", fmt] for fmt in FORMATS)
    # max-proc runs the per-job bound on its own forced-idle estimate
    calls.extend(["time", "stochastic", "--mode", "max-proc", "--samples", "50", "--format", fmt]
                 for fmt in FORMATS)
    for extra in (["lowerbound", "3"], ["appendix", "--samples", "20"]):
        calls.extend([*extra, "--format", fmt] for fmt in FORMATS)
    return calls


def _cli_outputs(directory: Path) -> dict:
    """Exit code, stdout and stderr of every golden invocation, keyed by
    its command line with instance names in place of file paths."""
    instances = _golden_instances()
    for name, inst in instances.items():
        (directory / f"{name}.json").write_text(cli.emit_instance(inst))
    outputs = {}
    for args in _golden_invocations():
        argv = [str(directory / f"{a}.json") if a in instances else a for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outputs[" ".join(args)] = {"exit": code, "stdout": out.getvalue(),
                                   "stderr": err.getvalue()}
    return outputs


def test_output_bytes_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _cli_outputs(tmp_path)
    assert list(actual) == list(expected)
    for key, record in expected.items():
        assert actual[key] == record, key


if __name__ == "__main__":
    # rerecord: PYTHONPATH=src python tests/test_cli.py
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        text = json.dumps(_cli_outputs(Path(scratch)), indent=1, ensure_ascii=False)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
