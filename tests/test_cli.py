import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from stochsched import cli, lp
from stochsched.core import Instance, Job, ProcDist
from stochsched.errors import SchemaError
from stochsched.report import Report, Violation, jsonable

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
        ('{"format": "SCHED v1", "machines": 0, "jobs": []}', "machines"),
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

    def test_failed_check_is_one(self, tmp_path, capsys):
        # two odd unit jobs at f=2 give a half-integral sped trace, so
        # the exact table identity fails and verify reports it
        path = tmp_path / "odd.json"
        path.write_text(cli.emit_instance(point_instance(1, [(1, 0, (1,)), (1, 0, (1,))])))
        assert cli.main(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

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

    def test_unschedulable_is_three(self, tmp_path):
        path = tmp_path / "unsched.json"
        path.write_text('{"format": "SCHED v1", "machines": 1, "jobs": '
                        '[{"id": 1, "w": "1", "r": 0, "proc": [null]}]}')
        assert cli.main(["list", str(path)]) == 3

    def test_small_horizon_is_four(self, worked_path):
        assert cli.main(["lp", worked_path, "--horizon", "1"]) == 4

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
        assert cli.main(["list", worked_path, "--f", "1e400", "--format", "json"]) == 0
        exact = json.loads(capsys.readouterr().out)["metrics"]["chain_factor"]
        assert "/" in exact
        assert cli.main(["list", worked_path, "--f", "1e400"]) == 0
        assert f"  chain_factor: {exact}" in capsys.readouterr().out.splitlines()

    def test_missing_file_is_six(self):
        assert cli.main(["list", "/nonexistent/nope.json"]) == 6


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
        model = lp.parse_lp(target.read_text())
        assert lp.solve_lp(model).value == 4

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
        payload = jsonable(report)
        assert list(payload) == ["name", "passed", "metrics", "violations", "min_slack"]
        assert list(payload["metrics"]) == ["x", "y", "checks", "rows"]
        assert payload["metrics"]["checks"][0]["violations"] == [
            {"constraint": "c", "lhs": "2", "rhs": "1", "slack": "-1"}]
        assert payload["metrics"]["rows"] == [{"k": 1, "v": "1/3"}]

    def test_json_omits_empty_checks_and_rows(self):
        assert jsonable(Report("r", True, {"x": 1}))["metrics"] == {"x": 1}


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
