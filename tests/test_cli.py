import io
import json
import random
from fractions import Fraction

import pytest

from stochsched import cli, lp
from stochsched.core import Instance, Job, ProcDist
from stochsched.errors import SchemaError

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
