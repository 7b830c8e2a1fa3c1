"""Tests of the benchmark harness itself: `python3 -m pytest -q perfbench`."""
from __future__ import annotations

import json
import sys
import tempfile
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402


# ------------------------------------------------------- percentiles, tail

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1000, 0, -1)]
    assert harness.percentile(values, 50) == 500
    assert harness.percentile(values, 99.9) == 999
    assert harness.percentile(values, 100) == 1000
    assert harness.percentile([7.0], 99.99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize("count, pct, beyond", [
    (19, None, None),   # even the median leaves only 9 above it
    (20, 50.0, 10),
    (99, 50.0, 49),     # p90 of 99 leaves 9
    (100, 90.0, 10),
    (999, 90.0, 99),
    (1000, 99.0, 10),
    (9999, 99.0, 99),
    (10000, 99.9, 10),
    (100000, 99.99, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, pct, beyond):
    assert harness.tail_percentile(count) == pct
    if pct is not None:
        assert harness.beyond(count, pct) == beyond
        ordered = list(range(count))
        cut = harness.percentile(ordered, pct)
        assert len([v for v in ordered if v > cut]) == beyond


# ------------------------------------------------------------------ spans

def test_self_time_subtracts_children_and_counting():
    rec = harness.Recorder()
    # name, start, end, parent, work, count_s
    rec.spans = [
        ["outer", 0.0, 10.0, -1, None, 0.0],
        ["a", 1.0, 4.0, 0, {"n": 2}, 0.0],
        ["b", 5.0, 9.0, 0, None, 0.0],
        ["a", 6.0, 7.0, 2, {"n": 3}, 0.5],  # counted in 0.5 s inside b
    ]
    out = rec.summary()
    assert out["a"] == {"s": 4.0, "self_s": 4.0, "calls": 2, "n": 5}
    assert out["b"]["s"] == 3.5 and out["b"]["self_s"] == 2.5
    assert out["outer"]["s"] == 9.5
    assert out["outer"]["self_s"] == 9.5 - 3.0 - 3.5


def test_wrappers_nest_through_module_attributes_and_unpatch():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner, original_outer = mod.inner, mod.outer
    rec = harness.Recorder()
    rec.patch(mod, "inner", rec.wrap("fake.inner", mod.inner, lambda a, k, r: {"items": a[0]}))
    rec.patch(mod, "outer", rec.wrap("fake.outer", mod.outer))
    assert mod.outer(3) == 8
    assert mod.outer(4) == 10
    rec.unpatch()
    assert mod.inner is original_inner and mod.outer is original_outer
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("fake.outer", -1), ("fake.inner", 0), ("fake.outer", -1), ("fake.inner", 2)]
    out = rec.summary()
    assert out["fake.inner"]["items"] == 7 and out["fake.outer"]["calls"] == 2
    assert 0 <= out["fake.outer"]["self_s"] <= out["fake.outer"]["s"]


def test_install_reaches_every_alias_and_nests_cli_spans():
    import workloads
    from stochsched import cli, core, greedy_list, lp

    original = core.fixed_assignment_cost
    rec = harness.Recorder()
    layers.install(rec)
    try:
        assert greedy_list.fixed_assignment_cost is core.fixed_assignment_cost is not original
        with tempfile.TemporaryDirectory() as workdir:
            (key, verdict), = workloads._cli_items([0], workdir)
            ok, _ = verdict()
    finally:
        rec.unpatch()
    assert ok
    assert core.fixed_assignment_cost is original and lp.solve_lp.__name__ == "solve_lp"
    index = {i: s for i, s in enumerate(rec.spans)}
    chains = set()
    for span in rec.spans:
        names, parent = [span[0]], span[3]
        while parent >= 0:
            names.append(index[parent][0])
            parent = index[parent][3]
        chains.add(tuple(reversed(names)))
    assert ("cli.run", "lp.solve_lp", "simplex.solve_standard") in chains
    assert ("cli.run", "oracle.check_lemma5", "greedy_time.estimate_cost",
            "greedy_time.assign") in chains
    assert cli.render.__name__ == "render"


def test_work_counts_repeat_exactly():
    import workloads

    def counts():
        rec = harness.Recorder()
        with tempfile.TemporaryDirectory() as workdir:
            items = workloads.cli_pipeline(7, workdir)[:3]
            items += workloads.sweep(7, workdir)[:50]
            layers.install(rec)
            try:
                for _, verdict in items:
                    verdict()
            finally:
                rec.unpatch()
        values = layers.layer_values(rec.summary())
        return {k: v for k, v in values.items() if not k.endswith((".s", ".self_s", "_per_s"))}

    first = counts()
    assert first == counts()
    assert first["simplex.solve_standard.cells"] > 0 and first["oracle.det_opt.assignments"] > 0


def test_sweep_verdicts_build_their_own_instances():
    import workloads

    items = workloads.sweep(7, "")[:20]
    rec = harness.Recorder()
    layers.install(rec)
    try:
        for _ in range(2):
            for _, verdict in items:
                assert verdict()[0]
    finally:
        rec.unpatch()
    # a repetition constructs and validates its instance again
    assert rec.summary()["core.Instance"]["calls"] == 2 * len(items)


def test_seed_draws_one_member_from_each_stratum():
    import workloads

    for workload, count in (("sweep", workloads.SWEEP_STOCHASTIC),
                            ("cli-pipeline", workloads.CLI_PASS)):
        prefix = workloads.STRATIFIED[workload]
        order = (workloads.STRATA / f"{workload}.txt").read_text().split()
        rank = {int(key[len(prefix):]): i for i, key in enumerate(order)}
        size = len(order) // count
        picks = workloads._stratified(3, workload, count)
        assert [rank[u] // size for u in picks] == list(range(count))
        assert picks == workloads._stratified(3, workload, count)
        assert picks != workloads._stratified(4, workload, count)
    with pytest.raises(ValueError):
        workloads._stratified(3, "sweep", 30)  # 1,000 members make no 30 equal strata


# ---------------------------------------------------------------- verdicts

def test_digest_mismatch_counts_as_failure():
    tally = harness.Tally({"a": harness.digest("1/2 3"), "b": harness.digest("4")})
    tally.judge("a", lambda: (True, "1/2 3"))
    assert (tally.attempted, tally.failed, tally.failed_share) == (1, 0, 0.0)
    tally.judge("b", lambda: (True, "5"))          # same bound, different bytes
    assert tally.failed == 1 and tally.failed_share == 0.5
    tally.judge("a", lambda: (False, "1/2 3"))     # bound violated
    tally.judge("c", lambda: (True, "x"))          # no golden digest at all
    tally.judge("a", lambda: 1 / 0)                # exception
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.failed_share == 4 / 5


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "cli-pipeline"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
