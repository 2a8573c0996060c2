"""tools/bench_pairs.py: the verdict on a metric and the checks on a pair,
on synthetic numbers; no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
judge = bench_pairs.judge

BASE = [370.0, 372.0, 374.0, 376.0, 378.0, 380.0, 382.0, 384.0, 386.0, 388.0]


class TestJudge:
    def test_quartiles_and_median_of_each_side(self):
        v = judge(BASE, [b + 20 for b in BASE], "higher", 0.25)
        assert v["base"] == {"q1": 374.5, "median": 379.0, "q3": 383.5}
        assert v["change"]["median"] == 399.0
        assert (v["pairs"], v["wins"], v["losses"]) == (10, 10, 0)

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        # every pair 20/s faster but the last two: 8/10 won is no gain,
        # 9/10 is, though both medians clear the parent's IQR of 9
        nine = [b + 20 for b in BASE[:9]] + [BASE[9] - 1]
        eight = [b + 20 for b in BASE[:8]] + [BASE[8] - 1, BASE[9] - 1]
        assert judge(BASE, nine, "higher", 0.25)["gain"]
        won = judge(BASE, eight, "higher", 0.25)
        assert (won["wins"], won["gain"]) == (8, False)

    def test_ties_count_for_neither_side(self):
        tied = [b + 20 for b in BASE[:9]] + [BASE[9]]
        v = judge(BASE, tied, "higher", 0.25)
        assert (v["wins"], v["losses"], v["gain"]) == (9, 0, True)
        v = judge(BASE, list(BASE), "higher", 0.25)
        assert (v["wins"], v["losses"], v["gain"]) == (0, 0, False)

    def test_gain_needs_a_median_gap_above_the_parent_iqr(self):
        # won 10/10, but the medians differ by 9 against an IQR of 9
        assert not judge(BASE, [b + 9 for b in BASE], "higher", 0.25)["gain"]
        assert judge(BASE, [b + 9.5 for b in BASE], "higher", 0.25)["gain"]

    def test_lower_is_better(self):
        ms = [b / 100 for b in BASE]
        faster = judge(ms, [m - 0.2 for m in ms], "lower", 0.25)
        assert (faster["wins"], faster["gain"]) == (10, True)
        slower = judge(ms, [m + 0.2 for m in ms], "lower", 0.25)
        assert (slower["wins"], slower["losses"], slower["gain"]) == (
            0, 10, False)

    @pytest.mark.parametrize("better, factor, within", [
        ("higher", 0.76, True), ("higher", 0.74, False),
        ("higher", 2.0, True),
        ("lower", 1.24, True), ("lower", 1.26, False), ("lower", 0.5, True)])
    def test_bound_is_a_fraction_of_the_parent_median(self, better, factor,
                                                      within):
        v = judge([100.0] * 4, [100.0 * factor] * 4, better, 0.25)
        assert v["within_bound"] is within

    def test_one_pair_is_its_own_quartiles(self):
        v = judge([1.0], [2.0], "higher", 0.25)
        assert v["base"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
        assert v["wins"] == 1

    def test_gain_needs_ten_pairs(self):
        # nine pairs, all won by far: too few to claim a gain
        nine = judge(BASE[:9], [b + 20 for b in BASE[:9]], "higher", 0.25)
        assert (nine["wins"], nine["gain"]) == (9, False)
        assert judge(BASE, [b + 20 for b in BASE], "higher", 0.25)["gain"]

    @pytest.mark.parametrize("base, change", [([], []), ([1.0], [1.0, 2.0])])
    def test_needs_one_value_per_side_per_pair(self, base, change):
        with pytest.raises(ValueError):
            judge(base, change, "higher", 0.25)


def run(correct=True, failed=0, qos=0.9, digest="abc"):
    return {"correct": correct, "failed": failed, "qos": qos,
            "digest": digest, "metrics": {}}


class TestPairChecks:
    def test_a_clean_pair_has_no_problem(self):
        assert bench_pairs.problems(0, run(), run()) == []

    @pytest.mark.parametrize("change, word", [
        (run(correct=False), "not correct"), (run(failed=2), "failed 2"),
        (run(qos=0.8), "qos differs"), (run(digest="abd"), "digest differs")])
    def test_each_fault_is_named(self, change, word):
        found = bench_pairs.problems(3, run(), change)
        assert len(found) == 1
        assert found[0].startswith("pair 3: ") and word in found[0]

    def test_parse_output_reads_the_last_line_and_the_details(self):
        stdout = "\n".join([
            "perfbench replay seed=5 trace=0 seconds=16",
            "details " + json.dumps({"output_digest": "f4e2", "x": 1}),
            json.dumps({"correct": True, "attempted": 9, "failed": 0,
                        "metrics": {"qos": {"value": 0.5, "unit": "ratio"},
                                    "episodes_per_s": {"value": 400.0,
                                                       "unit": "1/s"}}})])
        assert bench_pairs.parse_output(stdout) == {
            "correct": True, "failed": 0, "qos": 0.5, "digest": "f4e2",
            "metrics": {"qos": 0.5, "episodes_per_s": 400.0}}


RESULT = "\n".join([
    "details " + json.dumps({"output_digest": "f4e2"}),
    json.dumps({"correct": True, "attempted": 9, "failed": 0,
                "metrics": {"qos": {"value": 0.5, "unit": "ratio"}}})])


def test_compiles_both_trees_before_the_first_pair(tmp_path, monkeypatch,
                                                   capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 16,
        "end_to_end": [{"name": "qos", "better": "higher", "bound": 0.25}]}))
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv[1:3], Path(cwd).name))
        return subprocess.CompletedProcess(argv, 0, stdout=RESULT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "replay", "--pairs", "2",
                             "--seed", "1"]) == 0
    compile_all = ["-m", "compileall"]
    assert calls == [
        (compile_all, "base"), (compile_all, "change"),
        (["perfbench/run.py", "--workload"], "base"),
        (["perfbench/run.py", "--workload"], "change"),
        (["perfbench/run.py", "--workload"], "change"),
        (["perfbench/run.py", "--workload"], "base")]
    assert "2 pairs" in capsys.readouterr().out


def test_a_tree_that_does_not_compile_stops_the_run(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 16,
        "end_to_end": []}))

    def fake_run(argv, cwd, **kwargs):
        assert argv[1:3] == ["-m", "compileall"]
        return subprocess.CompletedProcess(argv, 1, stdout="*** Error",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match="compileall exit 1"):
        bench_pairs.main(["--base", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "replay", "--pairs", "1",
                          "--seed", "1"])
