"""tools/bench_pairs.py: the verdict on a metric and the checks on a pair,
on synthetic numbers; no benchmark runs. One test runs the tool on a stub
benchmark that sleeps, to stop it with SIGTERM."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
judge = bench_pairs.judge

MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
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
            "details " + json.dumps({"output_digest": "f4e2", "x": 1,
                                     "machine": MACHINE}),
            json.dumps({"correct": True, "attempted": 9, "failed": 0,
                        "metrics": {"qos": {"value": 0.5, "unit": "ratio"},
                                    "episodes_per_s": {"value": 400.0,
                                                       "unit": "1/s"}}})])
        assert bench_pairs.parse_output(stdout) == {
            "correct": True, "failed": 0, "qos": 0.5, "digest": "f4e2",
            "metrics": {"qos": 0.5, "episodes_per_s": 400.0},
            "machine": MACHINE}


RESULT = "\n".join([
    "details " + json.dumps({"output_digest": "f4e2", "machine": MACHINE}),
    json.dumps({"correct": True, "attempted": 9, "failed": 0,
                "metrics": {"qos": {"value": 0.5, "unit": "ratio"}}})])


def two_trees(tmp_path):
    """A base and a change tree, each naming its side in ``side.txt``, with
    leftovers a copy must not carry."""
    trees = []
    for side in ("base", "change"):
        tree = tmp_path / side
        (tree / "src" / "__pycache__").mkdir(parents=True)
        (tree / "perfbench" / "out").mkdir(parents=True)
        (tree / "side.txt").write_text(side)
        (tree / "BENCHMARK.json").write_text(json.dumps({
            "command": ["python3", "perfbench/run.py"], "run_seconds": 16,
            "end_to_end": [{"name": "qos", "better": "higher",
                            "bound": 0.25}]}))
        trees.append(tree)
    return trees


def fake_runs(monkeypatch):
    """Stand in for every subprocess; returns the (argv head, side, cwd)
    of each call, the side read from the copy it ran in."""
    calls = []

    def fake_run(argv, cwd, **kwargs):
        cwd = Path(cwd)
        assert not (cwd / "src" / "__pycache__").exists()
        assert not (cwd / "perfbench" / "out").exists()
        assert not (cwd / ".git").exists()
        calls.append((argv[1:3], (cwd / "side.txt").read_text(), cwd))
        return subprocess.CompletedProcess(argv, 0, stdout=RESULT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    return calls


def test_each_run_compiles_a_fresh_copy_of_its_tree(tmp_path, monkeypatch,
                                                     capsys):
    base, change = two_trees(tmp_path)
    calls = fake_runs(monkeypatch)
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "replay", "--seeds", "1-2"]) == 0
    compile_all, bench = ["-m", "compileall"], ["perfbench/run.py",
                                                "--workload"]
    assert [call[:2] for call in calls] == [
        (compile_all, "base"), (bench, "base"),
        (compile_all, "change"), (bench, "change"),
        (compile_all, "change"), (bench, "change"),
        (compile_all, "base"), (bench, "base")]
    cwds = [cwd for _, _, cwd in calls]
    assert cwds[0::2] == cwds[1::2]  # each run where its copy compiled
    for cwd in cwds:
        assert cwd.parent not in (tmp_path, base, change)
        assert set(cwd.name) == {"t"}
        assert 1 <= len(cwd.name) <= bench_pairs.MAX_PAD
        assert not cwd.exists()  # deleted after its run
    assert "2 pairs" in capsys.readouterr().out


def test_aa_runs_the_base_against_a_copy_of_itself(tmp_path, monkeypatch,
                                                   capsys):
    base, _ = two_trees(tmp_path)
    calls = fake_runs(monkeypatch)
    out = tmp_path / "aa.json"
    assert bench_pairs.main(["--base", str(base), "--aa", "--workload",
                             "replay", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    assert {side for _, side, _ in calls} == {"base"} and len(calls) == 8
    printed = capsys.readouterr().out
    assert "2 A/A pairs" in printed
    assert ("A/A floor qos: median gap +0.00%, base IQR 0.00% of the base"
            " median") in printed
    written = json.loads(out.read_text())
    replay = written["workloads"]["replay"]
    assert written["aa"] and replay["aa_floor"] == {
        "qos": {"gap": 0.0, "iqr": 0.0}}
    # every run keeps the machine block of its details line
    assert [(pair["first"], pair["base"]["machine"], pair["change"]["machine"])
            for pair in replay["pairs"]] == [("base", MACHINE, MACHINE),
                                             ("change", MACHINE, MACHINE)]


BASE_SHA = "a" * 40
CHANGE_SHA = "b" * 40


def fake_git(tree, sha, packed):
    """A ``.git`` in ``tree`` whose HEAD is branch main at ``sha``, kept as
    a loose ref file or as a line of ``packed-refs``."""
    git = tree / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    if packed:
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'9' * 40} refs/heads/other\n{sha} refs/heads/main\n")
    else:
        (git / "refs" / "heads" / "main").write_text(sha + "\n")


@pytest.mark.parametrize("packed", [False, True])
def test_git_sha_reads_head_through_its_ref(tmp_path, packed):
    fake_git(tmp_path, BASE_SHA, packed)
    assert bench_pairs.git_sha(tmp_path) == BASE_SHA


def test_git_sha_reads_a_detached_head_and_no_checkout(tmp_path):
    assert bench_pairs.git_sha(tmp_path) == "unknown"
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text(CHANGE_SHA + "\n")
    assert bench_pairs.git_sha(tmp_path) == CHANGE_SHA


def test_out_records_the_commit_of_each_side(tmp_path, monkeypatch):
    # copies leave .git out, so each commit is read before any copy
    base, change = two_trees(tmp_path)
    fake_git(base, BASE_SHA, packed=True)
    fake_git(change, CHANGE_SHA, packed=False)
    fake_runs(monkeypatch)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "replay", "--seeds", "1-1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["commits"] == {
        "base": BASE_SHA, "change": CHANGE_SHA}


def test_out_tells_apart_two_trees_at_one_commit(tmp_path, monkeypatch):
    # a side run from a checkout with uncommitted edits names its HEAD, so
    # only the digest of its files shows that the two sides differ
    base, change = two_trees(tmp_path)
    for tree in (base, change):
        fake_git(tree, BASE_SHA, packed=False)
        (tree / "src" / "sim.py").write_text("a = 1\n")
    (change / "src" / "sim.py").write_text("a = 2\n")
    fake_runs(monkeypatch)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "replay", "--seeds", "1-1", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["commits"] == {"base": BASE_SHA, "change": BASE_SHA}
    digests = written["tree_sha256"]
    assert digests == {side: bench_pairs.tree_digest(tree)
                       for side, tree in (("base", base), ("change", change))}
    assert digests["base"] != digests["change"]
    assert all(len(d) == 64 for d in digests.values())


def test_tree_digest_covers_what_a_copy_carries(tmp_path):
    base, change = two_trees(tmp_path)
    (change / "side.txt").write_text("base")  # now a byte copy of base
    assert bench_pairs.tree_digest(base) == bench_pairs.tree_digest(change)
    # leftovers a copy leaves out do not count, .git included
    fake_git(change, CHANGE_SHA, packed=False)
    (change / "src" / "__pycache__" / "sim.pyc").write_bytes(b"\0")
    (change / "perfbench" / "out" / "run.json").write_text("{}")
    assert bench_pairs.tree_digest(base) == bench_pairs.tree_digest(change)
    # a file's path counts, not only its bytes
    (change / "side.txt").rename(change / "src" / "side.txt")
    assert bench_pairs.tree_digest(base) != bench_pairs.tree_digest(change)


def test_aa_floor_is_a_share_of_the_base_median():
    floor = bench_pairs.aa_floor(judge(BASE, [b * 0.95 for b in BASE],
                                       "higher", 0.25))
    assert floor["gap"] == pytest.approx(-0.05)
    assert floor["iqr"] == pytest.approx(9.0 / 379.0)


@pytest.mark.parametrize("argv", [[], ["--change", "x", "--aa"]])
def test_needs_exactly_one_of_change_and_aa(argv, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--base", "b", "--workload", "replay",
                                "--seeds", "1-1", *argv])
    assert "--change" in capsys.readouterr().err


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
                          "--workload", "replay", "--seeds", "1-1"])


def parsed(*argv):
    return bench_pairs.parse_args(["--base", "b", "--change", "c",
                                   "--workload", "replay", *argv])


@pytest.mark.parametrize("argv, seeds", [
    (["--seeds", "3-7"], [3, 4, 5, 6, 7]),
    (["--seeds", "0-0"], [0]),
])
def test_seeds_name_one_seed_per_pair(argv, seeds):
    assert list(parsed(*argv).seeds) == seeds


@pytest.mark.parametrize("argv, message", [
    (["--seeds", "7-3"], "need A-B with 0 <= A <= B"),
    (["--seeds", "3"], "need A-B"),
    (["--seeds=-1-3"], "need A-B"),
    (["--seeds", "a-b"], "need A-B"),
    ([], "the following arguments are required: --seeds"),
])
def test_bad_seeds_are_refused(argv, message, capsys):
    with pytest.raises(SystemExit):
        parsed(*argv)
    assert message in capsys.readouterr().err


def test_out_records_each_pairs_seed(tmp_path, monkeypatch, capsys):
    base, change = two_trees(tmp_path)
    seeds = []

    def fake_run(argv, cwd, **kwargs):
        if "--seed" in argv:
            seeds.append(int(argv[argv.index("--seed") + 1]))
        return subprocess.CompletedProcess(argv, 0, stdout=RESULT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "replay", "--seeds", "4-6",
                             "--out", str(out)]) == 0
    assert seeds == [4, 4, 5, 5, 6, 6]  # both sides of a pair at its seed
    written = json.loads(out.read_text())
    assert [pair["seed"] for pair in written["workloads"]["replay"]["pairs"]
            ] == [4, 5, 6]
    assert written["seeds"] == "4-6"
    assert "3 pairs at --seeds 4-6" in capsys.readouterr().out


def test_a_workload_list_runs_each_workload_s_pairs_in_turn(
        tmp_path, monkeypatch, capsys):
    base, change = two_trees(tmp_path)
    calls = fake_runs(monkeypatch)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "compare,replay,train_dqn",
                             "--seeds", "4-5", "--out", str(out)]) == 0
    # each workload's two pairs, the first side alternating, on fresh copies
    benched = [(argv, side, cwd) for argv, side, cwd in calls
               if argv == ["perfbench/run.py", "--workload"]]
    assert [side for _, side, _ in benched] == [
        "base", "change", "change", "base"] * 3
    assert all(not cwd.exists() for _, _, cwd in calls)
    printed = capsys.readouterr().out
    for workload in ("compare", "replay", "train_dqn"):
        assert f"{workload}, 2 pairs at --seeds 4-5" in printed
    written = json.loads(out.read_text())
    assert list(written["workloads"]) == ["compare", "replay", "train_dqn"]
    for result in written["workloads"].values():
        assert [(pair["first"], pair["seed"]) for pair in result["pairs"]
                ] == [("base", 4), ("change", 5)]
        assert result["verdicts"]["qos"]["pairs"] == 2
        assert result["problems"] == []
    assert written["seeds"] == "4-5"


def test_a_workload_list_names_each_run_s_workload(tmp_path, monkeypatch,
                                                   capsys):
    # the change side of compare gives another digest: the run fails, and
    # the problem names its workload
    base, change = two_trees(tmp_path)
    workloads = []

    def fake_run(argv, cwd, **kwargs):
        stdout = RESULT
        if "--workload" in argv:
            workloads.append(argv[argv.index("--workload") + 1])
            if (workloads[-1] == "compare"
                    and (Path(cwd) / "side.txt").read_text() == "change"):
                stdout = RESULT.replace("f4e2", "f4e3")
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "train_sarsa,compare",
                             "--seeds", "1-2", "--out", str(out)]) == 1
    assert workloads == ["train_sarsa"] * 4 + ["compare"] * 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"compare pair {i}: digest differs: base 'f4e2', change"
                   f" 'f4e3'" for i in range(2)]
    written = json.loads(out.read_text())["workloads"]
    assert written["train_sarsa"]["problems"] == []
    assert len(written["compare"]["problems"]) == 2


@pytest.mark.parametrize("text", ["replay,", ",replay", "replay,,compare",
                                  "replay,replay", ""])
def test_bad_workload_lists_are_refused(text, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--base", "b", "--change", "c",
                                "--workload", text, "--seeds", "1-1"])
    assert "need distinct comma-separated workloads" in (
        capsys.readouterr().err)


# a stub benchmark command: it writes its PID to the file named by its first
# argument, whole or not at all, then sleeps
SLEEPER = ("import os, sys, time\n"
           "part = sys.argv[1] + '.part'\n"
           "with open(part, 'w') as fh:\n"
           "    fh.write(str(os.getpid()))\n"
           "os.replace(part, sys.argv[1])\n"
           "time.sleep(120)\n")


def is_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_run_and_removes_its_copies(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    pid_file = tmp_path / "benchmark.pid"
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", SLEEPER, str(pid_file)],
        "run_seconds": 16, "end_to_end": []}))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         "--base", str(tree), "--aa", "--workload", "w", "--seeds", "0-0"],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pid = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert proc.poll() is None, "bench_pairs ended before its run"
            assert time.monotonic() < deadline, "the benchmark never started"
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        left_running = is_running(pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if pid is not None and is_running(pid):
            os.kill(pid, signal.SIGKILL)
    assert code == 128 + signal.SIGTERM
    assert not left_running
    assert list(tmp_path.glob("bench_pairs-*")) == []
