"""End-to-end tests of the command-line harness via main()."""

import collections
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import farmscale
from farmscale import cli, config as cfgmod
from farmscale.cli import build_parser, main
from farmscale.core import TaskSpec
from farmscale.dqn import DqnAgent
from farmscale.sarsa import SarsaAgent, SarsaConfig, default_discretizer
from farmscale.workload import build_episode_workload, phase_order


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    """A flat config file for fast episodes: 6-second phases, small pool."""
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    overrides = {
        "base_rate": 2.0,
        "phase_duration": 6.0,
        "poisson_window": 2.0,
        "step_duration": 2.0,
        "n_max": 6,
        "n_init": 2,
        "drain_cap": 10,
        "dqn_warmup": 16,
        "dqn_batch_size": 8,
    }
    path.write_text(yaml.safe_dump(overrides))
    return str(path)


def test_calibrate_builtin_samples(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["reduced"]["a"] == pytest.approx(1.7101e-07, rel=1e-2)
    assert report["reduced"]["c"] == pytest.approx(1.665e-03, rel=1e-2)
    assert report["delta_rss"] > 0
    stdout = capsys.readouterr().out
    assert "reduced:" in stdout and "delta_rss=" in stdout


def test_calibrate_custom_samples(tmp_path):
    src = tmp_path / "samples.csv"
    # perfect quadratic through the origin: t = 2e-7 x^2
    src.write_text("size,mean_time\n" + "".join(
        f"{x},{2e-7 * x * x}\n" for x in (512, 1024, 2048, 4096)))
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--samples", str(src), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["full"]["a"] == pytest.approx(2e-7, rel=1e-6)
    assert abs(report["full"]["b"]) < 1e-12


def test_calibrate_rejects_malformed_samples(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("512,not-a-number\n")
    assert main(["calibrate", "--samples", str(src)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_calibrate_fit_error_names_the_file(tmp_path, capsys):
    src = tmp_path / "three.csv"
    src.write_text("512,0.04\n1024,0.17\n2048,0.74\n")
    assert main(["calibrate", "--samples", str(src)]) == 1
    assert capsys.readouterr().err == (
        f"error: {src}: full fit needs >= 4 distinct sizes, got 3\n")


def test_calibrate_rejects_a_row_with_extra_values(tmp_path, capsys):
    src = tmp_path / "wide.csv"
    src.write_text("size,mean_time\n1024,0.2\n512,0.04,9\n")
    assert main(["calibrate", "--samples", str(src)]) == 1
    assert capsys.readouterr().err == (
        f"error: {src}:3: expected 'size,mean_time'\n")


# a NaN or infinite time used to fit to a=nan with R2=1 and exit 0, and a
# negative size was taken as given
@pytest.mark.parametrize("row", ["512,nan", "512,inf", "512,-inf", "nan,0.1",
                                 "-512,0.1", "0,0.1", "512,0", "512,-0.1"])
def test_calibrate_rejects_non_finite_or_non_positive_sample(tmp_path, capsys,
                                                             row):
    src = tmp_path / "bad.csv"
    src.write_text(f"size,mean_time\n1024,0.2\n{row}\n")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--samples", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {src}:3: size and mean_time must be finite and positive, "
        f"got {row}\n")
    assert not out.exists()


def test_workload_writes_csv(tmp_path, tiny_config, capsys):
    out = tmp_path / "tasks.csv"
    assert main(["workload", "--config", tiny_config,
                 "--seed", "3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        tasks = list(csv.DictReader(fh))
    assert len(tasks) > 0
    assert [int(t["task_id"]) for t in tasks] == list(range(len(tasks)))
    arrivals = [float(t["arrival_time"]) for t in tasks]
    assert arrivals == sorted(arrivals)
    counts = collections.Counter(t["phase_index"] for t in tasks)
    assert capsys.readouterr().out == "".join(
        f"phase {p}: {counts[p]} tasks\n" for p in sorted(counts, key=int)
    ) + f"total: {len(tasks)} tasks -> {out}\n"


def test_workload_csv_round_trip(tmp_path, default_workload):
    path = tmp_path / "workload.csv"
    assert main(["workload", "--seed", "0", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(TaskSpec._fields)
    types = (int, float, int, float, float, int)
    back = [TaskSpec._make(convert(v) for convert, v in zip(types, row))
            for row in rows]
    assert back == list(default_workload)


def test_field_order_is_the_csv_column_order(tmp_path):
    # cmd_workload writes each task as the plain tuple of its fields
    assert TaskSpec._fields == (
        "task_id", "arrival_time", "size_px", "service_time", "deadline",
        "phase_index")
    path = tmp_path / "workload.csv"
    cli.write_csv(path, TaskSpec._fields,
                  [TaskSpec(7, 1.25, 1024, 0.18, 0.36, 2)])
    assert path.read_text().splitlines() == [
        ",".join(TaskSpec._fields), "7,1.25,1024,0.18,0.36,2"]


def test_repeated_workload_calls_share_no_options(tmp_path, tiny_config):
    # main reuses one parser per process; a flag given to one call must not
    # reach the next
    assert build_parser() is build_parser()
    shuffled, plain = tmp_path / "shuffled.csv", tmp_path / "plain.csv"
    for out, flags in ((shuffled, ["--shuffle"]), (plain, [])):
        assert main(["workload", "--config", tiny_config, "--seed", "3",
                     *flags, "--out", str(out)]) == 0
    cfg = cfgmod.load_config(tiny_config)
    model, dist = cfgmod.service_model_and_sizes(cfg)
    expected = tmp_path / "expected.csv"
    cli.write_csv(expected, TaskSpec._fields, build_episode_workload(
        cfgmod.episode_config(cfg), dist, model, shuffle_phases=False,
        rng_seed=3))
    assert shuffled.read_bytes() != plain.read_bytes()
    assert plain.read_bytes() == expected.read_bytes()


def test_repeated_train_calls_share_no_options(tmp_path, tiny_config,
                                               monkeypatch):
    seen = []

    def spy(*args, shuffle, **kwargs):
        seen.append(shuffle)
        return train_agent(*args, shuffle=shuffle, **kwargs)

    train_agent = cli.train_agent
    monkeypatch.setattr(cli, "train_agent", spy)
    for flags in (["--no-shuffle"], []):
        assert main(["train", "--config", tiny_config, "--agent", "sarsa",
                     "--episodes", "1", *flags,
                     "--out", str(tmp_path / "sarsa")]) == 0
    assert seen == [False, True]


def test_run_reactive_writes_artifacts(tmp_path, tiny_config):
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--policy", "reactive-avg",
                 "--seed", "1", "--out", str(out)]) == 0
    with open(out / "steps.csv", newline="") as fh:
        steps = list(csv.DictReader(fh))
    assert len(steps) > 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["final_qos"] <= 1.0
    assert sum(int(rec["arrived"]) for rec in steps) == summary["emitted"]
    assert (out / "tasks.csv").exists()


def _spy_logs(monkeypatch) -> list:
    """Make ``cli.run_episode`` keep the log of each episode it runs, and
    return the list it appends them to."""
    logs = []
    run_episode = cli.run_episode

    def spy(env, *args):
        summary = run_episode(env, *args)
        logs.append(env.log)
        return summary

    monkeypatch.setattr(cli, "run_episode", spy)
    return logs


def test_step_csv_round_trip(tmp_path, tiny_config, monkeypatch):
    logs = _spy_logs(monkeypatch)
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--policy", "reactive-avg",
                 "--seed", "1", "--out", str(out)]) == 0
    with open(out / "steps.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(cli.STEP_COLUMNS)
    [log] = logs
    assert len(rows) == len(log.steps) > 0
    assert rows == [[str(v) for v in (s.step, *s.observation, s.action,
                                      s.applied_delta, s.reward, s.arrived,
                                      s.completed, s.hits)]
                    for s in log.steps]


def test_task_csv_has_all_tasks(tmp_path, monkeypatch):
    # the golden "undrained" config ends before the backlog drains, so some
    # tasks have no completion record
    cfg = tmp_path / "undrained.yaml"
    cfg.write_text(yaml.safe_dump({"drain_cap": 0, "n_max": 4, "n_init": 2}))
    logs = _spy_logs(monkeypatch)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--policy", "reactive-avg",
                 "--seed", "3", "--out", str(out)]) == 0
    with open(out / "tasks.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(cli.TASK_COLUMNS)
    [log] = logs
    assert [row[:5] for row in rows] == [[str(v) for v in task[:5]]
                                         for task in log.tasks]
    completed = {i: time for i, time, _ in log.completions}
    assert 0 < len(completed) < len(rows)
    for task_id, arrival, _, _, deadline, completion, met in rows:
        if int(task_id) not in completed:
            assert (completion, met) == ("nan", "0")
            continue
        assert float(completion) == completed[int(task_id)]
        assert met == str(int(float(completion) - float(arrival)
                              <= float(deadline)))
    assert {row[-1] for row in rows if int(row[0]) in completed} == {"0", "1"}


def test_run_writes_numpy_integer_actions_as_ints(tmp_path, tiny_config,
                                                  monkeypatch):
    class NumpyActions:
        def __init__(self):
            self.actions = iter([np.int64(1), np.int32(-1)])

        def select_action(self, obs, record):
            return next(self.actions, np.int64(0))

    monkeypatch.setattr(cli, "_make_policy", lambda spec, env: NumpyActions())
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--policy", "numpy",
                 "--out", str(out)]) == 0
    with open(out / "steps.csv", newline="") as fh:
        actions = [row["action"] for row in csv.DictReader(fh)]
    assert actions[:2] == ["1", "-1"]
    assert set(actions[2:]) == {"0"}


def test_shuffled_run_gives_each_phase_the_workers_of_its_slot(tmp_path):
    # seed 0 runs the phases in the order 2, 0, 1, 3; each phase's mean
    # workers must come from the steps of the time slot it ran in
    out = tmp_path / "run"
    assert main(["run", "--policy", "reactive-avg", "--seed", "0",
                 "--shuffle", "--out", str(out)]) == 0
    episode = cfgmod.episode_config(cfgmod.load_config())
    order = phase_order(len(episode.phases), True, 0)
    assert order == [2, 0, 1, 3]
    with open(out / "steps.csv", newline="") as fh:
        steps = list(csv.DictReader(fh))
    in_slot = collections.defaultdict(list)
    for row in steps:
        start = (int(row["step"]) - 1) * episode.step_duration
        slot = int(start // episode.phases[0].duration)
        if slot < len(order):
            in_slot[order[slot]].append(int(row["n_workers"]))
    per_phase = json.loads((out / "summary.json").read_text())["per_phase"]
    assert [p["mean_workers"] for p in per_phase] == [
        float(np.mean(in_slot[p["phase"]])) for p in per_phase]
    assert [round(p["mean_workers"], 2) for p in per_phase] == [
        7.0, 6.5, 7.5, 13.71]


def test_run_unknown_policy_fails(tmp_path, tiny_config, capsys):
    code = main(["run", "--config", tiny_config, "--policy", "oracle",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown policy" in capsys.readouterr().err


def _run_without_checkpoint(tmp_path, tiny_config, capsys, kind):
    code = main(["run", "--config", tiny_config, "--policy", kind,
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {kind} policy needs a checkpoint: {kind}:<path>\n")


def test_run_sarsa_needs_checkpoint(tmp_path, tiny_config, capsys):
    _run_without_checkpoint(tmp_path, tiny_config, capsys, "sarsa")


def test_run_dqn_needs_checkpoint(tmp_path, tiny_config, capsys):
    _run_without_checkpoint(tmp_path, tiny_config, capsys, "dqn")


@pytest.mark.parametrize("agent,ckpt", [("sarsa", "sarsa.json"),
                                        ("dqn", "dqn.npz")])
def test_train_then_run_checkpoint(tmp_path, tiny_config, agent, ckpt):
    out = tmp_path / agent
    assert main(["train", "--config", tiny_config, "--agent", agent,
                 "--episodes", "2", "--seed", "0", "--no-shuffle",
                 "--out", str(out)]) == 0
    assert (out / ckpt).exists()
    with open(out / "training_curve.csv") as fh:
        header = fh.readline().strip().split(",")
        n_rows = sum(1 for _ in fh)
    assert header == list(cli.CURVE_COLUMNS)
    assert n_rows == 2

    run_dir = tmp_path / "replay"
    assert main(["run", "--config", tiny_config,
                 "--policy", f"{agent}:{out / ckpt}",
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "summary.json").exists()


def test_training_curve_csv_columns_and_rows(tmp_path, tiny_config,
                                            monkeypatch):
    records = []
    train_agent = cli.train_agent

    def spy(*args, **kwargs):
        records.extend(train_agent(*args, **kwargs))
        return records

    monkeypatch.setattr(cli, "train_agent", spy)
    out = tmp_path / "sarsa"
    assert main(["train", "--config", tiny_config, "--agent", "sarsa",
                 "--episodes", "3", "--out", str(out)]) == 0
    with open(out / "training_curve.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(cli.CURVE_COLUMNS)
    assert len(rows) == 3
    assert rows == [[str(getattr(r, name)) for name in cli.CURVE_COLUMNS]
                    for r in records]


def test_train_sarsa_bins_workers_up_to_configured_n_max(tmp_path,
                                                        tiny_config):
    cfg = tmp_path / "wide.yaml"
    cfg.write_text(yaml.safe_dump(
        dict(yaml.safe_load(Path(tiny_config).read_text()), n_max=40)))
    out = tmp_path / "sarsa"
    assert main(["train", "--config", str(cfg), "--agent", "sarsa",
                 "--episodes", "1", "--out", str(out)]) == 0
    edges = json.loads((out / "sarsa.json").read_text())["edges"]
    assert edges[4] == list(range(4, 41, 4))


def test_run_rejects_misshapen_dqn_checkpoint(tmp_path, tiny_config, capsys):
    out = tmp_path / "dqn"
    assert main(["train", "--config", tiny_config, "--agent", "dqn",
                 "--episodes", "1", "--out", str(out)]) == 0
    arrays = dict(np.load(out / "dqn.npz"))
    del arrays["b2"]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    capsys.readouterr()
    assert main(["run", "--config", tiny_config, "--policy", f"dqn:{bad}",
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def _edited_checkpoint(tmp_path, agent, edit):
    """A fresh checkpoint whose top-level JSON (DQN ``meta``, or the whole
    SARSA file) went through ``edit``; an ``edit`` given as bytes is the
    whole file instead."""
    if isinstance(edit, bytes):
        bad = tmp_path / ("bad.npz" if agent == "dqn" else "bad.json")
        bad.write_bytes(edit)
        return bad
    if agent == "dqn":
        good = tmp_path / "good.npz"
        DqnAgent(np.zeros(9), np.ones(9)).save(good)
        arrays = dict(np.load(good))
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        return bad
    bad = tmp_path / "bad.json"
    SarsaAgent(SarsaConfig(), default_discretizer(20)).save(bad)
    blob = json.loads(bad.read_text())
    edit(blob)
    bad.write_text(json.dumps(blob))
    return bad


# how a load rejects a retired config entry with a value other than the
# constant that replaced it (a regular expression)
RETIRED_PRUNE = ("config: prune_threshold is a constant now; a checkpoint "
                 "may hold only 0.0001, ")
RETIRED_CLIP = (r"config: reward_clip is a constant now; a checkpoint may "
                r"hold only \[-100.0, 100.0\], ")


@pytest.mark.parametrize("agent, edit, message", [
    ("dqn", lambda m: m["config"].update(momentum=0.9),
     "config has unknown key 'momentum'"),
    ("dqn", lambda m: m.pop("epsilon"), "meta has no 'epsilon'"),
    ("dqn", lambda m: m.pop("config"), "meta has no 'config'"),
    ("dqn", lambda m: m["config"].update(tau=0.0),
     r"config: tau must lie in \(0, 1\]"),
    ("sarsa", lambda b: b.pop("qtable"), "checkpoint has no 'qtable'"),
    ("sarsa", lambda b: b.pop("edges"), "checkpoint has no 'edges'"),
    ("sarsa", lambda b: b["config"].update(momentum=0.9),
     "config has unknown key 'momentum'"),
    ("sarsa", lambda b: b["config"].update(alpha=0.0),
     r"config: alpha must lie in \(0, 1\]"),
    ("sarsa", lambda b: b["config"].update(alpha="high"),
     "config: alpha must be float, got 'high'"),
    ("dqn", lambda m: m["config"].update(batch_size=8.5),
     "config: batch_size must be int, got 8.5"),
    ("dqn", lambda m: m["config"].update(reward_clip=100.0),
     RETIRED_CLIP + "got 100.0"),
    ("sarsa", lambda b: b.update(qtable=5),
     r"qtable must be a list of \[state, values\] pairs, got 5"),
    ("sarsa", lambda b: b["qtable"].append([[0] * 9, [0, 0, "x"]]),
     r"qtable\[0\] must hold integer bins and numeric values, "
     r"got \[\[0, 0, 0, 0, 0, 0, 0, 0, 0\], \[0, 0, 'x'\]\]"),
    ("sarsa", lambda b: b["qtable"].append([[0] * 9]),
     r"qtable\[0\] must be a \[state, values\] pair, "
     r"got \[\[0, 0, 0, 0, 0, 0, 0, 0, 0\]\]"),
    ("sarsa", lambda b: b.update(epsilon="x"),
     r"epsilon must be a number in \[0, 1\], got 'x'"),
    ("dqn", lambda m: m.update(epsilon="x"),
     r"epsilon must be a number in \[0, 1\], got 'x'"),
    ("dqn", lambda m: m.update(epsilon=1.5),
     r"epsilon must be a number in \[0, 1\], got 1.5"),
    # Python's JSON reads NaN and Infinity; a NaN Q value used to load, and
    # the greedy action then picked it, as np.argmax takes NaN as largest
    ("sarsa", lambda b: b["qtable"].append([[0] * 9, [0, float("nan"), 0]]),
     r"qtable\[0\] holds a non-finite value, "
     r"got \[\[0, 0, 0, 0, 0, 0, 0, 0, 0\], \[0, nan, 0\]\]"),
    ("sarsa", lambda b: b["qtable"].append([[0] * 9, [0, 0, -float("inf")]]),
     r"qtable\[0\] holds a non-finite value, "
     r"got \[\[0, 0, 0, 0, 0, 0, 0, 0, 0\], \[0, 0, -inf\]\]"),
    ("sarsa", lambda b: b["qtable"].append([[0] * 9, [0, 10 ** 400, 0]]),
     r"qtable\[0\] holds a non-finite value, "
     rf"got \[\[0, 0, 0, 0, 0, 0, 0, 0, 0\], \[0, {10 ** 400}, 0\]\]"),
    ("sarsa", lambda b: b["edges"].__setitem__(0, [1, 10 ** 400]),
     r"'edges': edges of q_in must be a strictly ascending tuple of numbers, "
     rf"got \(1, {10 ** 400}\)"),
    # files that are not checkpoints at all used to escape as a traceback
    # or to print a reason that named no file
    ("dqn", b"PK\x03\x04garbage", "File is not a zip file"),
    ("dqn", b"", "File is not a zip file"),
    ("dqn", b"size,mean_time\n512,0.05\n", "File is not a zip file"),
    ("sarsa", b"size,mean_time\n", r"Expecting value: line 1 column 1 \(char 0\)"),
    ("sarsa", b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                        "invalid start byte"),
    # Python's JSON reads NaN and Infinity; these used to load, as a NaN
    # comparison passed every range check. The trace-pruning cutoff and the
    # reward clip are constants now, and a checkpoint may still hold them,
    # with the constant's value only
    ("sarsa", lambda b: b["config"].update(prune_threshold=float("nan")),
     RETIRED_PRUNE + "got nan"),
    ("sarsa", lambda b: b["config"].update(prune_threshold=float("inf")),
     RETIRED_PRUNE + "got inf"),
    ("sarsa", lambda b: b["config"].update(prune_threshold=-1e-4),
     RETIRED_PRUNE + "got -0.0001"),
    ("sarsa", lambda b: b["config"].update(epsilon_start=float("nan")),
     "config: epsilon_start must be a finite number, got nan"),
    ("sarsa", lambda b: b["config"].update(epsilon_min=float("nan")),
     "config: epsilon_min must be a finite number, got nan"),
    ("dqn", lambda m: m["config"].update(reward_clip=["a", None]),
     RETIRED_CLIP + r"got \['a', None\]"),
    ("dqn", lambda m: m["config"].update(reward_clip=[5.0]),
     RETIRED_CLIP + r"got \[5.0\]"),
    ("dqn", lambda m: m["config"].update(reward_clip=[float("nan"), 1.0]),
     RETIRED_CLIP + r"got \[nan, 1.0\]"),
    ("dqn", lambda m: m["config"].update(epsilon_min=float("nan")),
     "config: epsilon_min must be a finite number, got nan"),
    ("sarsa", lambda b: b["config"].update(prune_threshold=0.5),
     RETIRED_PRUNE + "got 0.5"),
    ("dqn", lambda m: m["config"].update(reward_clip=[-1, 1]),
     RETIRED_CLIP + r"got \[-1, 1\]"),
    # both savers write version 1, and a loader takes no other
    ("sarsa", lambda b: b.update(version=3), "version must be 1, got 3"),
    ("dqn", lambda m: m.update(version=3), "version must be 1, got 3"),
    ("sarsa", lambda b: b.update(version=True), "version must be 1, got True"),
    ("sarsa", lambda b: b.pop("version"), "checkpoint has no 'version'"),
    ("dqn", lambda m: m.pop("version"), "meta has no 'version'"),
], ids=["dqn-config-key", "dqn-no-epsilon", "dqn-no-config",
        "dqn-config-value",
        "sarsa-no-qtable", "sarsa-no-edges", "sarsa-config-key",
        "sarsa-config-value", "sarsa-config-type", "dqn-config-type",
        "dqn-reward-clip-type", "sarsa-qtable-not-list",
        "sarsa-qtable-string-value", "sarsa-qtable-entry-not-pair",
        "sarsa-epsilon-type", "dqn-epsilon-type", "dqn-epsilon-range",
        "sarsa-qtable-nan-value", "sarsa-qtable-inf-value",
        "sarsa-qtable-int-too-large", "sarsa-edge-int-too-large",
        "dqn-corrupt-zip", "dqn-empty-file", "dqn-text-file",
        "sarsa-not-json", "sarsa-not-utf8", "sarsa-prune-nan",
        "sarsa-prune-inf", "sarsa-prune-negative", "sarsa-epsilon-start-nan",
        "sarsa-epsilon-min-nan", "dqn-reward-clip-not-numbers",
        "dqn-reward-clip-one-number", "dqn-reward-clip-nan",
        "dqn-epsilon-min-nan", "sarsa-prune-other-value",
        "dqn-reward-clip-other-value", "sarsa-version-3", "dqn-version-3",
        "sarsa-version-bool", "sarsa-no-version", "dqn-no-version"])
def test_run_rejects_malformed_checkpoint(tmp_path, tiny_config, capsys,
                                          agent, edit, message):
    bad = _edited_checkpoint(tmp_path, agent, edit)
    assert main(["run", "--config", tiny_config, "--policy", f"{agent}:{bad}",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    sep = f" is not a {agent} checkpoint: " if isinstance(edit, bytes) else ": "
    assert re.fullmatch(f"error: {re.escape(str(bad))}{sep}{message}\n", err)


def test_compare_two_policies(tmp_path, tiny_config, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", tiny_config,
                 "--policies", "reactive-avg,reactive-max",
                 "--seeds", "0,1", "--out", str(out)]) == 0
    with open(out / "comparison.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert header[0] == "policy"
    assert {"final_qos_mean", "cost_paygo_mean", "cost_sub_mean",
            "scaling_actions_std"} <= set(header)
    assert [r[0] for r in rows] == ["reactive-avg", "reactive-max"]
    per_phase = (out / "per_phase.csv").read_text().splitlines()
    # header plus one row per policy per phase
    assert len(per_phase) == 1 + 2 * 4
    assert "reactive-avg:" in capsys.readouterr().out


def test_compare_strips_spaces_around_policy_names(tmp_path, tiny_config):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", tiny_config,
                 "--policies", "reactive-avg, reactive-max ",
                 "--seeds", "0", "--out", str(out)]) == 0
    for name, per_policy in (("comparison.csv", 1), ("per_phase.csv", 4)):
        with open(out / name, newline="") as fh:
            policies = [r["policy"] for r in csv.DictReader(fh)]
        assert policies == (["reactive-avg"] * per_policy
                            + ["reactive-max"] * per_policy), name


# rows used to be named by the spec's kind, so two checkpoints of one kind
# wrote two rows both named "sarsa"
def test_compare_names_checkpoint_rows_by_their_spec(tmp_path, tiny_config,
                                                     capsys):
    specs = []
    for name in ("a.json", "b.json"):
        SarsaAgent(SarsaConfig(), default_discretizer(6)).save(tmp_path / name)
        specs.append(f"sarsa:{tmp_path / name}")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", tiny_config,
                 "--policies", ",".join(specs), "--seeds", "0",
                 "--out", str(out)]) == 0
    for name, per_policy in (("comparison.csv", 1), ("per_phase.csv", 4)):
        with open(out / name, newline="") as fh:
            policies = [r["policy"] for r in csv.DictReader(fh)]
        assert policies == ([specs[0]] * per_policy
                            + [specs[1]] * per_policy), name
    printed = capsys.readouterr().out
    assert all(f"{spec}: qos=" in printed for spec in specs)


# a malformed list used to fail with int()'s own message, and a negative
# seed with numpy's after the out directory was made; neither named the
# flag or the text
@pytest.mark.parametrize("seeds", ["0,x", "", "0,,1", "1.5", "0,-1"])
def test_compare_rejects_malformed_seeds(tmp_path, tiny_config, capsys,
                                         seeds):
    assert main(["compare", "--config", tiny_config,
                 "--policies", "reactive-avg", f"--seeds={seeds}",
                 "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == (
        f"error: --seeds must be comma-separated integers >= 0, "
        f"got {seeds!r}\n")
    assert not (tmp_path / "cmp").exists()


# a negative --seed used to fail inside numpy with "expected non-negative
# integer", naming neither the flag nor the value
@pytest.mark.parametrize("seed", ["-1", "1,2", "x"])
@pytest.mark.parametrize("command", [
    ["workload"], ["run", "--policy", "reactive-avg"],
    ["train", "--agent", "sarsa", "--episodes", "1"]], ids=lambda c: c[0])
def test_rejects_malformed_seed(tmp_path, tiny_config, capsys, command, seed):
    out = tmp_path / "out"
    assert main([*command, "--config", tiny_config, f"--seed={seed}",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --seed must be an integer >= 0, got {seed!r}\n")
    assert not out.exists()


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("warp_drive: 9\n")
    assert main(["workload", "--config", str(cfg),
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert main(["workload", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_output_headers_are_pinned(tmp_path, tiny_config):
    def header(path):
        with open(path) as fh:
            return fh.readline().strip().split(",")

    assert main(["workload", "--config", tiny_config,
                 "--out", str(tmp_path / "w.csv")]) == 0
    assert header(tmp_path / "w.csv") == [
        "task_id", "arrival_time", "size_px", "service_time", "deadline",
        "phase_index"]

    assert main(["run", "--config", tiny_config, "--policy", "reactive-max",
                 "--out", str(tmp_path / "run")]) == 0
    assert header(tmp_path / "run" / "steps.csv") == [
        "step", "q_in", "q_work", "q_res", "q_out", "n_workers",
        "t_proc_avg", "t_proc_max", "arrival_rate", "qos_step", "action",
        "applied_delta", "reward", "arrived", "completed", "hits"]
    assert header(tmp_path / "run" / "tasks.csv") == [
        "task_id", "arrival", "size", "service", "deadline", "completion",
        "met"]

    assert main(["train", "--config", tiny_config, "--agent", "sarsa",
                 "--episodes", "1", "--out", str(tmp_path / "train")]) == 0
    assert header(tmp_path / "train" / "training_curve.csv") == [
        "episode", "epsilon", "total_reward", "final_qos", "mean_workers",
        "max_workers", "scaling_actions", "no_ops", "steps"]


def test_cli_import_does_not_load_scipy():
    # numpy and pyyaml are the only runtime dependencies; a fresh interpreter
    # shows whether an import pulls anything else in.
    src = str(Path(farmscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c",
         'import sys, farmscale.cli; assert "scipy" not in sys.modules'],
        env=env, check=True, timeout=60)


def test_pyyaml_loads_only_when_a_config_file_is_read(tmp_path):
    # no benchmark workload and no command without --config parses YAML, so
    # neither the import nor the defaults may pay for PyYAML
    src = str(Path(farmscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "one.yaml"
    path.write_text("beta: 2.5\n")
    subprocess.run(
        [sys.executable, "-c",
         "import sys, farmscale.cli\n"
         "from farmscale.config import DEFAULTS, load_config\n"
         "assert 'yaml' not in sys.modules\n"
         "assert load_config() == DEFAULTS\n"
         "assert 'yaml' not in sys.modules\n"
         "assert load_config(sys.argv[1]) == dict(DEFAULTS, beta=2.5)\n"
         "assert 'yaml' in sys.modules\n",
         str(path)],
        env=env, check=True, timeout=60)
