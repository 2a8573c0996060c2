"""End-to-end tests of the command-line harness via main()."""

import json
import re

import numpy as np
import pytest
import yaml

from farmscale.cli import main
from farmscale.core import read_step_csv
from farmscale.dqn import DqnAgent
from farmscale.sarsa import SarsaAgent
from farmscale.training import CURVE_COLUMNS
from farmscale.workload import read_workload_csv


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


def test_workload_writes_csv(tmp_path, tiny_config, capsys):
    out = tmp_path / "tasks.csv"
    assert main(["workload", "--config", tiny_config,
                 "--seed", "3", "--out", str(out)]) == 0
    tasks = read_workload_csv(out)
    assert len(tasks) > 0
    assert tasks == sorted(tasks, key=lambda t: t.arrival_time)
    assert f"total: {len(tasks)} tasks" in capsys.readouterr().out


def test_run_reactive_writes_artifacts(tmp_path, tiny_config):
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--policy", "reactive-avg",
                 "--seed", "1", "--out", str(out)]) == 0
    steps = read_step_csv(out / "steps.csv")
    assert len(steps) > 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["final_qos"] <= 1.0
    assert sum(rec.arrived for rec in steps) == summary["emitted"]
    assert (out / "tasks.csv").exists()


def test_run_unknown_policy_fails(tmp_path, tiny_config, capsys):
    code = main(["run", "--config", tiny_config, "--policy", "oracle",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown policy" in capsys.readouterr().err


def test_run_sarsa_needs_checkpoint(tmp_path, tiny_config, capsys):
    code = main(["run", "--config", tiny_config, "--policy", "sarsa",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


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
    assert header == list(CURVE_COLUMNS)
    assert n_rows == 2

    run_dir = tmp_path / "replay"
    assert main(["run", "--config", tiny_config,
                 "--policy", f"{agent}:{out / ckpt}",
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "summary.json").exists()


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
    SARSA file) went through ``edit``."""
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
    SarsaAgent().save(bad)
    blob = json.loads(bad.read_text())
    edit(blob)
    bad.write_text(json.dumps(blob))
    return bad


@pytest.mark.parametrize("agent, edit, message", [
    ("dqn", lambda m: m["config"].update(momentum=0.9),
     "config has unknown key 'momentum'"),
    ("dqn", lambda m: m.pop("epsilon"), "meta has no 'epsilon'"),
    ("dqn", lambda m: m.pop("layer_sizes"), "meta has no 'layer_sizes'"),
    ("dqn", lambda m: m.pop("config"), "meta has no 'config'"),
    ("dqn", lambda m: m.update(layer_sizes=[]),
     r"layer_sizes \[\] must end in 3, one value per action"),
    ("dqn", lambda m: m["config"].update(tau=0.0),
     r"config: tau must lie in \(0, 1\]"),
    ("sarsa", lambda b: b.pop("qtable"), "checkpoint has no 'qtable'"),
    ("sarsa", lambda b: b.pop("edges"), "checkpoint has no 'edges'"),
    ("sarsa", lambda b: b["config"].update(momentum=0.9),
     "config has unknown key 'momentum'"),
    ("sarsa", lambda b: b["config"].update(alpha=0.0),
     r"config: alpha must lie in \(0, 1\]"),
    ("sarsa", lambda b: b["config"].update(alpha="high"),
     "config 'alpha' must be float, got 'high'"),
    ("dqn", lambda m: m["config"].update(batch_size=8.5),
     "config 'batch_size' must be int, got 8.5"),
    ("dqn", lambda m: m["config"].update(reward_clip=100.0),
     "config 'reward_clip' must be tuple, got 100.0"),
], ids=["dqn-config-key", "dqn-no-epsilon", "dqn-no-layer-sizes",
        "dqn-no-config", "dqn-empty-layer-sizes", "dqn-config-value",
        "sarsa-no-qtable", "sarsa-no-edges", "sarsa-config-key",
        "sarsa-config-value", "sarsa-config-type", "dqn-config-type",
        "dqn-reward-clip-type"])
def test_run_rejects_malformed_checkpoint(tmp_path, tiny_config, capsys,
                                          agent, edit, message):
    bad = _edited_checkpoint(tmp_path, agent, edit)
    assert main(["run", "--config", tiny_config, "--policy", f"{agent}:{bad}",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(bad))}: {message}\n", err)


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
