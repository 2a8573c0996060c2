"""Flat configuration: load-time type checks and the key-to-field mapping."""

import numpy as np
import pytest
import yaml

from farmscale.cli import main
from farmscale.config import (DEFAULTS, cost_config, dqn_config,
                              episode_config, load_config, reward_config,
                              sarsa_config, service_model_and_sizes)
from farmscale.workload import default_phases


def write_config(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


class TestLoadTypes:
    @pytest.mark.parametrize("text,key", [
        ("dqn_learning_rate: 1e-3\n", "dqn_learning_rate"),  # YAML string
        ("beta: high\n", "beta"),
        ("n_max: 20.7\n", "n_max"),
        ("n_max: 20.0\n", "n_max"),
        ("n_max: true\n", "n_max"),
        ("beta: true\n", "beta"),
        ("warm_start: 1\n", "warm_start"),
        ("warm_start: 'yes'\n", "warm_start"),
        ("drain_cap:\n", "drain_cap"),
    ])
    def test_wrong_type_names_file_and_key(self, tmp_path, text, key):
        path = write_config(tmp_path, text)
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert path in str(err.value)
        assert key in str(err.value)

    def test_accepted_types(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, "dqn_learning_rate: 1.0e-3\nbeta: 3\nn_max: 18\n"
                      "warm_start: false\n"))
        assert cfg["dqn_learning_rate"] == 1e-3
        assert cfg["beta"] == 3
        assert cfg["n_max"] == 18
        assert cfg["warm_start"] is False

    def test_cli_reports_bad_value(self, tmp_path, capsys):
        path = write_config(tmp_path, "beta: high\n")
        assert main(["workload", "--config", path,
                     "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beta" in err


class TestRangeChecks:
    # Unchecked, each fails late or quietly: obs_window 0 divides by zero in
    # the env, a negative drain_cap cuts every episode short, batch_size 0
    # trains on a NaN loss, and batch_size above warmup fails after warm-up
    # inside numpy's sampler.
    # Each error names the config file and the config key, not the field.
    @pytest.mark.parametrize("command,text,key", [
        (["run", "--policy", "reactive-avg"], "obs_window: 0\n", "obs_window"),
        (["run", "--policy", "reactive-avg"], "drain_cap: -100\n",
         "drain_cap"),
        (["train", "--agent", "dqn", "--episodes", "1"],
         "dqn_batch_size: 0\n", "dqn_batch_size"),
        (["train", "--agent", "dqn", "--episodes", "1"],
         "dqn_batch_size: 65\ndqn_warmup: 64\n", "dqn_batch_size"),
        (["train", "--agent", "dqn", "--episodes", "1"], "dqn_gamma: 1.5\n",
         "dqn_gamma"),
        (["train", "--agent", "dqn", "--episodes", "1"],
         "dqn_epsilon_min: 0.9\n", "dqn_epsilon_min"),
        (["train", "--agent", "dqn", "--episodes", "1"],
         "dqn_epsilon_start: 1.5\n", "dqn_epsilon_start"),
        (["train", "--agent", "dqn", "--episodes", "1"],
         "dqn_warmup: 80000\n", "dqn_warmup"),
        (["train", "--agent", "sarsa", "--episodes", "1"],
         "sarsa_gamma: 1.0\n", "sarsa_gamma"),
        (["train", "--agent", "sarsa", "--episodes", "1"],
         "sarsa_alpha: 0.0\n", "sarsa_alpha"),
        (["run", "--policy", "reactive-avg"], "mean_service_target: 0.01\n",
         "mean_service_target"),
        (["run", "--policy", "reactive-avg"], "latency_lo: 9.0\n",
         "latency_lo"),
        (["run", "--policy", "reactive-avg"], "poisson_window: 100.0\n",
         "poisson_window"),
        (["run", "--policy", "reactive-avg"], "phase_duration: 0.0\n",
         "phase_duration"),
        (["run", "--policy", "reactive-avg"], "n_max: 2\n", "n_max"),
        (["run", "--policy", "reactive-avg"], "q_idle: 50.0\n", "q_idle"),
        (["compare", "--policies", "reactive-avg", "--seeds", "0"],
         "cost_c_burst: -1.0\n", "cost_c_burst"),
    ])
    def test_cli_rejects_out_of_range_value(self, tmp_path, capsys, command,
                                            text, key):
        path = write_config(tmp_path, text)
        assert main([*command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key}: "), err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_boundary_values_accepted(self):
        cfg = dict(DEFAULTS, obs_window=1, drain_cap=0, dqn_batch_size=1,
                   dqn_warmup=1)
        ep = episode_config(cfg)
        assert (ep.obs_window, ep.drain_cap) == (1, 0)
        assert dqn_config(cfg).batch_size == 1
        dqn = dqn_config(dict(cfg, dqn_batch_size=64, dqn_warmup=64))
        assert dqn.batch_size == dqn.warmup == 64


# One valid value per key, none equal to its default or to any other value,
# so a key that is dropped or routed to the wrong field shows.
VALUES = {
    "base_rate": 3.0, "phase_duration": 40.0, "poisson_window": 4.0,
    "mean_service_target": 1.25,
    "step_duration": 7.0, "n_min": 2, "n_max": 17, "n_init": 5, "beta": 2.5,
    "latency_lo": 4.5, "latency_hi": 6.5, "obs_window": 6, "drain_cap": 11,
    "warm_start": False,
    "q_target": 0.85, "q_queue_target": 35.0, "q_idle": 3.5, "n_target": 9,
    "w_qos": 10.5, "w_backlog": 5.5, "w_scale": 0.45, "w_eff": 0.55,
    "w_up": 1.1, "w_down": 1.2,
    "sarsa_alpha": 0.15, "sarsa_gamma": 0.93, "sarsa_trace_decay": 0.8,
    "sarsa_epsilon_start": 0.95, "sarsa_epsilon_min": 0.04,
    "sarsa_epsilon_decay": 0.96,
    "dqn_replay_capacity": 5000, "dqn_batch_size": 32, "dqn_warmup": 300,
    "dqn_gamma": 0.91, "dqn_epsilon_start": 0.7, "dqn_epsilon_min": 0.02,
    "dqn_epsilon_decay": 0.99, "dqn_tau": 0.03, "dqn_learning_rate": 0.0005,
    "dqn_grad_clip": 8.0,
    "cost_c_w": 1.3, "cost_c_scale": 0.35, "cost_c_sub": 0.65,
    "cost_c_burst": 2.25, "cost_n_sub": 13,
}

# builder -> {config key: attribute of the built object}
ROUTES = {
    episode_config: {
        "step_duration": "step_duration", "n_min": "n_min", "n_max": "n_max",
        "n_init": "n_init", "beta": "beta", "obs_window": "obs_window",
        "drain_cap": "drain_cap", "warm_start": "warm_start"},
    reward_config: {
        "q_target": "q_target", "q_queue_target": "q_queue_target",
        "q_idle": "q_idle", "n_target": "n_target", "w_qos": "w_qos",
        "w_backlog": "w_backlog", "w_scale": "w_scale", "w_eff": "w_eff",
        "w_up": "w_up", "w_down": "w_down"},
    sarsa_config: {
        "sarsa_alpha": "alpha", "sarsa_gamma": "gamma",
        "sarsa_trace_decay": "trace_decay",
        "sarsa_epsilon_start": "epsilon_start",
        "sarsa_epsilon_min": "epsilon_min",
        "sarsa_epsilon_decay": "epsilon_decay"},
    dqn_config: {
        "dqn_replay_capacity": "replay_capacity",
        "dqn_batch_size": "batch_size", "dqn_warmup": "warmup",
        "dqn_gamma": "gamma", "dqn_epsilon_start": "epsilon_start",
        "dqn_epsilon_min": "epsilon_min", "dqn_epsilon_decay": "epsilon_decay",
        "dqn_tau": "tau", "dqn_learning_rate": "learning_rate",
        "dqn_grad_clip": "grad_clip"},
    cost_config: {
        "cost_c_w": "c_w", "cost_c_scale": "c_scale", "cost_c_sub": "c_sub",
        "cost_c_burst": "c_burst", "cost_n_sub": "n_sub"},
}
DERIVED = {"base_rate", "phase_duration", "poisson_window", "latency_lo",
           "latency_hi", "mean_service_target"}


class TestEveryKeyReachesItsObject:
    @pytest.fixture(scope="class")
    def cfg(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cfg") / "all.yaml"
        path.write_text(yaml.safe_dump(VALUES))
        return load_config(str(path))

    def test_values_cover_defaults_and_are_distinct(self):
        assert set(VALUES) == set(DEFAULTS)
        assert set().union(*ROUTES.values()) | DERIVED == set(DEFAULTS)
        assert len(set(VALUES.values())) == len(VALUES)
        assert all(VALUES[k] != DEFAULTS[k] for k in DEFAULTS)

    @pytest.mark.parametrize("builder", list(ROUTES), ids=lambda b: b.__name__)
    def test_direct_keys(self, cfg, builder):
        built = builder(cfg)
        for key, attr in ROUTES[builder].items():
            assert getattr(built, attr) == VALUES[key], key

    def test_derived_keys(self, cfg):
        ep = episode_config(cfg)
        assert ep.phases == default_phases(base_rate=3.0, duration=40.0,
                                           window=4.0)
        assert all((p.base_rate, p.duration, p.window) == (3.0, 40.0, 4.0)
                   for p in ep.phases)
        assert ep.scale_up_latency == (4.5, 6.5)
        model, dist = service_model_and_sizes(cfg)
        times = np.array([model.predict(s) for s in dist.sizes])
        assert float(np.dot(dist.weights, times)) == pytest.approx(1.25)
