"""Flat key-value configuration: defaults, file loading, object builders.

Every constant not pinned by the calibration tables lives here so runs are
fully described by one human-readable file plus a seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields

import yaml

from .core import EpisodeConfig, FieldError, RewardConfig, has_type_of
from .metrics import CostConfig
from .sarsa import SarsaConfig
from .dqn import DqnConfig
from .workload import (default_phases, default_size_distribution,
                       reduced_paper_model)

DEFAULTS = {
    # workload
    "base_rate": 5.0,  # tasks/second
    "phase_duration": 60.0,  # seconds
    "poisson_window": 5.0,  # seconds
    "mean_service_target": 1.5,  # seconds
    # episode / pool
    "step_duration": 8.0,
    "n_min": 1,
    "n_max": 20,
    "n_init": 4,
    "beta": 2.0,
    "latency_lo": 5.0,
    "latency_hi": 8.0,
    "obs_window": 3,
    "drain_cap": 15,
    "warm_start": True,
    # reward
    "q_target": 0.9,
    "q_queue_target": 40.0,
    "q_idle": 5.0,
    "n_target": 12,
    "w_qos": 10.0,
    "w_backlog": 5.0,
    "w_scale": 0.5,
    "w_eff": 0.5,
    "w_up": 1.0,
    "w_down": 1.0,
    # sarsa
    "sarsa_alpha": 0.1,
    "sarsa_gamma": 0.95,
    "sarsa_trace_decay": 0.9,
    "sarsa_epsilon_start": 1.0,
    "sarsa_epsilon_min": 0.05,
    "sarsa_epsilon_decay": 0.98,
    # dqn
    "dqn_replay_capacity": 75000,
    "dqn_batch_size": 64,
    "dqn_warmup": 1000,
    "dqn_gamma": 0.95,
    "dqn_epsilon_start": 0.8,
    "dqn_epsilon_min": 0.05,
    "dqn_epsilon_decay": 0.97,
    "dqn_tau": 0.01,
    "dqn_learning_rate": 1e-3,
    "dqn_grad_clip": 10.0,
    # cost tariffs
    "cost_c_w": 1.0,
    "cost_c_scale": 0.5,
    "cost_c_sub": 0.6,
    "cost_c_burst": 2.0,
    "cost_n_sub": 10,
}


def load_config(path=None) -> dict:
    """DEFAULTS overlaid with the flat key-value file at ``path``, if any.

    Each loaded value must have the type of its default: an int key takes
    only an integer, a float key an integer or a float, a bool key only a
    bool; a bool is never taken as a number.
    """
    cfg = dict(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: expected a flat key-value mapping")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
        for key, value in loaded.items():
            if not has_type_of(value, DEFAULTS[key]):
                raise ValueError(f"{path}: {key} must be "
                                 f"{type(DEFAULTS[key]).__name__}, "
                                 f"got {value!r}")
        cfg.update(loaded)
    return cfg


class ConfigError(ValueError):
    """A config value a builder rejected; the message starts with its key.
    The command line prefixes the config file's path."""


# the config key named for a rejected field that no key maps to directly
_DERIVED_KEYS = {"scale_up_latency": "latency_lo", "duration": "phase_duration",
                 "window": "poisson_window", "mean_target": "mean_service_target"}


@contextmanager
def _naming_key(prefix: str = ""):
    """Turn a ``FieldError`` into a ``ConfigError`` naming the config key."""
    try:
        yield
    except FieldError as exc:
        key = prefix + exc.field
        if key not in DEFAULTS:
            key = _DERIVED_KEYS.get(exc.field, key)
        raise ConfigError(f"{key}: {exc}") from None


def _build(cls, cfg: dict, prefix: str = "", **derived):
    """``cls`` from the keys ``prefix + field name`` of DEFAULTS, read from
    ``cfg``; fields with no such key come from ``derived`` or their default."""
    with _naming_key(prefix):
        return cls(**{f.name: cfg[prefix + f.name] for f in fields(cls)
                      if prefix + f.name in DEFAULTS}, **derived)


def episode_config(cfg: dict) -> EpisodeConfig:
    with _naming_key():
        phases = default_phases(base_rate=cfg["base_rate"],
                                duration=cfg["phase_duration"],
                                window=cfg["poisson_window"])
    return _build(EpisodeConfig, cfg, phases=phases,
                  scale_up_latency=(cfg["latency_lo"], cfg["latency_hi"]))


def reward_config(cfg: dict) -> RewardConfig:
    return _build(RewardConfig, cfg)


def sarsa_config(cfg: dict) -> SarsaConfig:
    return _build(SarsaConfig, cfg, "sarsa_")


def dqn_config(cfg: dict) -> DqnConfig:
    return _build(DqnConfig, cfg, "dqn_")


def cost_config(cfg: dict) -> CostConfig:
    return _build(CostConfig, cfg, "cost_")


def service_model_and_sizes(cfg: dict):
    """(service-time model, size distribution) from the calibrated defaults."""
    model = reduced_paper_model()
    with _naming_key():
        dist = default_size_distribution(
            model, mean_target=cfg["mean_service_target"])
    return model, dist
