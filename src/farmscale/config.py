"""Flat key-value configuration: defaults, file loading, object builders.

A run is fully described by one human-readable file plus a seed. Each
default has one home, the field of its config class or the workload
constant it belongs to; ``DEFAULTS`` gathers them under their config keys.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields

from .core import EpisodeConfig, FieldError, RewardConfig
from .metrics import CostConfig
from .sarsa import SarsaConfig
from .dqn import DqnConfig
from .workload import (BASE_RATE, MEAN_SERVICE_TARGET, PHASE_DURATION,
                       POISSON_WINDOW, default_phases,
                       default_size_distribution, reduced_paper_model)

# Each config class and its key prefix. Every field with a bool, int or
# float default is the config key ``prefix + field name`` with that default;
# the phases are not a key.
_PREFIXES = {EpisodeConfig: "", RewardConfig: "", SarsaConfig: "sarsa_",
             DqnConfig: "dqn_", CostConfig: "cost_"}


def _keyed_fields(cls) -> list:
    """(config key, field) of each field of ``cls`` that has a key."""
    return [(_PREFIXES[cls] + f.name, f) for f in fields(cls)
            if type(f.default) in (bool, int, float)]


DEFAULTS = {
    # workload: the default phases and the size mix
    "base_rate": BASE_RATE,
    "phase_duration": PHASE_DURATION,
    "poisson_window": POISSON_WINDOW,
    "mean_service_target": MEAN_SERVICE_TARGET,
    **{key: f.default for cls in _PREFIXES for key, f in _keyed_fields(cls)},
}


def load_config(path=None) -> dict:
    """DEFAULTS overlaid with the flat key-value file at ``path``, if any.

    Every config object is built once from the result, so a value the
    objects reject raises ``ConfigError`` here, naming ``path`` and the
    key, whichever objects the command goes on to use. The objects check
    each value's type (``core.check_fields``: an int key takes only an
    integer, a float key a finite number, a bool key only a bool) and then
    its range.
    """
    cfg = dict(DEFAULTS)
    if path is not None:
        import yaml  # only a process that reads a config file loads PyYAML
        with open(path) as fh:
            try:
                loaded = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: not valid YAML: "
                                 f"{' '.join(str(exc).split())}") from None
        if loaded is None:  # an empty or comment-only file: no overrides
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: expected a flat key-value mapping")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:  # YAML keys need not be strings, so sort by their text
            raise ValueError(f"{path}: unknown keys "
                             f"{sorted(unknown, key=str)}")
        cfg.update(loaded)
        try:
            for build in (episode_config, reward_config, sarsa_config,
                          dqn_config, cost_config, service_model_and_sizes):
                build(cfg)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return cfg


class ConfigError(ValueError):
    """A config value a builder rejected; the message starts with its key,
    which ``load_config`` prefixes with the config file's path."""


# the config key named for a rejected field that no key maps to directly
_DERIVED_KEYS = {"duration": "phase_duration", "window": "poisson_window",
                 "mean_target": "mean_service_target"}


@contextmanager
def _naming_key(prefix: str = ""):
    """Turn a ``FieldError`` into a ``ConfigError`` naming the config key."""
    try:
        yield
    except FieldError as exc:
        key = _DERIVED_KEYS.get(exc.field, prefix + exc.field)
        raise ConfigError(f"{key}: {exc}") from None


def _build(cls, cfg: dict, **derived):
    """``cls`` with each keyed field read from ``cfg``; the other fields come
    from ``derived`` or their default."""
    with _naming_key(_PREFIXES[cls]):
        return cls(**{f.name: cfg[key] for key, f in _keyed_fields(cls)},
                   **derived)


def episode_config(cfg: dict) -> EpisodeConfig:
    with _naming_key():
        phases = default_phases(base_rate=cfg["base_rate"],
                                duration=cfg["phase_duration"],
                                window=cfg["poisson_window"])
    return _build(EpisodeConfig, cfg, phases=phases)


def reward_config(cfg: dict) -> RewardConfig:
    return _build(RewardConfig, cfg)


def sarsa_config(cfg: dict) -> SarsaConfig:
    return _build(SarsaConfig, cfg)


def dqn_config(cfg: dict) -> DqnConfig:
    return _build(DqnConfig, cfg)


def cost_config(cfg: dict) -> CostConfig:
    return _build(CostConfig, cfg)


def service_model_and_sizes(cfg: dict):
    """(service-time model, size distribution) from the calibrated defaults."""
    model = reduced_paper_model()
    with _naming_key():
        dist = default_size_distribution(
            model, mean_target=cfg["mean_service_target"])
    return model, dist
