"""Every scalar field of every config class checks its own type and
finiteness, wherever the value comes from: code, a config file or a
checkpoint. A bool field takes only a bool, an int field an int that is not
a bool, and a float field a finite int or float."""

import dataclasses
import json
import math

import numpy as np
import pytest
import yaml

from farmscale.config import DEFAULTS, load_config
from farmscale.core import EpisodeConfig, FieldError, RewardConfig
from farmscale.dqn import DqnAgent, DqnConfig
from farmscale.metrics import CostConfig
from farmscale.sarsa import (PRUNE_THRESHOLD, SarsaAgent, SarsaConfig,
                             default_discretizer)
from farmscale.workload import WorkloadPhaseSpec, default_phases
from tests.conftest import field_of

CLASSES = (EpisodeConfig, RewardConfig, SarsaConfig, DqnConfig, CostConfig,
           WorkloadPhaseSpec)
# the fields no scalar check covers; each class checks them itself
NON_SCALAR = {"phases", "kind"}
# the fields a class needs besides its defaults
REQUIRED = {EpisodeConfig: {"phases": default_phases()},
            WorkloadPhaseSpec: {"kind": "steady", "base_rate": 5.0,
                                "duration": 60.0}}

nan, inf = math.nan, math.inf
BAD = {"float": (nan, inf, -inf, "x", True),
       "int": (nan, inf, -inf, "x", True, 1.5),
       "bool": (nan, inf, -inf, "x", 1, 1.5)}


def expected(name, kind, value):
    """The message of the check that ``value`` fails for field ``name``."""
    if kind == "float" and type(value) is float:
        return f"{name} must be a finite number, got {value!r}"
    return f"{name} must be {kind}, got {value!r}"


def cases(classes):
    return [pytest.param(cls, f.name, f.type, bad,
                         id=f"{cls.__name__}.{f.name}={bad!r}")
            for cls in classes for f in dataclasses.fields(cls)
            if f.name not in NON_SCALAR for bad in BAD[f.type]]


def test_every_field_is_scalar_or_listed():
    """A field with an annotation the check does not know would go
    unchecked; it must be a bool, int or float, or listed above."""
    names = set()
    for cls in CLASSES:
        for f in dataclasses.fields(cls):
            names.add(f.name)
            assert f.type in BAD or f.name in NON_SCALAR, (cls, f.name)
    assert NON_SCALAR <= names


def test_every_agent_field_is_a_config_key():
    """No agent field can be set in code alone: each is the config key of
    its name under the agent's prefix, with the field's default."""
    for cls, prefix in ((SarsaConfig, "sarsa_"), (DqnConfig, "dqn_")):
        for f in dataclasses.fields(cls):
            assert DEFAULTS.get(prefix + f.name) == f.default, (cls, f.name)


@pytest.mark.parametrize("cls,name,kind,bad", cases(CLASSES))
def test_constructor_rejects(cls, name, kind, bad):
    with pytest.raises(FieldError) as err:
        cls(**{**REQUIRED.get(cls, {}), name: bad})
    assert err.value.field == name
    assert str(err.value) == expected(name, kind, bad)


@pytest.mark.parametrize("key,bad", [
    pytest.param(key, bad, id=f"{key}={bad!r}")
    for key, default in DEFAULTS.items()
    for bad in BAD[type(default).__name__]])
def test_config_file_rejects(tmp_path, key, bad):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({key: bad}))
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    kind = type(DEFAULTS[key]).__name__
    assert str(err.value) == (
        f"{path}: {key}: {expected(field_of(key), kind, bad)}")


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A good checkpoint of each agent, and its top-level JSON: the SARSA
    file, or the DQN archive's ``meta``."""
    root = tmp_path_factory.mktemp("ckpt")
    sarsa = root / "sarsa.json"
    SarsaAgent(SarsaConfig(), default_discretizer(20)).save(sarsa)
    dqn = root / "dqn.npz"
    DqnAgent(np.zeros(9), np.ones(9)).save(dqn)
    arrays = dict(np.load(dqn))
    return {SarsaConfig: json.loads(sarsa.read_text()),
            DqnConfig: (arrays, json.loads(str(arrays["meta"])))}


# a config entry that older SARSA checkpoints saved and that is a constant
# now: a checkpoint may still hold it, with the constant's value only
RETIRED = [pytest.param(SarsaConfig, "prune_threshold", "float", bad,
                        id=f"SarsaConfig.prune_threshold={bad!r}")
           for bad in BAD["float"]]


@pytest.mark.parametrize("cls,name,kind,bad",
                         cases((SarsaConfig, DqnConfig)) + RETIRED)
def test_checkpoint_rejects(tmp_path, checkpoints, cls, name, kind, bad):
    if cls is SarsaConfig:
        blob = json.loads(json.dumps(checkpoints[cls]))
        blob["config"][name] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        agent = SarsaAgent
    else:
        arrays, meta = checkpoints[cls]
        meta = json.loads(json.dumps(meta))
        meta["config"][name] = bad
        path = tmp_path / "bad.npz"
        np.savez(path, **dict(arrays, meta=np.array(json.dumps(meta))))
        agent = DqnAgent
    with pytest.raises(ValueError) as err:
        agent.load(path)
    if name == "prune_threshold":
        assert str(err.value) == (
            f"{path}: config: prune_threshold is a constant now; a checkpoint "
            f"may hold only {PRUNE_THRESHOLD!r}, got {bad!r}")
    else:
        assert str(err.value) == (
            f"{path}: config: {expected(name, kind, bad)}")
