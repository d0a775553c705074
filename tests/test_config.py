"""Configuration schema: defaults, validation, JSON round trips."""

import json

import pytest

from elastic_ssm.config import (
    DEFAULT_BUDGET_SET,
    RUN_CONFIG_VERSION,
    ModelConfig,
    RunConfig,
    TaskSpec,
    TrainConfig,
)
from elastic_ssm.errors import ConfigError
from elastic_ssm.storage import canonical_json


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.width == 256
        assert cfg.capacity == 32
        assert cfg.budget_set == DEFAULT_BUDGET_SET
        assert cfg.budget_set[-1] == cfg.capacity
        assert cfg.truncation_mode == "masked"
        assert cfg.precision == "float64"

    def test_round_trip(self):
        cfg = ModelConfig(width=8, gate_hidden=4, depth=1, seq_len=32,
                          capacity=8, budget_set=(2, 4, 8))
        doc = json.loads(canonical_json(cfg.to_dict()))
        assert ModelConfig.from_dict(doc) == cfg

    def test_unknown_key_rejected_with_pointer(self):
        with pytest.raises(ConfigError, match="widht"):
            ModelConfig.from_dict({"widht": 8})

    def test_budget_one_rejected(self):
        with pytest.raises(ConfigError, match="budget 1"):
            ModelConfig(seq_len=32, capacity=8, budget_set=(1, 2, 8))

    def test_budget_above_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(seq_len=32, capacity=8, budget_set=(2, 16))

    def test_budgets_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            ModelConfig(seq_len=32, capacity=8, budget_set=(4, 2))
        with pytest.raises(ConfigError, match="increasing"):
            ModelConfig(seq_len=32, capacity=8, budget_set=(2, 2, 4))

    def test_capacity_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(seq_len=16, capacity=32, budget_set=(2,))
        with pytest.raises(ConfigError):
            ModelConfig(seq_len=16, capacity=1, budget_set=(2,))

    def test_enum_fields(self):
        for kwargs in (
            {"norm_kind": "batchnorm"},
            {"head": "cls-token"},
            {"truncation_mode": "renorm"},
            {"precision": "float16"},
        ):
            with pytest.raises(ConfigError):
                ModelConfig(seq_len=32, capacity=8, budget_set=(2, 8), **kwargs)

    def test_removed_gate_input_key_dropped_with_warning(self):
        doc = {"seq_len": 32, "capacity": 8, "budget_set": [2, 8],
               "gate_input": "normalized"}
        with pytest.warns(UserWarning, match="gate_input"):
            cfg = ModelConfig.from_dict(doc)
        assert cfg == ModelConfig(seq_len=32, capacity=8, budget_set=(2, 8))
        assert "gate_input" not in cfg.to_dict()

    def test_removed_gate_input_key_other_value_rejected(self):
        with pytest.raises(ConfigError, match="gate_input"):
            ModelConfig.from_dict({"gate_input": "raw"})
        with pytest.raises(TypeError):
            ModelConfig(gate_input="normalized")

    def test_lists_coerced_to_tuples(self):
        cfg = ModelConfig.from_dict(
            {"seq_len": 32, "capacity": 8, "budget_set": [2, 4, 8]}
        )
        assert cfg.budget_set == (2, 4, 8)


class TestTrainConfig:
    def test_defaults(self):
        t = TrainConfig()
        assert t.lr == 3e-4
        assert t.warmup_frac == 0.05
        assert t.final_lr_frac == 0.10
        assert t.sampler_mode == "uniform-over-budget-set"
        assert t.budget_dropout is True
        assert t.decay_inactive is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta2=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_frac=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(sampler_mode="uniform")
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge")
        with pytest.raises(ConfigError):
            TrainConfig(max_skip_frac=1.5)

    def test_round_trip(self):
        t = TrainConfig(steps=50, batch_size=4, lr=1e-3)
        assert TrainConfig.from_dict(t.to_dict()) == t


class TestTaskSpec:
    def test_byte_lm_requires_corpus(self):
        with pytest.raises(ConfigError, match="corpus"):
            TaskSpec(kind="byte-lm")
        TaskSpec(kind="byte-lm", corpus="/tmp/some.txt")

    def test_kinds(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="mnist")

    def test_rho_bounds(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="lds-regression", rho_max=1.0)


class TestRunConfig:
    def test_nested_round_trip(self):
        run = RunConfig(
            model=ModelConfig(seq_len=32, capacity=8, budget_set=(2, 4, 8),
                              width=8, gate_hidden=4, depth=1),
            train=TrainConfig(steps=10),
            task=TaskSpec(kind="copy"),
        )
        doc = json.loads(canonical_json(run.to_dict()))
        assert RunConfig.from_dict(doc) == run

    def test_version_checked(self):
        with pytest.raises(ConfigError, match="version"):
            RunConfig.from_dict({"version": 999})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="optimzer"):
            RunConfig.from_dict({"optimzer": {}})

    def test_nested_unknown_key_pointer_includes_path(self):
        with pytest.raises(ConfigError, match=r"config\.train.*momntum"):
            RunConfig.from_dict({"train": {"momntum": 0.9}})

    def test_defaults_are_valid(self):
        run = RunConfig()
        assert run.version == RUN_CONFIG_VERSION
        assert run.model.capacity == 32
