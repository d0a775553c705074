"""Configuration schema: defaults, validation, JSON round trips."""

import ast
import dataclasses
import json
import pathlib

import numpy as np
import pytest

from elastic_ssm.config import (
    DEFAULT_BUDGET_SET,
    RUN_CONFIG_VERSION,
    ModelConfig,
    Paths,
    RunConfig,
    TaskSpec,
    TrainConfig,
    check_budgets,
)
from elastic_ssm.errors import BudgetError, ConfigError
from elastic_ssm.layer import LayerCache
from elastic_ssm.model import ModelCache
from elastic_ssm.storage import canonical_json
from elastic_ssm.tasks import Dataset, SyntheticLDS
from elastic_ssm.training import run_training


class TestCheckBudgets:
    def test_legal_budgets_returned_as_ints(self):
        assert check_budgets([2, 5, 8], 8) == (2, 5, 8)
        got = check_budgets(np.array([2, 8]), 8)
        assert got == (2, 8) and all(type(k) is int for k in got)
        assert check_budgets((np.int32(3),), 4) == (3,)

    def test_empty_list_rejected(self):
        with pytest.raises(BudgetError, match="empty"):
            check_budgets((), 8)

    def test_budget_one_has_its_own_sentence(self):
        with pytest.raises(BudgetError, match=r"budgets \[1\] outside \[2, capacity=8\]; "
                                              "budget 1 is excluded"):
            check_budgets((1, 2), 8)

    def test_out_of_range_rejected(self):
        for bad in ((2, 9), (0, 4), (-2,)):
            with pytest.raises(BudgetError, match="outside") as info:
                check_budgets(bad, 8)
            assert "excluded" not in str(info.value)

    def test_non_integers_rejected(self):
        for bad in ((2.0, 4), ("2",), (2, None)):
            with pytest.raises(BudgetError, match="integers"):
                check_budgets(bad, 8)

    def test_budget_error_is_a_config_error(self):
        assert issubclass(BudgetError, ConfigError)


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
        assert t.budget_dropout is True
        assert len(dataclasses.fields(t)) == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta2=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_frac=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge")
        with pytest.raises(ConfigError):
            TrainConfig(max_skip_frac=1.5)

    def test_round_trip(self):
        t = TrainConfig(steps=50, batch_size=4, lr=1e-3)
        assert TrainConfig.from_dict(t.to_dict()) == t

    def test_removed_keys_dropped_with_one_warning_each(self):
        doc = {**TrainConfig().to_dict(), "sampler_mode": "uniform-over-budget-set",
               "decay_inactive": False}
        with pytest.warns(UserWarning) as record:
            assert TrainConfig.from_dict(doc) == TrainConfig()
        assert sorted(str(w.message) for w in record) == [
            "train: ignoring the removed key 'decay_inactive'",
            "train: ignoring the removed key 'sampler_mode'",
        ]

    def test_removed_keys_are_not_fields(self):
        # their other values are refused in test_training and test_cli
        for key, value in (("sampler_mode", "uniform-over-range"),
                           ("decay_inactive", True)):
            with pytest.raises(TypeError):
                TrainConfig(**{key: value})


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

    def test_run_file_with_removed_keys_loads(self):
        # a config.json as `essm train` wrote it while TrainConfig still had
        # sampler_mode and decay_inactive
        doc = json.loads(canonical_json(RunConfig().to_dict()))
        doc["train"].update(sampler_mode="uniform-over-budget-set", decay_inactive=False)
        with pytest.warns(UserWarning) as record:
            assert RunConfig.from_dict(doc) == RunConfig()
        assert len(record) == 2
        assert all(str(w.message).startswith("config.train: ignoring the removed key")
                   for w in record)

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


ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "elastic_ssm"


def test_every_config_field_is_read_outside_config_py():
    """A field that config.py validates but no other module reads is a knob
    that does nothing, and a dataset, teacher or cache field that no module
    reads is data kept for nobody.  Fields are matched by name against every
    attribute read, whatever its object, so a field passes when a namesake
    on another class is read: ``SyntheticLDS.rho_max`` would pass because
    ``TaskSpec.rho_max`` is read."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "config.py":
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for cls in (ModelConfig, TrainConfig, TaskSpec, Paths,
                Dataset, SyntheticLDS, LayerCache, ModelCache):
        unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
        assert not unread, f"{cls.__name__} fields never read: {unread}"


def test_every_run_training_key_is_read_outside_tests():
    """A key of run_training's summary that no module reads only keeps its
    value alive for nobody.  A key counts as read when some module under
    src/, demos/ or perfbench/ (tests aside) subscripts with it as a string
    constant, whatever the subscripted object."""
    read = set()
    for top in ("src", "demos", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                read |= {node.slice.value for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Subscript)
                         and isinstance(node.slice, ast.Constant)
                         and isinstance(node.slice.value, str)}
    run = RunConfig(
        model=ModelConfig(seq_len=8, width=4, gate_hidden=4, capacity=2, depth=1,
                          input_kind="tokens", vocab_size=4, out_dim=4, budget_set=(2,)),
        train=TrainConfig(steps=1, batch_size=2, eval_every=1),
        task=TaskSpec(kind="copy", n_symbols=3, delay=1, n_samples=8),
    )
    unread = sorted(set(run_training(run)) - read)
    assert not unread, f"run_training keys no module reads: {unread}"
