"""Task generators: linear-system teacher, delayed copy, byte LM, metrics."""

import math

import numpy as np
import pytest

from elastic_ssm.basis import build_basis
from elastic_ssm.config import ModelConfig, TaskSpec
from elastic_ssm.errors import ArtifactError, ConfigError, NumericError
from elastic_ssm.model import init_model_params
from elastic_ssm.tasks import (
    BYTE_EVAL_FRAC,
    DATASET_MAGIC,
    Dataset,
    SyntheticLDS,
    bpb_metric,
    build_dataset,
    check_model_matches_task,
    evaluate_model,
    gen_byte_lm,
    gen_copy_task,
    gen_lds_teacher,
    load_dataset,
    required_model_fields,
    save_dataset,
)

from oracles import recurrent_lds_unroll


# ---------------------------------------------------------------------------
# linear state-space teacher
# ---------------------------------------------------------------------------


def tiny_teacher(transition, input_map, output_map, feedthrough, rho_max=0.95):
    return SyntheticLDS(
        transition=np.asarray(transition, dtype=np.float64),
        input_map=np.asarray(input_map, dtype=np.float64),
        output_map=np.asarray(output_map, dtype=np.float64),
        feedthrough=np.asarray(feedthrough, dtype=np.float64),
        rho_max=rho_max,
    )


class TestLDSTeacher:
    def test_targets_match_recurrent_unroll(self):
        # convolution view vs literal state recursion, many random draws
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            teacher, dataset = gen_lds_teacher(
                seed=int(rng.integers(1 << 30)), state_dim=n, data_dim=d,
                rho_max=0.9, seq_len=17, n_samples=3,
            )
            for seq, tgt in zip(dataset.inputs, dataset.targets):
                ref = recurrent_lds_unroll(
                    teacher.transition, teacher.input_map,
                    teacher.output_map, teacher.feedthrough, seq,
                )
                np.testing.assert_allclose(tgt, ref, atol=1e-6, rtol=1e-6)

    def test_zero_transition_first_tap_only(self):
        # transition = 0: G(0) = output_map @ input_map and every later tap
        # vanishes, so the target is an instantaneous map of the input
        teacher = tiny_teacher(
            np.zeros((2, 2)), [[1.0, 0.0], [0.5, -1.0]],
            [[2.0, 1.0], [0.0, 3.0]], [[0.1, 0.0], [0.0, 0.2]],
        )
        taps = teacher.kernel(5)
        np.testing.assert_allclose(taps[0], teacher.output_map @ teacher.input_map)
        np.testing.assert_allclose(taps[1:], 0.0)
        u = np.random.default_rng(1).normal(size=(6, 2))
        ref = recurrent_lds_unroll(
            teacher.transition, teacher.input_map,
            teacher.output_map, teacher.feedthrough, u,
        )
        instant = (teacher.feedthrough + teacher.output_map @ teacher.input_map)
        np.testing.assert_allclose(ref, u @ instant.T, atol=1e-12)

    def test_scalar_teacher_hand_unroll(self):
        # a=0.9, b=c=1, d=0: target(t) = sum_tau 0.9^tau u(t - tau)
        teacher = tiny_teacher([[0.9]], [[1.0]], [[1.0]], [[0.0]])
        u = np.array([1.0, -2.0, 0.5, 3.0])[:, None]
        expected = np.array([
            1.0,
            -2.0 + 0.9 * 1.0,
            0.5 + 0.9 * -2.0 + 0.81 * 1.0,
            3.0 + 0.9 * 0.5 + 0.81 * -2.0 + 0.729 * 1.0,
        ])[:, None]
        out = recurrent_lds_unroll(
            teacher.transition, teacher.input_map,
            teacher.output_map, teacher.feedthrough, u,
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)
        taps = teacher.kernel(4)[:, 0, 0]
        np.testing.assert_allclose(taps, [1.0, 0.9, 0.81, 0.729], atol=1e-12)

    def test_transition_radius_respects_bound(self):
        for seed in range(10):
            teacher, _ = gen_lds_teacher(
                seed=seed, state_dim=8, data_dim=4, rho_max=0.95,
                seq_len=16, n_samples=4,
            )
            true = float(np.max(np.abs(np.linalg.eigvals(teacher.transition))))
            assert true <= 0.95 * (1 + 1e-9)

    def test_rho_max_out_of_range_rejected(self):
        for bad in (1.0, 1.5, 0.0, -0.2):
            with pytest.raises(ConfigError):
                gen_lds_teacher(seed=0, state_dim=4, data_dim=2, rho_max=bad,
                                seq_len=8, n_samples=2)

    def test_deterministic_given_seed(self):
        a = gen_lds_teacher(seed=11, state_dim=5, data_dim=3, rho_max=0.9,
                            seq_len=12, n_samples=6)
        b = gen_lds_teacher(seed=11, state_dim=5, data_dim=3, rho_max=0.9,
                            seq_len=12, n_samples=6)
        np.testing.assert_array_equal(a[0].transition, b[0].transition)
        np.testing.assert_array_equal(a[1].inputs, b[1].inputs)
        np.testing.assert_array_equal(a[1].targets, b[1].targets)
        c = gen_lds_teacher(seed=12, state_dim=5, data_dim=3, rho_max=0.9,
                            seq_len=12, n_samples=6)
        assert not np.array_equal(a[1].inputs, c[1].inputs)

    def test_shapes_and_split(self):
        _, ds = gen_lds_teacher(seed=0, state_dim=4, data_dim=3, rho_max=0.9,
                                seq_len=10, n_samples=80)
        assert ds.inputs.shape == (80, 10, 3)
        assert ds.targets.shape == (80, 10, 3)
        assert ds.n_eval == 10  # one eval sequence per eight training ones
        assert ds.mask is None
        assert ds.loss == "mse" and ds.metric_name == "mse"
        assert ds.higher_better is False
        _, small = gen_lds_teacher(seed=0, state_dim=4, data_dim=3, rho_max=0.9,
                                   seq_len=10, n_samples=5)
        assert small.n_eval == 8  # floor so evaluation is never starved


# ---------------------------------------------------------------------------
# delayed copy
# ---------------------------------------------------------------------------


class TestCopyTask:
    def test_structure(self):
        ds = gen_copy_task(seed=0, seq_len=12, n_symbols=8, delay=3, n_samples=20)
        assert np.all(ds.inputs[:, 0] == 8)  # marker id = n_symbols
        assert np.all((ds.inputs[:, 1:] >= 0) & (ds.inputs[:, 1:] < 8))
        np.testing.assert_array_equal(ds.targets[:, 3:], ds.inputs[:, :9])
        np.testing.assert_array_equal(ds.mask[:, :4], False)
        np.testing.assert_array_equal(ds.mask[:, 4:], True)
        assert ds.loss == "cross-entropy" and ds.metric_name == "accuracy"
        assert ds.higher_better is True
        assert ds.meta["vocab_size"] == 9

    def test_delay_zero_is_identity(self):
        ds = gen_copy_task(seed=1, seq_len=10, n_symbols=5, delay=0, n_samples=8)
        np.testing.assert_array_equal(ds.targets, ds.inputs)
        np.testing.assert_array_equal(ds.mask[:, 0], False)
        np.testing.assert_array_equal(ds.mask[:, 1:], True)

    def test_masked_targets_never_marker(self):
        ds = gen_copy_task(seed=2, seq_len=16, n_symbols=4, delay=5, n_samples=30)
        assert np.all(ds.targets[ds.mask] < 4)

    def test_chance_accuracy(self):
        # uniform random guesses score 1/n_symbols on the masked positions
        ds = gen_copy_task(seed=3, seq_len=64, n_symbols=8, delay=4, n_samples=400)
        masked = int(ds.mask.sum())
        assert masked >= 10_000
        guesses = np.random.default_rng(9).integers(0, 8, size=ds.targets.shape)
        accuracy = np.mean(guesses[ds.mask] == ds.targets[ds.mask])
        assert abs(accuracy - 1.0 / 8.0) <= 0.02

    def test_deterministic_given_seed(self):
        a = gen_copy_task(seed=4, seq_len=10, n_symbols=6, delay=2, n_samples=12)
        b = gen_copy_task(seed=4, seq_len=10, n_symbols=6, delay=2, n_samples=12)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.eval_inputs, b.eval_inputs)

    def test_delay_too_large_rejected(self):
        with pytest.raises(ConfigError):
            gen_copy_task(seed=0, seq_len=8, n_symbols=4, delay=7, n_samples=4)
        with pytest.raises(ConfigError):
            gen_copy_task(seed=0, seq_len=8, n_symbols=4, delay=-1, n_samples=4)


# ---------------------------------------------------------------------------
# byte language modeling
# ---------------------------------------------------------------------------


class TestByteLM:
    def test_windows_are_lossless_views(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
        path = tmp_path / "corpus.bin"
        path.write_bytes(payload)
        ds = gen_byte_lm(path, seq_len=32, n_samples=1000)
        data = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
        split = int(len(data) * (1.0 - BYTE_EVAL_FRAC))
        # every training window is an exact slice of the train region,
        # targets shifted one byte ahead: nothing lost, nothing remapped
        for i, (win, tgt) in enumerate(zip(ds.inputs, ds.targets)):
            start = i * 32
            np.testing.assert_array_equal(win, data[start:start + 32])
            np.testing.assert_array_equal(tgt, data[start + 1:start + 33])
        for i, win in enumerate(ds.eval_inputs):
            start = split + i * 32
            np.testing.assert_array_equal(win, data[start:start + 32])

    def test_window_count_math(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(bytes(range(256)) * 8)  # 2048 bytes
        ds = gen_byte_lm(path, seq_len=16, n_samples=1000)
        # train region = 1945 bytes -> (1945-1)//16 = 121 windows
        assert ds.inputs.shape == (121, 16)
        # eval region = 103 bytes -> (103-1)//16 = 6 windows, capped at 52
        assert ds.eval_inputs.shape == (6, 16)
        capped = gen_byte_lm(path, seq_len=16, n_samples=10)
        assert capped.inputs.shape == (10, 16)

    def test_alphabet_is_full_byte_range(self, tmp_path):
        path = tmp_path / "all.bin"
        path.write_bytes(bytes(range(256)) * 20)
        ds = gen_byte_lm(path, seq_len=64, n_samples=100)
        assert ds.meta["vocab_size"] == 256
        assert ds.inputs.min() >= 0 and ds.inputs.max() <= 255
        # this corpus cycles through every byte value, and no value may be
        # remapped or dropped on the way into the dataset
        assert set(np.unique(ds.inputs)) == set(range(256))

    def test_split_is_contiguous_and_disjoint(self, tmp_path):
        # train windows only touch the first 95%, eval only the last 5%
        path = tmp_path / "c.bin"
        n = 10_000
        path.write_bytes(bytes(np.arange(n, dtype=np.uint64).view(np.uint8)[:n]))
        ds = gen_byte_lm(path, seq_len=64, n_samples=10_000)
        split = int(n * 0.95)
        last_train = ds.inputs.shape[0] * 64
        assert last_train <= split
        assert ds.eval_inputs.shape[0] * 64 <= n - split

    def test_missing_file_is_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            gen_byte_lm(tmp_path / "nope.bin", seq_len=16)

    def test_too_small_corpus_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"abc")
        with pytest.raises(ArtifactError):
            gen_byte_lm(path, seq_len=64)


# ---------------------------------------------------------------------------
# bits-per-byte metric
# ---------------------------------------------------------------------------


class TestBpbMetric:
    def test_ln2_gives_one_bit(self):
        bpb, ppl = bpb_metric(math.log(2.0))
        assert bpb == pytest.approx(1.0, abs=1e-12)
        assert ppl == pytest.approx(2.0, abs=1e-12)

    def test_zero_nll(self):
        bpb, ppl = bpb_metric(0.0)
        assert bpb == 0.0 and ppl == 1.0

    def test_uniform_256(self):
        bpb, ppl = bpb_metric(math.log(256.0))
        assert bpb == pytest.approx(8.0, abs=1e-12)
        assert ppl == pytest.approx(256.0, rel=1e-12)

    def test_ppl_is_two_to_the_bpb(self):
        for nll in (0.1, 0.7, 2.3, 5.0):
            bpb, ppl = bpb_metric(nll)
            assert ppl == pytest.approx(2.0 ** bpb, rel=1e-12)

    def test_negative_nll_rejected(self):
        with pytest.raises(NumericError):
            bpb_metric(-1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            bpb_metric(float("nan"))
        with pytest.raises(NumericError):
            bpb_metric(float("inf"))


# ---------------------------------------------------------------------------
# task -> model plumbing
# ---------------------------------------------------------------------------


class TestTaskModelPlumbing:
    def test_required_fields_per_kind(self):
        lds = TaskSpec(kind="lds-regression", data_dim=4)
        assert required_model_fields(lds) == {
            "input_kind": "real", "in_dim": 4, "out_dim": 4, "head": "per-step",
        }
        copy = TaskSpec(kind="copy", n_symbols=8)
        assert required_model_fields(copy) == {
            "input_kind": "tokens", "vocab_size": 9, "out_dim": 9,
            "head": "per-step",
        }
        lm = TaskSpec(kind="byte-lm", corpus="x.bin")
        assert required_model_fields(lm) == {
            "input_kind": "tokens", "vocab_size": 256, "out_dim": 256,
            "head": "per-step",
        }

    def test_mismatch_is_config_error(self):
        task = TaskSpec(kind="copy", n_symbols=8)
        bad = ModelConfig(seq_len=16, width=8, capacity=4, budget_set=(2, 4),
                          input_kind="tokens", vocab_size=7, out_dim=9)
        with pytest.raises(ConfigError, match="vocab_size"):
            check_model_matches_task(bad, task)

    def test_build_dataset_dispatch(self, tmp_path):
        model = ModelConfig(seq_len=16, width=8, capacity=4,
                            budget_set=(2, 4), input_kind="tokens",
                            vocab_size=9, out_dim=9)
        task = TaskSpec(kind="copy", n_symbols=8, delay=2, n_samples=10)
        ds = build_dataset(task, model)
        assert ds.kind == "copy" and ds.seq_len == 16

        rmodel = ModelConfig(seq_len=16, width=8, capacity=4,
                             budget_set=(2, 4), input_kind="real",
                             in_dim=3, out_dim=3)
        rtask = TaskSpec(kind="lds-regression", data_dim=3, state_dim=4,
                         n_samples=10)
        rds = build_dataset(rtask, rmodel)
        assert rds.kind == "lds-regression" and rds.inputs.shape[-1] == 3

        path = tmp_path / "c.bin"
        path.write_bytes(bytes(range(256)) * 10)
        bmodel = ModelConfig(seq_len=16, width=8, capacity=4,
                             budget_set=(2, 4), input_kind="tokens",
                             vocab_size=256, out_dim=256)
        btask = TaskSpec(kind="byte-lm", corpus=str(path), n_samples=10)
        bds = build_dataset(btask, bmodel)
        assert bds.kind == "byte-lm"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def small_setup(kind, tmp_path=None):
    if kind == "copy":
        config = ModelConfig(seq_len=16, width=8, gate_hidden=8, capacity=4,
                             depth=1, input_kind="tokens", vocab_size=9,
                             out_dim=9, budget_set=(2, 3, 4), seed=0)
        dataset = gen_copy_task(seed=0, seq_len=16, n_symbols=8, delay=2,
                                n_samples=12)
    elif kind == "lds-regression":
        config = ModelConfig(seq_len=16, width=8, gate_hidden=8, capacity=4,
                             depth=1, input_kind="real", in_dim=3, out_dim=3,
                             budget_set=(2, 3, 4), seed=0)
        _, dataset = gen_lds_teacher(seed=0, state_dim=4, data_dim=3,
                                     rho_max=0.9, seq_len=16, n_samples=12)
    else:
        path = tmp_path / "c.bin"
        path.write_bytes(bytes(range(256)) * 10)
        config = ModelConfig(seq_len=16, width=8, gate_hidden=8, capacity=4,
                             depth=1, input_kind="tokens", vocab_size=256,
                             out_dim=256, budget_set=(2, 3, 4), seed=0)
        dataset = gen_byte_lm(path, seq_len=16, n_samples=12)
    basis = build_basis(config.seq_len, config.capacity)
    params = init_model_params(config)
    return params, config, basis, dataset


class TestEvaluateModel:
    def test_copy_report_fields(self):
        params, config, basis, dataset = small_setup("copy")
        report = evaluate_model(params, config, basis, dataset, budget=4)
        assert set(report) >= {"loss", "budget", "split", "n_sequences",
                               "metric", "metric_name", "accuracy", "nll",
                               "higher_better"}
        assert report["metric"] == report["accuracy"]
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["budget"] == 4 and report["split"] == "eval"

    def test_lds_report_fields(self):
        params, config, basis, dataset = small_setup("lds-regression")
        report = evaluate_model(params, config, basis, dataset, budget=3)
        assert report["metric"] == report["mse"] == report["loss"]
        assert report["higher_better"] is False

    def test_byte_lm_report_fields(self, tmp_path):
        params, config, basis, dataset = small_setup("byte-lm", tmp_path)
        report = evaluate_model(params, config, basis, dataset, budget=2)
        assert report["bpb"] == pytest.approx(report["nll"] / math.log(2.0),
                                              rel=1e-12)
        assert report["ppl"] == pytest.approx(2.0 ** report["bpb"], rel=1e-12)
        assert report["metric"] == report["bpb"]

    def test_batching_does_not_change_result(self):
        # weighted accumulation: chopping the eval set into uneven batches
        # must reproduce the single-batch numbers
        params, config, basis, dataset = small_setup("copy")
        whole = evaluate_model(params, config, basis, dataset, budget=4,
                               batch_size=64)
        pieces = evaluate_model(params, config, basis, dataset, budget=4,
                                batch_size=5)
        assert pieces["loss"] == pytest.approx(whole["loss"], rel=1e-12)
        assert pieces["accuracy"] == whole["accuracy"]

    def test_untrained_copy_accuracy_near_chance(self):
        params, config, basis, dataset = small_setup("copy")
        big = gen_copy_task(seed=5, seq_len=64, n_symbols=8, delay=2,
                            n_samples=200)
        config64 = ModelConfig(seq_len=64, width=8, gate_hidden=8, capacity=4,
                               depth=1, input_kind="tokens", vocab_size=9,
                               out_dim=9, budget_set=(2, 3, 4), seed=0)
        basis64 = build_basis(64, 4)
        params64 = init_model_params(config64)
        report = evaluate_model(params64, config64, basis64, big, budget=4,
                                split="train")
        # untrained predictions are arbitrary but symbol-agnostic
        assert abs(report["accuracy"] - 1.0 / 8.0) <= 0.05

    def test_train_split_and_bad_split(self):
        params, config, basis, dataset = small_setup("copy")
        report = evaluate_model(params, config, basis, dataset, budget=4,
                                split="train")
        assert report["n_sequences"] == dataset.n_train
        with pytest.raises(ConfigError):
            evaluate_model(params, config, basis, dataset, budget=4,
                           split="test")

    def test_gate_and_truncation_passthrough(self):
        params, config, basis, dataset = small_setup("copy")
        gated = evaluate_model(params, config, basis, dataset, budget=2)
        ungated = evaluate_model(params, config, basis, dataset, budget=2,
                                 gate_enabled=False)
        direct = evaluate_model(params, config, basis, dataset, budget=2,
                                truncation="direct")
        assert gated["loss"] != ungated["loss"]
        assert gated["loss"] != direct["loss"]


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------


class TestDatasetContainer:
    @pytest.mark.parametrize("kind", ["copy", "lds-regression", "byte-lm"])
    def test_round_trip(self, kind, tmp_path):
        if kind == "copy":
            ds = gen_copy_task(seed=0, seq_len=12, n_symbols=6, delay=2,
                               n_samples=10)
        elif kind == "lds-regression":
            _, ds = gen_lds_teacher(seed=0, state_dim=4, data_dim=2,
                                    rho_max=0.9, seq_len=12, n_samples=10)
        else:
            path = tmp_path / "c.bin"
            path.write_bytes(bytes(range(256)) * 4)
            ds = gen_byte_lm(path, seq_len=12, n_samples=10)
        out = tmp_path / "ds.esds"
        save_dataset(out, ds)
        back = load_dataset(out)
        assert back.kind == ds.kind
        assert back.loss == ds.loss
        assert back.metric_name == ds.metric_name
        assert back.higher_better == ds.higher_better
        for name in ("inputs", "targets", "mask", "eval_inputs",
                     "eval_targets", "eval_mask"):
            a, b = getattr(ds, name), getattr(back, name)
            if a is None:
                assert b is None
            else:
                assert b.dtype == a.dtype
                np.testing.assert_array_equal(a, b)
        assert back.meta == ds.meta

    def test_magic(self, tmp_path):
        ds = gen_copy_task(seed=0, seq_len=8, n_symbols=4, delay=1,
                           n_samples=4)
        out = tmp_path / "ds.esds"
        save_dataset(out, ds)
        assert out.read_bytes()[:4] == DATASET_MAGIC

    def test_corruption_detected(self, tmp_path):
        ds = gen_copy_task(seed=0, seq_len=8, n_symbols=4, delay=1,
                           n_samples=4)
        out = tmp_path / "ds.esds"
        save_dataset(out, ds)
        blob = bytearray(out.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        out.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_dataset(out)

    def test_truncation_detected(self, tmp_path):
        ds = gen_copy_task(seed=0, seq_len=8, n_symbols=4, delay=1,
                           n_samples=4)
        out = tmp_path / "ds.esds"
        save_dataset(out, ds)
        out.write_bytes(out.read_bytes()[:-9])
        with pytest.raises(ArtifactError):
            load_dataset(out)

    def test_wrong_magic_detected(self, tmp_path):
        ds = gen_copy_task(seed=0, seq_len=8, n_symbols=4, delay=1,
                           n_samples=4)
        out = tmp_path / "ds.esds"
        save_dataset(out, ds)
        blob = bytearray(out.read_bytes())
        blob[:4] = b"XXXX"
        out.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_dataset(out)

    def test_missing_file(self, tmp_path):
        with pytest.raises((ArtifactError, FileNotFoundError)):
            load_dataset(tmp_path / "absent.esds")
