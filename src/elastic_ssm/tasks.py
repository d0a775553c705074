"""Desk-scale datasets: linear state-space teacher, copy/delay, byte LM.

Every generator is a pure function of its seed.  Datasets carry their loss
kind and metric orientation so the sweep machinery can compute retention
without task-specific switches, and serialize to the "ESDS" container
(magic, version, kind tag, meta JSON, little-endian tensors, CRC32).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import ModelConfig, TaskSpec
from .errors import ArtifactError, ConfigError, NumericError, StructuralError
from .linalg import next_pow2
from .model import ModelParams, model_forward
from .basis import SpectralBasis
from .backprop import mean_squared_error, softmax_cross_entropy
from .storage import Reader, Writer, atomic_write_bytes

__all__ = [
    "Dataset",
    "SyntheticLDS",
    "bpb_metric",
    "build_dataset",
    "evaluate_model",
    "gen_copy_task",
    "gen_lds_teacher",
    "gen_byte_lm",
    "load_dataset",
    "required_model_fields",
    "save_dataset",
]

DATASET_MAGIC = b"ESDS"
DATASET_VERSION = 1
KIND_TAGS = {"lds-regression": 1, "copy": 2, "byte-lm": 3}
TAG_KINDS = {v: k for k, v in KIND_TAGS.items()}

#: Fraction of a byte corpus reserved (contiguously, at the end) for eval.
BYTE_EVAL_FRAC = 0.05
#: Synthetic tasks draw one extra eval sequence per this many train samples.
SYNTH_EVAL_DIVISOR = 8


@dataclass(frozen=True)
class SyntheticLDS:
    """A stable discrete-time linear system used as a regression teacher.

    state(t) = transition @ state(t-1) + input_map @ u(t)
    output(t) = output_map @ state(t) + feedthrough @ u(t)
    """

    transition: np.ndarray  # (state_dim, state_dim), spectral radius <= rho_max
    input_map: np.ndarray  # (state_dim, data_dim)
    output_map: np.ndarray  # (data_dim, state_dim)
    feedthrough: np.ndarray  # (data_dim, data_dim)
    rho_max: float

    def kernel(self, length: int) -> np.ndarray:
        """Impulse response G with G[tau] = output_map @ transition^tau @ input_map."""
        taps = np.empty((length,) + (self.output_map.shape[0], self.input_map.shape[1]))
        power = self.input_map
        for tau in range(length):
            taps[tau] = self.output_map @ power
            power = self.transition @ power
        return taps


@dataclass
class Dataset:
    """Supervised sequences plus the metadata evaluation needs."""

    kind: str
    inputs: np.ndarray
    targets: np.ndarray
    mask: Optional[np.ndarray]  # (N, L) bool; None when every position counts
    eval_inputs: np.ndarray
    eval_targets: np.ndarray
    eval_mask: Optional[np.ndarray]
    loss: str  # "cross-entropy" | "mse"
    metric_name: str  # "mse" | "accuracy" | "bpb"
    higher_better: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KIND_TAGS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise StructuralError("inputs/targets sample counts differ")
        if self.eval_inputs.shape[1] != self.inputs.shape[1]:
            raise StructuralError("train/eval sequence lengths differ")

    @property
    def seq_len(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_eval(self) -> int:
        return self.eval_inputs.shape[0]


# ---------------------------------------------------------------------------
# linear state-space teacher
# ---------------------------------------------------------------------------


def _teacher_targets(teacher: SyntheticLDS, inputs: np.ndarray) -> np.ndarray:
    """Teacher outputs via the convolution view of the recurrence.

    y(t) = feedthrough @ u(t) + sum_{tau=0..t} G[tau] @ u(t - tau).
    """
    n, length, _ = inputs.shape
    taps = teacher.kernel(length)  # (L, out, in)
    size = next_pow2(2 * length - 1)
    taps_hat = np.fft.rfft(taps, n=size, axis=0)  # (F, out, in)
    u_hat = np.fft.rfft(inputs, n=size, axis=1)  # (N, F, in)
    y_hat = np.einsum("foi,nfi->nfo", taps_hat, u_hat)
    conv = np.fft.irfft(y_hat, n=size, axis=1)[:, :length, :]
    return conv + inputs @ teacher.feedthrough.T


def gen_lds_teacher(
    seed: int,
    state_dim: int,
    data_dim: int,
    rho_max: float,
    seq_len: int,
    n_samples: int,
) -> tuple[SyntheticLDS, Dataset]:
    """Draw a stable random teacher and a regression dataset it labels.

    The transition matrix is rescaled once so its spectral radius equals
    ``rho_max``.  Inputs are iid standard normal sequences; targets
    are exact teacher outputs.  ``n_samples`` training sequences are drawn,
    plus one eval sequence per eight (at least eight) from the same stream.
    """
    if not 0.0 < rho_max < 1.0:
        raise ConfigError(f"rho_max must lie in (0, 1), got {rho_max}")
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    transition = rng.normal(size=(state_dim, state_dim))
    radius = float(np.max(np.abs(np.linalg.eigvals(transition))))
    if radius > 0.0:
        transition = transition * (rho_max / radius)
    teacher = SyntheticLDS(
        transition=transition,
        input_map=rng.normal(size=(state_dim, data_dim)) / math.sqrt(data_dim),
        output_map=rng.normal(size=(data_dim, state_dim)) / math.sqrt(state_dim),
        feedthrough=rng.normal(size=(data_dim, data_dim)) / math.sqrt(data_dim),
        rho_max=rho_max,
    )
    n_eval = max(SYNTH_EVAL_DIVISOR, n_samples // SYNTH_EVAL_DIVISOR)
    inputs = rng.normal(size=(n_samples, seq_len, data_dim))
    eval_inputs = rng.normal(size=(n_eval, seq_len, data_dim))
    dataset = Dataset(
        kind="lds-regression",
        inputs=inputs,
        targets=_teacher_targets(teacher, inputs),
        mask=None,
        eval_inputs=eval_inputs,
        eval_targets=_teacher_targets(teacher, eval_inputs),
        eval_mask=None,
        loss="mse",
        metric_name="mse",
        higher_better=False,
        meta={
            "seed": seed,
            "state_dim": state_dim,
            "data_dim": data_dim,
            "rho_max": rho_max,
            "teacher": {
                "transition": teacher.transition.tolist(),
                "input_map": teacher.input_map.tolist(),
                "output_map": teacher.output_map.tolist(),
                "feedthrough": teacher.feedthrough.tolist(),
            },
        },
    )
    return teacher, dataset


# ---------------------------------------------------------------------------
# copy / delay task
# ---------------------------------------------------------------------------


def gen_copy_task(seed: int, seq_len: int, n_symbols: int, delay: int,
                  n_samples: int = 512) -> Dataset:
    """Delayed-copy classification.

    Position 0 carries a marker token (id ``n_symbols``); positions 1..L-1
    carry random symbols in [0, n_symbols).  The target at position t is
    the input at position t - delay, scored only where t >= delay + 1 (so
    every answer references a symbol, never the marker).  delay = 0 is
    identity labeling.
    """
    if delay < 0 or delay + 1 >= seq_len:
        raise ConfigError(
            f"delay must satisfy 0 <= delay <= seq_len - 2, got delay={delay} "
            f"with seq_len={seq_len}"
        )
    if n_symbols < 2:
        raise ConfigError(f"n_symbols must be >= 2, got {n_symbols}")
    rng = np.random.default_rng(seed)
    n_eval = max(SYNTH_EVAL_DIVISOR, n_samples // SYNTH_EVAL_DIVISOR)

    def draw(count: int):
        seqs = rng.integers(0, n_symbols, size=(count, seq_len))
        seqs[:, 0] = n_symbols  # marker
        targets = np.zeros_like(seqs)
        targets[:, delay:] = seqs[:, : seq_len - delay]
        mask = np.zeros((count, seq_len), dtype=bool)
        mask[:, delay + 1:] = True
        return seqs, targets, mask

    inputs, targets, mask = draw(n_samples)
    eval_inputs, eval_targets, eval_mask = draw(n_eval)
    return Dataset(
        kind="copy",
        inputs=inputs,
        targets=targets,
        mask=mask,
        eval_inputs=eval_inputs,
        eval_targets=eval_targets,
        eval_mask=eval_mask,
        loss="cross-entropy",
        metric_name="accuracy",
        higher_better=True,
        meta={"seed": seed, "n_symbols": n_symbols, "delay": delay,
              "vocab_size": n_symbols + 1},
    )


# ---------------------------------------------------------------------------
# byte language modeling
# ---------------------------------------------------------------------------


def gen_byte_lm(corpus_path: str | os.PathLike, seq_len: int,
                n_samples: int = 512) -> Dataset:
    """Next-byte prediction over a raw file.

    The corpus is split 95/5 into contiguous train/eval regions (no
    leakage), then chunked into windows of ``seq_len`` bytes with stride
    ``seq_len``; targets are the window shifted one byte ahead.  The byte
    alphabet is the fixed 256-symbol vocabulary, so encoding is lossless
    by construction.
    """
    try:
        with open(corpus_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ArtifactError(f"cannot read corpus {os.fspath(corpus_path)!r}: {exc}") from exc
    data = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    split = int(len(data) * (1.0 - BYTE_EVAL_FRAC))

    def windows(region: np.ndarray, cap: int):
        count = (len(region) - 1) // seq_len
        if count < 1:
            raise ArtifactError(
                f"corpus region of {len(region)} bytes is too small for "
                f"windows of {seq_len}+1 bytes"
            )
        count = min(count, cap)
        starts = np.arange(count) * seq_len
        idx = starts[:, None] + np.arange(seq_len + 1)[None, :]
        chunk = region[idx]
        return chunk[:, :-1], chunk[:, 1:]

    inputs, targets = windows(data[:split], n_samples)
    eval_cap = max(1, n_samples // 19)  # mirrors the 95/5 region ratio
    eval_inputs, eval_targets = windows(data[split:], eval_cap)
    return Dataset(
        kind="byte-lm",
        inputs=inputs,
        targets=targets,
        mask=None,
        eval_inputs=eval_inputs,
        eval_targets=eval_targets,
        eval_mask=None,
        loss="cross-entropy",
        metric_name="bpb",
        higher_better=False,
        meta={"corpus": os.fspath(corpus_path), "corpus_bytes": len(data),
              "vocab_size": 256},
    )


def bpb_metric(nll_nats: float) -> tuple[float, float]:
    """(bits per byte, perplexity) from a mean NLL in nats.

    BPB = NLL / ln 2 and PPL = exp(NLL), so PPL = 2**BPB identically.
    """
    if not np.isfinite(nll_nats):
        raise NumericError(f"NLL must be finite, got {nll_nats}")
    if nll_nats < 0:
        raise NumericError(f"NLL must be nonnegative, got {nll_nats}")
    return nll_nats / math.log(2.0), math.exp(nll_nats)


# ---------------------------------------------------------------------------
# task -> model-config plumbing
# ---------------------------------------------------------------------------


def required_model_fields(task: TaskSpec) -> dict:
    """Model-config fields a task dictates (input/output interface)."""
    if task.kind == "lds-regression":
        return {"input_kind": "real", "in_dim": task.data_dim,
                "out_dim": task.data_dim, "head": "per-step"}
    if task.kind == "copy":
        vocab = task.n_symbols + 1
        return {"input_kind": "tokens", "vocab_size": vocab,
                "out_dim": vocab, "head": "per-step"}
    return {"input_kind": "tokens", "vocab_size": 256, "out_dim": 256,
            "head": "per-step"}


def check_model_matches_task(model: ModelConfig, task: TaskSpec) -> None:
    for key, value in required_model_fields(task).items():
        actual = getattr(model, key)
        if actual != value:
            raise ConfigError(
                f"task {task.kind!r} requires model.{key}={value!r}, "
                f"config has {actual!r}"
            )


def build_dataset(task: TaskSpec, model: ModelConfig) -> Dataset:
    """Generate the dataset a TaskSpec describes, sized to the model."""
    check_model_matches_task(model, task)
    if task.kind == "lds-regression":
        _, dataset = gen_lds_teacher(
            task.seed, task.state_dim, task.data_dim, task.rho_max,
            model.seq_len, task.n_samples,
        )
        return dataset
    if task.kind == "copy":
        return gen_copy_task(
            task.seed, model.seq_len, task.n_symbols, task.delay,
            n_samples=task.n_samples,
        )
    return gen_byte_lm(task.corpus, model.seq_len, n_samples=task.n_samples)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_model(
    params: ModelParams,
    config: ModelConfig,
    basis: SpectralBasis,
    dataset: Dataset,
    budget: int,
    split: str = "eval",
    batch_size: int = 64,
    gate_enabled: bool | None = None,
    truncation: str | None = None,
) -> dict:
    """Task metrics for one checkpoint at one budget.

    Returns {"loss", "metric_name", "metric", "higher_better", ...} with
    task extras (mse / accuracy / nll, bpb, ppl).  Never mutates params.
    """
    if split == "eval":
        inputs, targets, mask = dataset.eval_inputs, dataset.eval_targets, dataset.eval_mask
    elif split == "train":
        inputs, targets, mask = dataset.inputs, dataset.targets, dataset.mask
    else:
        raise ConfigError(f"split must be 'train' or 'eval', got {split!r}")

    total_loss = 0.0
    total_weight = 0
    correct = 0
    counted = 0
    for start in range(0, inputs.shape[0], batch_size):
        stop = min(start + batch_size, inputs.shape[0])
        batch_in = inputs[start:stop]
        batch_tgt = targets[start:stop]
        batch_mask = None if mask is None else mask[start:stop]
        out, _ = model_forward(
            batch_in, params, config, basis, budget,
            gate_enabled=gate_enabled, truncation=truncation,
        )
        if dataset.loss == "cross-entropy":
            loss, _ = softmax_cross_entropy(out, batch_tgt, batch_mask)
            weight = int(batch_mask.sum()) if batch_mask is not None else batch_tgt.size
            preds = np.argmax(out, axis=-1)
            hits = preds == batch_tgt
            if batch_mask is not None:
                correct += int(np.sum(hits & batch_mask))
                counted += int(batch_mask.sum())
            else:
                correct += int(np.sum(hits))
                counted += int(hits.size)
        else:
            loss, _ = mean_squared_error(out, batch_tgt, batch_mask)
            weight = (
                int(batch_mask.sum()) * out.shape[-1]
                if batch_mask is not None else batch_tgt.size
            )
        total_loss += loss * weight
        total_weight += weight
    mean_loss = total_loss / total_weight

    report = {
        "loss": float(mean_loss),
        "budget": int(budget),
        "split": split,
        "n_sequences": int(inputs.shape[0]),
        "higher_better": dataset.higher_better,
        "metric_name": dataset.metric_name,
    }
    if dataset.kind == "lds-regression":
        report["mse"] = float(mean_loss)
        report["metric"] = float(mean_loss)
    elif dataset.kind == "copy":
        report["accuracy"] = correct / counted
        report["nll"] = float(mean_loss)
        report["metric"] = report["accuracy"]
    else:  # byte-lm
        bpb, ppl = bpb_metric(float(mean_loss))
        report["nll"] = float(mean_loss)
        report["bpb"] = bpb
        report["ppl"] = ppl
        report["metric"] = bpb
    return report


# ---------------------------------------------------------------------------
# ESDS container
# ---------------------------------------------------------------------------

_FIELDS = ("inputs", "targets", "mask", "eval_inputs", "eval_targets", "eval_mask")


def save_dataset(path: str | os.PathLike, dataset: Dataset) -> None:
    """Write the ESDS container: version, kind tag, meta JSON, tensors, CRC."""
    tensors = {}
    meta_arrays = {}
    for name in _FIELDS:
        arr = getattr(dataset, name)
        if arr is None:
            continue
        arr = np.asarray(arr)
        store = arr.astype(np.uint8) if arr.dtype == bool else arr
        tensors[name] = store
        meta_arrays[name] = {"shape": list(store.shape), "dtype": str(store.dtype)}
    meta = {
        "kind": dataset.kind,
        "loss": dataset.loss,
        "metric_name": dataset.metric_name,
        "higher_better": dataset.higher_better,
        "arrays": meta_arrays,
        "meta": dataset.meta,
    }
    w = Writer(DATASET_MAGIC)
    w.u32(DATASET_VERSION)
    w.u8(KIND_TAGS[dataset.kind])
    w.json_block(meta)
    for name in _FIELDS:
        if name in tensors:
            w.array(tensors[name], str(tensors[name].dtype))
    atomic_write_bytes(path, w.finish())


def load_dataset(path: str | os.PathLike) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    what = f"dataset {os.fspath(path)!r}"
    r = Reader(data, DATASET_MAGIC, what=what)
    r.expect_version(DATASET_VERSION)
    tag = r.u8()
    if tag not in TAG_KINDS:
        raise ArtifactError(f"{what}: unknown kind tag {tag}")
    meta = r.json_block()
    if meta.get("kind") != TAG_KINDS[tag]:
        raise ArtifactError(
            f"{what}: kind tag {TAG_KINDS[tag]!r} disagrees with meta "
            f"{meta.get('kind')!r}"
        )
    arrays = {}
    for name in _FIELDS:
        info = meta["arrays"].get(name)
        if info is None:
            arrays[name] = None
            continue
        arr = r.array(tuple(info["shape"]), info["dtype"])
        if name.endswith("mask"):
            arr = arr.astype(bool)
        arrays[name] = arr
    r.expect_end()
    return Dataset(
        kind=meta["kind"],
        inputs=arrays["inputs"],
        targets=arrays["targets"],
        mask=arrays["mask"],
        eval_inputs=arrays["eval_inputs"],
        eval_targets=arrays["eval_targets"],
        eval_mask=arrays["eval_mask"],
        loss=meta["loss"],
        metric_name=meta["metric_name"],
        higher_better=meta["higher_better"],
        meta=meta["meta"],
    )
