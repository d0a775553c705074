"""Desk-scale datasets: linear state-space teacher, copy/delay, byte LM.

Every generator is a pure function of its seed.  Datasets carry their loss
kind and metric orientation so the sweep machinery can compute retention
without task-specific switches.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import TASK_KINDS, ModelConfig, TaskSpec
from .errors import ArtifactError, ConfigError, NumericError, StructuralError
from .linalg import convolves_directly, next_pow2
from .model import ModelParams, model_forward
from .basis import SpectralBasis
from .backprop import mean_squared_error, softmax_cross_entropy

__all__ = [
    "Dataset",
    "SyntheticLDS",
    "bpb_metric",
    "build_dataset",
    "evaluate_model",
    "forward_bytes_per_sequence",
    "gen_copy_task",
    "gen_lds_teacher",
    "gen_byte_lm",
    "required_model_fields",
]

#: Fraction of a byte corpus reserved (contiguously, at the end) for eval.
BYTE_EVAL_FRAC = 0.05
#: Synthetic tasks draw one extra eval sequence per this many train samples.
SYNTH_EVAL_DIVISOR = 8
#: Bytes the forward pass of one eval batch may hold.
EVAL_BATCH_BYTES = 2**28


@dataclass(frozen=True)
class SyntheticLDS:
    """A stable discrete-time linear system used as a regression teacher.

    state(t) = transition @ state(t-1) + input_map @ u(t)
    output(t) = output_map @ state(t) + feedthrough @ u(t)
    """

    transition: np.ndarray  # (state_dim, state_dim), spectral radius < 1
    input_map: np.ndarray  # (state_dim, data_dim)
    output_map: np.ndarray  # (data_dim, state_dim)
    feedthrough: np.ndarray  # (data_dim, data_dim)

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
    """Supervised train and eval sequences, with the loss and metric that
    score them."""

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

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
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


def forward_bytes_per_sequence(config: ModelConfig) -> int:
    """Bytes ``model_forward`` holds per sequence at its peak, at the
    precision's bytes a value: every layer's norm and layer caches (input,
    scale, gate activations and weights, which a disabled gate does not
    store), plus one layer's working set (the convolution's buffers on the
    bank's path, accumulators, output).

    The direct path's ``(L, L)`` Toeplitz matrix serves the whole batch, so
    each sequence is charged half of it: an upper bound for every batch of
    two or more, and at most ``L * L / 2`` values short for a lone sequence.
    """
    length, width = config.seq_len, config.width
    gate = 2 * (config.gate_hidden + config.capacity) if config.gate_enabled else 0
    kept = length * (2 * width + 1 + gate)
    if convolves_directly(length):  # one (L, d) channel, half the (L, L) Toeplitz matrix
        spectral = length * (width + length // 2)
    else:  # two complex (d, n/2 + 1) spectra, one real (d, n)
        n = next_pow2(2 * length - 1)
        spectral = width * (3 * n + 4)
    working = spectral + length * 4 * width
    return np.dtype(config.precision).itemsize * (config.depth * kept + working)


def evaluate_model(
    params: ModelParams,
    config: ModelConfig,
    basis: SpectralBasis,
    dataset: Dataset,
    budget: int,
    split: str = "eval",
) -> dict:
    """Task metrics for one checkpoint at one budget.

    Returns {"loss", "metric_name", "metric", "higher_better", ...} with
    task extras (mse / accuracy / nll, bpb, ppl).  Never mutates params.
    The gate and truncation mode are the config's (see ``model_forward``).
    Sequences run in the largest batches whose forward pass fits
    ``EVAL_BATCH_BYTES`` (:func:`forward_bytes_per_sequence`), whatever the
    budget.
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
    batch_size = max(1, EVAL_BATCH_BYTES // forward_bytes_per_sequence(config))
    for start in range(0, inputs.shape[0], batch_size):
        stop = min(start + batch_size, inputs.shape[0])
        batch_in = inputs[start:stop]
        batch_tgt = targets[start:stop]
        batch_mask = None if mask is None else mask[start:stop]
        out, _ = model_forward(batch_in, params, config, basis, budget)
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
