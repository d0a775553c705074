"""Stacked pre-norm residual model around the budgeted spectral layer.

Pipeline: embedding (table lookup for token inputs, linear map for
real-valued inputs) -> depth x [u + layer(norm(u))] -> final norm ->
linear readout (per timestep, or mean-pooled over time for sequence
classification heads).  Inputs are always a batch: (B, L) token ids or
(B, L, in_dim) reals; one sequence ``x`` goes in as ``x[None]``.

Parameters live in plain dataclasses of numpy arrays.  ``param_schema`` is
the one description of their layout: for every tensor its name, place in
the dataclasses, shape, init rule and the rows a budgeted training step
updates, in the declaration order used by initialization, the optimizer,
the gradient set and the checkpoint container ("ESSM" magic, versioned,
canonical-JSON config, raw little-endian tensors, CRC32).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .basis import SpectralBasis
from .config import ModelConfig
from .errors import ArtifactError, ConfigError, StructuralError
from .layer import GateParams, LayerCache, LayerParams, layer_forward, live_logits
from .storage import Reader, Writer, atomic_write, crc32, map_file

__all__ = [
    "BlockParams",
    "ModelParams",
    "ModelCache",
    "ParamSpec",
    "checkpoint_writer",
    "flatten_params",
    "init_model_params",
    "layer_norm_forward",
    "layer_param_arrays",
    "load_checkpoint",
    "model_forward",
    "param_schema",
    "params_from_arrays",
    "rms_norm_forward",
    "save_checkpoint",
]

CHECKPOINT_MAGIC = b"ESSM"
CHECKPOINT_VERSION = 1

#: LayerNorm variance stabilizer (fixed, documented here; distinct from the
#: gate's rescale eps which lives in config).
NORM_EPS = 1e-5


@dataclass
class BlockParams:
    norm_gain: np.ndarray
    norm_bias: np.ndarray
    layer: LayerParams


@dataclass
class ModelParams:
    """All learnable tensors, embedding through readout."""

    embed_table: Optional[np.ndarray]  # (vocab, width) for token input
    embed_w: Optional[np.ndarray]  # (width, in_dim) for real input
    embed_b: Optional[np.ndarray]  # (width,)
    blocks: list[BlockParams]
    final_gain: np.ndarray
    final_bias: np.ndarray
    readout_w: np.ndarray  # (out_dim, width)
    readout_b: np.ndarray  # (out_dim,)


@dataclass(frozen=True)
class ParamSpec:
    """One parameter tensor of the layout.

    ``path`` locates the tensor inside :class:`ModelParams` (attribute names,
    with an int indexing ``blocks``).  ``init`` is ("zeros",), ("ones",),
    ("normal", std) or ("truncated-normal", std).  ``rows`` names which
    leading rows a training step at budget K updates: "all", "budget" (rows
    < K), "gate-out" or "gate-in" (see :meth:`active_rows`).
    """

    name: str
    path: tuple
    shape: tuple[int, ...]
    init: tuple
    rows: str = "all"

    def active_rows(self, config: ModelConfig, budget: int) -> Optional[int]:
        """Leading rows updated at ``budget``; None means the whole tensor."""
        if self.rows == "all":
            return None
        if self.rows == "budget":
            return budget
        if not config.gate_enabled:
            return 0  # a disabled gate is frozen
        if self.rows == "gate-in":
            return None
        return live_logits(config.truncation_mode, budget, self.shape[0])  # gate-out


_ZEROS, _ONES = ("zeros",), ("ones",)


def _fan_in(n: int) -> tuple:
    return ("truncated-normal", 1.0 / np.sqrt(n))


@lru_cache(maxsize=128)
def _block_schema(d: int, dg: int, cap: int) -> tuple[ParamSpec, ...]:
    """One block's tensors, named and located relative to the block."""
    layer, gate = ("layer",), ("layer", "gate")
    mixing_init = ("normal", float(np.sqrt(1.0 / (d * cap))))
    return (
        ParamSpec("norm.gain", ("norm_gain",), (d,), _ONES),
        ParamSpec("norm.bias", ("norm_bias",), (d,), _ZEROS),
        ParamSpec("mixing", layer + ("mixing",), (cap, d, d), mixing_init, "budget"),
        ParamSpec("skip", layer + ("skip",), (d, d), _ZEROS),
        ParamSpec("gate.w_in", gate + ("w_in",), (dg, d), _fan_in(d), "gate-in"),
        ParamSpec("gate.b_in", gate + ("b_in",), (dg,), _ZEROS, "gate-in"),
        ParamSpec("gate.w_out", gate + ("w_out",), (cap, dg), _fan_in(dg), "gate-out"),
        ParamSpec("gate.b_out", gate + ("b_out",), (cap,), _ZEROS, "gate-out"),
    )


@lru_cache(maxsize=128)
def param_schema(config: ModelConfig) -> tuple[ParamSpec, ...]:
    """The parameter layout: every tensor in declaration order.

    Checkpoints, optimizer state, gradients and initialization all follow
    this order; random draws happen in it too.  Mixing matrices start at
    N(0, 1/(width*capacity)) so the summed spectral branch matches the skip
    branch's scale; skip starts at zero; the gate uses truncated-normal
    fan-in weights with zero output bias so initial mixture weights are
    near-uniform (no channel starvation under budget dropout).
    """
    d = config.width
    if config.input_kind == "tokens":
        specs = [ParamSpec("embed.table", ("embed_table",), (config.vocab_size, d), _fan_in(d))]
    else:
        specs = [
            ParamSpec("embed.w", ("embed_w",), (d, config.in_dim), _fan_in(config.in_dim)),
            ParamSpec("embed.b", ("embed_b",), (d,), _ZEROS),
        ]
    block = _block_schema(d, config.gate_hidden, config.capacity)
    for i in range(config.depth):
        specs += [replace(s, name=f"block{i}.{s.name}", path=("blocks", i) + s.path)
                  for s in block]
    return tuple(specs) + (
        ParamSpec("final.gain", ("final_gain",), (d,), _ONES),
        ParamSpec("final.bias", ("final_bias",), (d,), _ZEROS),
        ParamSpec("readout.w", ("readout_w",), (config.out_dim, d), _fan_in(d)),
        ParamSpec("readout.b", ("readout_b",), (config.out_dim,), _ZEROS),
    )


def _lookup(obj, path: tuple):
    for key in path:
        obj = obj[key] if isinstance(key, int) else getattr(obj, key)
    return obj


def flatten_params(params: ModelParams, config: ModelConfig) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in declaration order; arrays are live references."""
    schema = param_schema(config)
    if len(params.blocks) != config.depth:
        raise StructuralError(
            f"params hold {len(params.blocks)} blocks, config depth {config.depth}"
        )
    out = [(spec.name, _lookup(params, spec.path)) for spec in schema]
    bad = [s.name for s, (_, arr) in zip(schema, out) if arr is None or arr.shape != s.shape]
    if bad:
        raise StructuralError(f"parameter structure does not match config at {bad}")
    return out


def layer_param_arrays(layer: LayerParams) -> dict[str, np.ndarray]:
    """One layer's tensors keyed by their names within a block (``mixing``,
    ``gate.w_in``, ...), in declaration order; arrays are live references."""
    block = _block_schema(layer.width, layer.gate.w_in.shape[0], layer.capacity)
    return {s.name: _lookup(layer, s.path[1:]) for s in block if s.path[0] == "layer"}


def params_from_arrays(arrays: dict[str, np.ndarray], config: ModelConfig) -> ModelParams:
    """Assemble ModelParams around ``arrays`` (name -> array, no copies)."""
    fields: dict[tuple, dict[str, np.ndarray]] = {}
    for spec in param_schema(config):
        fields.setdefault(spec.path[:-1], {})[spec.path[-1]] = arrays[spec.name]

    def block(i: int) -> BlockParams:
        gate = GateParams(**fields[("blocks", i, "layer", "gate")], eps=config.gate_eps)
        layer = LayerParams(**fields[("blocks", i, "layer")], gate=gate)
        return BlockParams(**fields[("blocks", i)], layer=layer)

    top = {"embed_table": None, "embed_w": None, "embed_b": None, **fields[()]}
    return ModelParams(**top, blocks=[block(i) for i in range(config.depth)])


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std), resampling draws beyond 2 standard deviations."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while np.any(bad):
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def _draw(rng: np.random.Generator, spec: ParamSpec) -> np.ndarray:
    kind = spec.init[0]
    if kind == "zeros":
        return np.zeros(spec.shape)
    if kind == "ones":
        return np.ones(spec.shape)
    if kind == "normal":
        return rng.normal(0.0, spec.init[1], size=spec.shape)
    return _truncated_normal(rng, spec.shape, spec.init[1])


def init_model_params(config: ModelConfig) -> ModelParams:
    """Deterministic initialization from config.seed (rules in :func:`param_schema`)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    dtype = np.dtype(config.precision)
    arrays = {
        spec.name: np.ascontiguousarray(_draw(rng, spec), dtype=dtype)
        for spec in param_schema(config)
    }
    return params_from_arrays(arrays, config)


# ---------------------------------------------------------------------------
# normalization layers
# ---------------------------------------------------------------------------


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-timestep LayerNorm over channels with learned affine."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = centered * inv_std
    return xhat * gain + bias, {"kind": "layernorm", "xhat": xhat, "inv_std": inv_std, "gain": gain}


def rms_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-timestep RMS normalization (no mean subtraction) with affine."""
    ms = np.mean(x * x, axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(ms + NORM_EPS)
    return x * inv_rms * gain + bias, {"kind": "rmsnorm", "x": x, "inv_rms": inv_rms, "gain": gain}


def norm_forward(kind: str, x, gain, bias):
    if kind == "layernorm":
        return layer_norm_forward(x, gain, bias)
    if kind == "rmsnorm":
        return rms_norm_forward(x, gain, bias)
    raise StructuralError(f"unknown norm kind {kind!r}")


# ---------------------------------------------------------------------------
# full model forward
# ---------------------------------------------------------------------------


@dataclass
class ModelCache:
    """What the analytic backward pass reads, embedding to head."""

    config: ModelConfig
    budget: int
    inputs: np.ndarray  # (B, L) token ids or (B, L, in_dim) reals
    norm_caches: list[dict]
    layer_caches: list[LayerCache]
    final_cache: dict
    features: np.ndarray  # (B, L, d) post final norm
    params: ModelParams = field(repr=False)


def model_forward(
    inputs,
    params: ModelParams,
    config: ModelConfig,
    basis: SpectralBasis,
    budget: int,
) -> tuple[np.ndarray, ModelCache]:
    """Forward pass at a runtime budget; returns (outputs, cache).

    The budget is the only runtime input; the gate and truncation mode are
    ``config.gate_enabled`` and ``config.truncation_mode``.  Run another mode
    with ``dataclasses.replace(config, truncation_mode="direct")``.

    Token tasks take integer arrays (B, L); real-valued tasks take
    (B, L, in_dim).  Output is (B, L, out_dim) for per-step heads or
    (B, out_dim) for mean-pool heads.  Pass one sequence ``x`` as ``x[None]``.
    """
    inputs = np.asarray(inputs)
    if basis.seq_len != config.seq_len or basis.capacity != config.capacity:
        raise StructuralError(
            f"basis (seq_len={basis.seq_len}, capacity={basis.capacity}) does "
            f"not match config (seq_len={config.seq_len}, capacity={config.capacity})"
        )

    if config.input_kind == "tokens":
        if not np.issubdtype(inputs.dtype, np.integer):
            raise StructuralError("token inputs must be integers")
        if inputs.ndim != 2 or inputs.shape[1] != config.seq_len:
            raise StructuralError(
                f"token input must be (B, L) with L={config.seq_len}, got {inputs.shape}"
            )
        if inputs.size and (inputs.min() < 0 or inputs.max() >= config.vocab_size):
            raise StructuralError(
                f"token id outside vocabulary [0, {config.vocab_size})"
            )
        x = params.embed_table[inputs]
    else:
        if inputs.ndim != 3 or inputs.shape[1:] != (config.seq_len, config.in_dim):
            raise StructuralError(
                f"real input must be (B, L, {config.in_dim}) with "
                f"L={config.seq_len}, got {inputs.shape}"
            )
        # float64 data must not lift a float32 model's forward and backward
        inputs = inputs.astype(config.precision, copy=False)
        x = inputs @ params.embed_w.T + params.embed_b

    norm_caches: list[dict] = []
    layer_caches: list[LayerCache] = []
    for block in params.blocks:
        normed, ncache = norm_forward(config.norm_kind, x, block.norm_gain, block.norm_bias)
        y, lcache = layer_forward(
            normed, block.layer, basis, budget,
            gate_enabled=config.gate_enabled, truncation=config.truncation_mode,
        )
        norm_caches.append(ncache)
        layer_caches.append(lcache)
        x = x + y  # not in place: an RMSNorm cache holds x
        del y  # so neither the next block nor the final norm holds it

    features, final_cache = norm_forward(
        config.norm_kind, x, params.final_gain, params.final_bias
    )
    if config.head == "per-step":
        out = features @ params.readout_w.T + params.readout_b
    else:  # mean-pool
        pooled = features.mean(axis=1)
        out = pooled @ params.readout_w.T + params.readout_b

    cache = ModelCache(
        config=config,
        budget=budget,
        inputs=inputs,
        norm_caches=norm_caches,
        layer_caches=layer_caches,
        final_cache=final_cache,
        features=features,
        params=params,
    )
    return out, cache


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def checkpoint_writer(params: ModelParams, config: ModelConfig) -> Writer:
    """The "ESSM" container (no optimizer state), holding views of the tensors."""
    w = Writer(CHECKPOINT_MAGIC)
    w.u32(CHECKPOINT_VERSION)
    w.json_block(config.to_dict())
    for _, arr in flatten_params(params, config):
        w.array(arr, config.precision)
    return w


def save_checkpoint(path: str | os.PathLike, params: ModelParams, config: ModelConfig) -> None:
    atomic_write(path, checkpoint_writer(params, config).parts())


def params_from_checkpoint(data: bytes, what: str = "checkpoint") -> tuple[ModelParams, ModelConfig, int]:
    """Decode the "ESSM" container that starts ``data`` into (params, config,
    span); any appended block begins at ``span``.  Nothing is returned until
    the container's CRC matches."""
    r = Reader(data, CHECKPOINT_MAGIC, what=what)
    r.expect_version(CHECKPOINT_VERSION)
    try:
        config = ModelConfig.from_dict(r.json_block(), where=f"{what}.config")
    except ConfigError as exc:
        raise ArtifactError(f"{what} holds an invalid config: {exc}") from exc
    arrays = {spec.name: r.array(spec.shape, config.precision)
              for spec in param_schema(config)}
    span = r.end()
    return params_from_arrays(arrays, config), config, span


def load_checkpoint(
    path: str | os.PathLike,
    basis: SpectralBasis | None = None,
) -> tuple[ModelParams, ModelConfig]:
    """Load params + config; optionally validate compatibility with a basis.

    Ignores any appended optimizer block (see training.load_training_checkpoint
    for that): the file is mapped, so that block is never read.  A basis whose
    (seq_len, capacity) disagree with the stored config raises ArtifactError.
    """
    params, config, _ = params_from_checkpoint(map_file(path),
                                               what=f"checkpoint {os.fspath(path)!r}")
    if basis is not None and (
        basis.seq_len != config.seq_len or basis.capacity != config.capacity
    ):
        raise ArtifactError(
            f"checkpoint expects basis (seq_len={config.seq_len}, "
            f"capacity={config.capacity}) but got (seq_len={basis.seq_len}, "
            f"capacity={basis.capacity})"
        )
    return params, config


def params_fingerprint(params: ModelParams, config: ModelConfig) -> int:
    """CRC32 over all parameter bytes (order-stable); sweeps use it to prove
    they never mutate a checkpoint."""
    acc = 0
    for _, arr in flatten_params(params, config):
        # the CRC of the array's bytes followed by the previous value's
        acc = crc32(acc.to_bytes(4, "little"), crc32(np.ascontiguousarray(arr)))
    return acc
