"""One layer, many budgets: the same weights serve every channel count.

A budget K runs only the first K spectral channels.  The gate re-weights
the active prefix (masked softmax, exact zeros beyond K), so outputs change
smoothly with K and the full-budget output is recovered at K = capacity.
The per-budget FLOP count is exactly affine in K.
"""

import numpy as np

from elastic_ssm import ModelConfig, build_basis, init_model_params
from elastic_ssm import layer_flop_count, layer_forward


def main():
    cfg = ModelConfig(
        seq_len=128, width=16, gate_hidden=16, capacity=16,
        budget_set=(2, 4, 8, 16), input_kind="real", in_dim=16, out_dim=16,
        depth=1, seed=0,
    )
    basis = build_basis(cfg.seq_len, cfg.capacity)
    layer = init_model_params(cfg).blocks[0].layer
    rng = np.random.default_rng(1)
    u = rng.normal(size=(cfg.seq_len, cfg.width))[None]  # a batch of one

    full, _ = layer_forward(u, layer, basis, cfg.capacity)
    print("distance to the full-capacity output as the budget grows:")
    for budget in (2, 4, 8, 12, 16):
        out, cache = layer_forward(u, layer, basis, budget)
        gap = np.linalg.norm(out - full) / np.linalg.norm(full)
        flops = layer_flop_count(cfg.seq_len, cfg.width, cfg.gate_hidden,
                                 cfg.capacity, budget)
        weights = cache.weights
        print(f"  K={budget:<3d} rel gap={gap:.4f}  "
              f"flops={flops:>9d}  "
              f"mixture weights sum={weights.sum(axis=-1).mean():.6f}")

    print("\nmasked softmax vs direct prefix at K=4:")
    masked, mc = layer_forward(u, layer, basis, 4, truncation="masked")
    direct, dc = layer_forward(u, layer, basis, 4, truncation="direct")
    print(f"  masked: active weights sum to "
          f"{mc.weights.sum(axis=-1).mean():.6f} (renormalized simplex)")
    print(f"  direct: active weights sum to "
          f"{dc.weights.sum(axis=-1).mean():.6f} (mass of dropped channels "
          "is simply lost)")
    print(f"  output difference: {np.linalg.norm(masked - direct):.4f}")

    print("\ngate off -> every active channel gets unit weight, so none are stored:")
    off, cache = layer_forward(u, layer, basis, 4, gate_enabled=False)
    print(f"  cached weights: {cache.weights}")
    print(f"  output difference from the gated layer: {np.linalg.norm(off - masked):.4f}")


if __name__ == "__main__":
    main()
