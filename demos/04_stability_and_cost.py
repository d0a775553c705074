"""Why budgeted inference is safe and what it costs.

Safety: every budget satisfies one input-output norm bound whose constant
is computed from the weights alone — the audit checks it on random inputs
at every budget.  Cost: the per-layer FLOP count is exactly affine in the
budget, and training once with budget dropout replaces one training run
per budget (9x cheaper on the spectral branch for the standard grid).
"""

import time

import numpy as np

from elastic_ssm import (
    ModelConfig,
    bibo_audit,
    build_basis,
    init_model_params,
    layer_flop_count,
    layer_forward,
)

GRID = (2, 3, 4, 6, 8, 12, 16, 24, 32)


def main():
    cfg = ModelConfig(
        seq_len=128, width=16, gate_hidden=16, capacity=32, budget_set=GRID,
        input_kind="real", in_dim=16, out_dim=16, depth=1, seed=0,
    )
    basis = build_basis(cfg.seq_len, cfg.capacity)
    layer = init_model_params(cfg).blocks[0].layer

    report = bibo_audit(layer, basis, n_trials=50, input_bound=1.0)
    print("output-norm bound audit (50 random unit-sup-norm inputs, "
          f"budgets 2..{cfg.capacity}):")
    print(f"  constant = {report['constant']:.4f} "
          f"(skip {report['skip_term']:.4f} + "
          f"worst channel {report['conv_term']:.4f})")
    print(f"  max observed ||y||/bound = {report['max_ratio']:.4f}")
    print(f"  violations: {len(report['violations'])}")

    print("\nper-layer FLOPs are exactly affine in the budget:")
    base = layer_flop_count(cfg.seq_len, cfg.width, cfg.gate_hidden,
                            cfg.capacity, 0)
    unit = layer_flop_count(cfg.seq_len, cfg.width, cfg.gate_hidden,
                            cfg.capacity, 2) - base
    for k in GRID:
        flops = layer_flop_count(cfg.seq_len, cfg.width, cfg.gate_hidden,
                                 cfg.capacity, k)
        assert flops == base + k * (unit // 2)
        print(f"  K={k:<4d} {flops:>10d}  = {base} + K*{unit // 2}")

    # separate trainings cost sum(K); one budget-dropout run with uniform
    # sampling costs E[K] per step, so the ratio is the number of budgets
    print(f"\nper-budget retraining vs one budget-dropout run: "
          f"{len(GRID)}x spectral-branch work "
          f"(sum K = {sum(GRID)}, E[K] = {sum(GRID) / len(GRID):.3f})")

    print("\nwall time at a large geometry (L=1024, d=256), median of 3:")
    big = ModelConfig(seq_len=1024, width=256, gate_hidden=256, capacity=32,
                      budget_set=GRID, input_kind="real", in_dim=256,
                      out_dim=256, depth=1, seed=0)
    big_basis = build_basis(big.seq_len, big.capacity)
    big_layer = init_model_params(big).blocks[0].layer
    u = np.random.default_rng(0).normal(size=(big.seq_len, big.width))[None]
    for budget in (4, 32):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            layer_forward(u, big_layer, big_basis, budget)
            times.append(time.perf_counter() - start)
        print(f"  K={budget:<3d} {sorted(times)[1] * 1000:8.1f} ms")


if __name__ == "__main__":
    main()
