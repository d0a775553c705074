"""End to end: train once, deploy at any budget.

A model learns to imitate a linear state-space teacher from input/output
pairs, then a single sweep reads off the accuracy-vs-cost curve: the sweet
spot (smallest budget keeping 98% of full quality) and the collapse
boundary (90%).  The same flow is available from the command line:

    essm train --config run.json
    essm sweep --checkpoint runs/.../checkpoint.essm
"""

from elastic_ssm import (
    ModelConfig,
    RunConfig,
    TaskSpec,
    TrainConfig,
    budget_sweep,
    run_training,
)


def main():
    model = ModelConfig(
        seq_len=64, width=32, gate_hidden=16, capacity=16,
        budget_set=(2, 3, 4, 6, 8, 12, 16), input_kind="real", in_dim=4,
        out_dim=4, depth=1, seed=0,
    )
    train = TrainConfig(steps=300, batch_size=16, lr=3e-3, loss="mse",
                        eval_every=150, checkpoint_every=0, seed=1)
    task = TaskSpec(kind="lds-regression", state_dim=8, data_dim=4,
                    rho_max=0.9, n_samples=256, seed=2)
    run = RunConfig(model=model, train=train, task=task)

    print("training against the state-space teacher ...")
    result = run_training(run)
    print(f"final eval mse at full capacity: "
          f"{result['final_eval']['metric']:.6f}")

    report = budget_sweep(result["params"], model, result["basis"],
                          result["dataset"])
    print(f"\n{'K':<5}{'mse':>12}{'retention':>12}")
    for k, m, r in zip(report.budgets, report.metric, report.retention):
        print(f"{k:<5}{m:>12.6f}{r:>12.4f}")
    print(f"\norientation: {report.orientation}")
    print(f"sweet spot (>= 98% retained):       K = {report.sweet_spot}")
    print(f"collapse boundary (>= 90% retained): K = {report.collapse_boundary}")
    if report.non_monotone:
        print("note: retention curve is non-monotone (reported, not smoothed)")


if __name__ == "__main__":
    main()
