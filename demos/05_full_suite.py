"""The six-cell comparison: every topology against both initializer families.

Runs the full suite on a synthetic cohort, each cell with its published
hyperparameter preset and a seed derived from the base seed by a fixed
offset, then prints a compact comparison. On Linux the six cells' trainings
run in one pool of forked worker processes, one per CPU, started once for the
whole suite; fork needs no `if __name__ == "__main__":` guard, so this script
runs as it stands. Epochs are reduced and the leave-one-out diagnostic
disabled so the demo finishes in seconds; drop those overrides to reproduce
the full protocol, whose LOO groups then share the same pool.
"""

from mlpinit import ExperimentConfig, KAIMING_NORMAL, SyntheticSpec, Topology, run_suite

base = ExperimentConfig(
    topology=Topology.THREE_LAYER,  # placeholder; the suite varies it
    scheme=KAIMING_NORMAL,
    seed=7,
    epochs=50,
    synthetic=SyntheticSpec(),
    loo_enabled=False,
)

cells = run_suite(base)

print("cell                  seed    bs     lr      m    holdout accuracy")
for cell in cells:
    hp = cell.result.config.resolved_hyperparams()
    acc = cell.result.holdout.accuracy
    print(
        f"{cell.topology.value}-layer + {cell.family.value:<8} {cell.seed:>6}"
        f"   {hp.batch_size:>3} {hp.learning_rate:>7} {hp.momentum:>5}"
        f"   {acc:.3f}"
    )

print(
    "\nEach cell re-run alone with its derived seed reproduces the suite\n"
    "result exactly; see the harness tests for the assertion."
)
