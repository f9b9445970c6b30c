"""From-scratch MLP classifiers with Xavier/Kaiming initialization.

A small numpy-backed library plus an experiment harness: deterministic seeded
RNG, the four initializer variants, 1/2/3-layer softmax classifiers trained
with SGD+momentum, stratified holdout and leave-one-out protocols, and
per-class precision/recall/F1 reporting.
"""

from .data import (
    FEATURE_NAMES,
    LABEL_NAMES,
    N_CLASSES,
    N_FEATURES,
    Dataset,
    holdout_split,
    load_csv,
    loo_splits,
    save_csv,
    standardize,
    synthesize_dataset,
)
from .errors import (
    DataError,
    DivergedTrainingError,
    FormatError,
    MlpInitError,
    ParseError,
    ShapeError,
    UnsupportedVersionError,
    ValidationError,
)
from .evaluation import (
    ClassMetrics,
    Report,
    accumulate_confusion,
    summarize,
)
from .harness import (
    SUITE_CELLS,
    ExperimentConfig,
    ExperimentResult,
    SuiteCell,
    SyntheticSpec,
    load_model,
    render_report,
    result_to_dict,
    run_experiment,
    run_suite,
    save_model,
    suite_to_dict,
)
from .initializers import (
    ALL_SCHEMES,
    KAIMING_NORMAL,
    KAIMING_UNIFORM,
    XAVIER_NORMAL,
    XAVIER_UNIFORM,
    DistKind,
    Family,
    InitScheme,
    initialize,
    target_variance,
    uniform_bound,
)
from .network import (
    ForwardPass,
    Gradients,
    Layer,
    MlpModel,
    Topology,
    backward,
    build_model,
    forward,
    grad_check,
    predict,
)
from .numerics import Rng, derive_seed, relu
from .optimizer import Hyperparams, sgd_step

__version__ = "0.1.0"
