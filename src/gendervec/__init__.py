"""Count-based word embeddings with a grammatical-gender probe.

The package goes from raw text to a judged classifier in small steps:
tokenize and count (:mod:`gendervec.corpus`), build windowed
co-occurrence counts (:mod:`gendervec.cooccurrence`), factor them into
low-rank vectors (:mod:`gendervec.embedding`), attach gender labels
(:mod:`gendervec.lexicon`, :mod:`gendervec.dataset`), train a small
feed-forward net (:mod:`gendervec.classifier`), and score the result
with confusion metrics and nonparametric statistics
(:mod:`gendervec.metrics`).  :mod:`gendervec.pipeline` wires the stages
together and :mod:`gendervec.synthetic` generates a controlled toy
language for end-to-end checks.
"""

from .classifier import (
    MLPModel,
    Predictions,
    TrainConfig,
    gradient_check,
    output_entropy,
    predict,
    predict_records,
    train,
)
from .cooccurrence import CONTEXT_TYPES, ContextConfig, CoocMatrix, count_cooccurrences
from .corpus import (
    Vocabulary,
    build_vocabulary,
    filter_by_frequency,
    normalize_line,
    read_sentences,
)
from .dataset import (
    LabeledExample,
    LabeledSet,
    SplitBundle,
    apportion,
    build_dataset,
    stratified_split,
)
from .embedding import (
    EmbeddingConfig,
    EmbeddingMatrix,
    embed,
    embed_counts,
    power_transform,
    truncated_svd,
)
from .errors import ConfigurationError, DataError, GendervecError, NumericalError
from .lexicon import GenderLexicon, parse_lexicon
from .metrics import (
    EvalReport,
    accuracy,
    build_eval_report,
    confusion_matrix,
    entropy_frequency_analysis,
    fisher_pitman_permutation,
    kendall_tau_b,
    precision_recall_f,
    weighted_accuracy,
    zero_rule_baseline,
)
from .pipeline import (
    GridResult,
    RunManifest,
    final_evaluate,
    grid_search,
    run_experiment,
    run_from_manifest,
)
from .synthetic import SyntheticSpec, generate_synthetic_language

__version__ = "0.1.0"

__all__ = [
    "CONTEXT_TYPES",
    "ConfigurationError",
    "ContextConfig",
    "CoocMatrix",
    "DataError",
    "EmbeddingConfig",
    "EmbeddingMatrix",
    "EvalReport",
    "GendervecError",
    "GenderLexicon",
    "GridResult",
    "LabeledExample",
    "LabeledSet",
    "MLPModel",
    "NumericalError",
    "Predictions",
    "RunManifest",
    "SplitBundle",
    "SyntheticSpec",
    "TrainConfig",
    "Vocabulary",
    "accuracy",
    "apportion",
    "build_dataset",
    "build_eval_report",
    "build_vocabulary",
    "confusion_matrix",
    "count_cooccurrences",
    "embed",
    "embed_counts",
    "entropy_frequency_analysis",
    "filter_by_frequency",
    "final_evaluate",
    "fisher_pitman_permutation",
    "generate_synthetic_language",
    "gradient_check",
    "grid_search",
    "kendall_tau_b",
    "normalize_line",
    "output_entropy",
    "parse_lexicon",
    "power_transform",
    "precision_recall_f",
    "predict",
    "predict_records",
    "read_sentences",
    "run_experiment",
    "run_from_manifest",
    "stratified_split",
    "train",
    "truncated_svd",
    "weighted_accuracy",
    "zero_rule_baseline",
]
