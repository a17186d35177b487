"""Segment-lattice CRFs for named entity recognition.

Four model families share one inference core: a linear chain over IOB
tags, a semi-Markov model over all spans up to length L, and two
dependency-guided models whose span lattices are pruned by the sentence's
parse tree (all spans covered by an increasing chain of arcs, or by a
single arc). The combinatorics module independently verifies the counting
identities behind the pruned lattices.
"""

from .combinatorics import (
    LabeledTree,
    VerificationReport,
    average_valid_spans,
    closed_form_F,
    enumerate_trees,
    f_n_count,
    prufer_decode,
    prufer_encode,
    random_tree,
    total_valid_spans,
    verify_identities,
)
from .corpus import (
    ConllParseError,
    DependencyTree,
    EntitySpan,
    LabelSet,
    Sentence,
    SerializationError,
    Token,
    iob_to_spans,
    read_conll,
    read_predictions,
    spans_to_iob,
    write_conll,
)
from .evaluation import EvalReport, SignificanceResult, TypeScore, bootstrap_test, score
from .features import word_shape
from .inference import (
    InvariantViolation,
    Layout,
    ScoredBlock,
    Segmentation,
    allowed_mask,
    backward,
    forward,
    iob_labels,
    log_partition,
    mode_labels,
    viterbi,
)
from .lattice import (
    DGM,
    DGM_S,
    LINEAR,
    MODE_KINDS,
    SEMI,
    Mode,
    SpanLattice,
    average_edges_per_token,
    block_spans,
    build_lattice,
    coverage,
    edge_count,
    representability_stats,
)
from .synth import synthesize
from .training import (
    Model,
    Objective,
    TrainConfig,
    TrainingError,
    bench_per_evaluation,
    cross_validate,
    decode_corpus,
    fit,
    objective_and_gradient,
)

__version__ = "0.1.0"
