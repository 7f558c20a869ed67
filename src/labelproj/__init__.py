"""Toolkit for joint translation and span-label projection.

Serializes span annotations into inline markers, drives any translation
backend over the tagged text, parses markers back into spans, and scores
the projection against parallel references.
"""

from .backends import (
    ConstantScorer,
    HttpScorerBackend,
    HttpTranslationBackend,
    IdentityBackend,
    ScorerBackend,
    TagDropperBackend,
    TagShufflerBackend,
    TranslationBackend,
)
from .codec import (
    MarkerScheme,
    decode,
    encode,
    project,
    signature,
    tag_name,
)
from .corpus import (
    DirectedExample,
    PreparedCorpus,
    QaParallelPair,
    RawMarkupPair,
    filter_parallel_qa,
    prepare_training_corpus,
    tag_swap,
)
from .dataio import DatasetFormat, dump, ingest_qa, load, read_diagnostics
from .errors import (
    AlignmentError,
    BackendError,
    BackendUnreachableError,
    EmptyInputError,
    ErrorBudgetExceeded,
    FormatError,
    InvalidAnnotationError,
    LabelProjError,
    NoTokensError,
    ScorerUnavailableError,
)
from .evaluation import PRF, EvalReport, build_report, label_match_f1
from .model import AnnotatedText, Diagnostic, Span, TaggedText, validate
from .similarity import gestalt_ratio
from .synth import InsertionMode, MarkerConfig, derive_seed, insert_markers, tokenize_boundaries

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AnnotatedText",
    "BackendError",
    "BackendUnreachableError",
    "ConstantScorer",
    "DatasetFormat",
    "Diagnostic",
    "DirectedExample",
    "EmptyInputError",
    "ErrorBudgetExceeded",
    "EvalReport",
    "FormatError",
    "HttpScorerBackend",
    "HttpTranslationBackend",
    "IdentityBackend",
    "InsertionMode",
    "InvalidAnnotationError",
    "LabelProjError",
    "MarkerConfig",
    "MarkerScheme",
    "NoTokensError",
    "PRF",
    "PreparedCorpus",
    "QaParallelPair",
    "RawMarkupPair",
    "ScorerBackend",
    "ScorerUnavailableError",
    "Span",
    "TagDropperBackend",
    "TagShufflerBackend",
    "TaggedText",
    "TranslationBackend",
    "build_report",
    "decode",
    "derive_seed",
    "dump",
    "encode",
    "filter_parallel_qa",
    "gestalt_ratio",
    "ingest_qa",
    "insert_markers",
    "label_match_f1",
    "load",
    "prepare_training_corpus",
    "project",
    "read_diagnostics",
    "signature",
    "tag_name",
    "tag_swap",
    "tokenize_boundaries",
    "validate",
]
