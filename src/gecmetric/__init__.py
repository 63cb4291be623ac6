"""Evaluation toolkit for grammatical error correction systems.

Reference-based metrics (n-gram overlap, edit-level F, token-level
improvement), reference-less grammaticality metrics (detector error
counts, a learned fluency model), linear interpolation between the two
families with an oracle mixing weight, and meta-evaluation utilities:
correlation with human rankings, reference ablation, and a gaming check.
"""

from .analysis import (
    LAMBDA_GRID,
    AblationPoint,
    GamingCheckReport,
    LambdaPoint,
    LambdaSweepResult,
    RankedSystem,
    SignificanceEntry,
    SystemScore,
    ablate_references,
    compare_correlations,
    fisher_z,
    gaming_check,
    interpolate,
    interpolate_value,
    mean_score,
    pearson,
    rank_systems,
    sample_reference_subset,
    spearman,
    sweep_lambda,
)
from .corpus import (
    AnnotatedSource,
    AnnotationSet,
    Edit,
    Sentence,
    apply_edits,
    tokenize,
)
from .errors import (
    DetectorError,
    GecMetricError,
    ModelError,
    ParseError,
    ValidationError,
)
from .formats import (
    HumanRanking,
    build_report,
    parse_human_ranking,
    parse_m2,
    read_human_ranking,
    read_m2_file,
    read_parallel_text,
    read_reference_files,
    render_report,
    serialize_m2,
    write_report,
)
from .gleu import (
    MEAN_OVER_ALL,
    SAMPLED,
    GleuConfig,
    gleu_corpus,
    gleu_multi_ref,
    gleu_sentence,
)
from .grammaticality import (
    ArticleAgreementDetector,
    CapitalizationDetector,
    DetectorSuite,
    DuplicateTokenDetector,
    ErrorSpan,
    ExternalChecker,
    SpacedPunctuationDetector,
    SpellingDetector,
    TerminalPunctuationDetector,
    Wordlist,
    build_default_suite,
    error_count_corpus,
    error_count_score,
)
from .imeasure import (
    IMeasureConfig,
    TokenCounts,
    classify_tokens,
    i_measure_corpus,
    i_measure_sentence,
    weighted_accuracy,
)
from .lfm import (
    BOS,
    FEATURE_NAMES,
    UNK,
    FeatureVector,
    LfmModel,
    NgramLm,
    featurize,
    lfm_score,
    load_lfm_model,
    predict_raw,
    save_lfm_model,
    train_lm,
    train_ridge,
)
from .maxmatch import (
    M2Config,
    M2SentenceCounts,
    extract_system_edits,
    f_beta,
    m2_corpus,
    m2_sentence,
)

__version__ = "0.1.0"
