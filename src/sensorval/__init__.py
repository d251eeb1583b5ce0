"""Streaming validation for noisy telemetry.

Scores each reading with a Mamdani fuzzy system, cross-checks windowed
statistics against trip thresholds, reconstructs what it distrusts, and
summarizes sustained faults. The shipped rulebase targets ultrasonic
fill-level sensors but any three-input system in the portable ``.fis``
format drops in.
"""

from .detectors import (
    DegenerateDataError,
    DimensionMismatchError,
    InsufficientDataError,
    PcaModel,
    Window,
    fit_from_csv,
    load_pca_model,
    pca_fit,
    save_pca_model,
    spe,
    spe_batch,
    uncertainty_index,
)
from .defaults import default_system
from .fisfile import (
    Diagnostic,
    ParseResult,
    load_fis,
    parse_fis,
    save_fis,
    serialize_fis,
    validate_fis,
)
from .fuzzy import (
    FuzzySystem,
    InferenceResult,
    LinguisticVariable,
    MembershipFunction,
    Rule,
    control_surface,
    infer,
    infer_batch,
)
from .pipeline import (
    FLAG_NAMES,
    BatchResult,
    ConfigError,
    FaultReport,
    FaultTracker,
    PipelineConfig,
    Sample,
    SensorValidator,
    ValidationOutcome,
    Validator,
    flags_from_bits,
    run_batch,
)
from .simulate import (
    FAULT_KINDS,
    PROFILE_KINDS,
    FaultSpec,
    LabeledStream,
    SignalProfile,
    generate,
    inject,
    inject_all,
)

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "ConfigError",
    "DegenerateDataError",
    "Diagnostic",
    "DimensionMismatchError",
    "FAULT_KINDS",
    "FLAG_NAMES",
    "FaultReport",
    "FaultSpec",
    "FaultTracker",
    "FuzzySystem",
    "InferenceResult",
    "InsufficientDataError",
    "LabeledStream",
    "LinguisticVariable",
    "MembershipFunction",
    "PROFILE_KINDS",
    "ParseResult",
    "PcaModel",
    "PipelineConfig",
    "Rule",
    "Sample",
    "SensorValidator",
    "SignalProfile",
    "ValidationOutcome",
    "Validator",
    "Window",
    "control_surface",
    "default_system",
    "fit_from_csv",
    "flags_from_bits",
    "generate",
    "infer",
    "infer_batch",
    "inject",
    "inject_all",
    "load_fis",
    "load_pca_model",
    "parse_fis",
    "pca_fit",
    "run_batch",
    "save_fis",
    "save_pca_model",
    "serialize_fis",
    "spe",
    "spe_batch",
    "uncertainty_index",
    "validate_fis",
]
