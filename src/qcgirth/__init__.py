"""Girth-12 quasi-cyclic LDPC codes: construction, verification, decoding."""

from .alist import export_alist, import_alist
from .decoder import (
    CSV_HEADER,
    ChannelParams,
    DecodeResult,
    TrialSummary,
    decode_sp,
    monte_carlo,
    summaries_to_csv,
    syndrome,
)
from .errors import BudgetError, SearchBudgetError
from .extension import (
    ConditionReport,
    QcFamily,
    check_seed_conditions,
    extend_family,
    family_manifest,
    tightness_witness,
)
from .girth import (
    EXPONENT_CHECK,
    GRAPH_BFS,
    CycleSpectrum,
    CycleWitness,
    GirthReport,
    exponent_sums,
    find_cycle,
    girth_fast,
    girth_oracle,
)
from .gf2 import gf2_rank
from .search import SearchConfig, find_certified_seed
from .matrices import (
    ExponentMatrix,
    QcCode,
    SparseBinaryMatrix,
    expand,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CSV_HEADER",
    "ChannelParams",
    "ConditionReport",
    "CycleSpectrum",
    "CycleWitness",
    "DecodeResult",
    "EXPONENT_CHECK",
    "ExponentMatrix",
    "GRAPH_BFS",
    "GirthReport",
    "QcCode",
    "QcFamily",
    "SearchBudgetError",
    "SearchConfig",
    "SparseBinaryMatrix",
    "TrialSummary",
    "check_seed_conditions",
    "decode_sp",
    "find_certified_seed",
    "expand",
    "exponent_sums",
    "export_alist",
    "extend_family",
    "family_manifest",
    "find_cycle",
    "gf2_rank",
    "girth_fast",
    "girth_oracle",
    "import_alist",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "monte_carlo",
    "save_matrix",
    "summaries_to_csv",
    "syndrome",
    "tightness_witness",
]
