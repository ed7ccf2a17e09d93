"""condet: exact matrix determinants by pivot-anchored condensation.

The package collapses an n x n matrix into an (n-1) x (n-1) matrix of
2x2 minors anchored at a pivot entry, which multiplies the determinant
by pivot**(n-2); repeating the step and dividing the pivot powers back
out yields the determinant.  Independent classical oracles (cofactor
expansion, fraction-free Bareiss elimination, rational Gaussian
elimination) cross-check every piece, and a seeded bench measures
operation counts and entry growth.
"""

from .bench import (
    BENCH_METHODS,
    DEFAULT_CONFIG,
    BenchConfig,
    BenchRecord,
    MethodDisagreement,
    SplitMix64,
    format_report,
    growth_report,
    hadamard_bit_bound,
    parse_report,
    random_integer_matrix,
    random_rational_matrix,
    run_bench,
)
from .condense import (
    CondensationStep,
    DetResult,
    PivotStrategy,
    ZeroRowExit,
    condense_at,
    condense_at_11,
    det_condensation,
    dodgson_identity_residual,
    select_pivot,
    trace_document,
    trace_from_document,
)
from .matrix import Matrix, PivotSpec, remove_rows_cols
from .oracle import (
    COFACTOR_SIZE_LIMIT,
    det_bareiss,
    det_cofactor,
    det_gauss_rational,
)
from .scalars import (
    FLOAT,
    INTEGER,
    KINDS,
    RATIONAL,
    ExactDivisionError,
    OpCounts,
    ScalarKind,
    ScalarParseError,
    bit_length,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "PivotSpec",
    "remove_rows_cols",
    "ScalarKind",
    "ScalarParseError",
    "ExactDivisionError",
    "OpCounts",
    "RATIONAL",
    "INTEGER",
    "FLOAT",
    "KINDS",
    "bit_length",
    "CondensationStep",
    "ZeroRowExit",
    "DetResult",
    "PivotStrategy",
    "condense_at_11",
    "condense_at",
    "dodgson_identity_residual",
    "select_pivot",
    "det_condensation",
    "trace_document",
    "trace_from_document",
    "COFACTOR_SIZE_LIMIT",
    "det_cofactor",
    "det_bareiss",
    "det_gauss_rational",
    "SplitMix64",
    "random_integer_matrix",
    "random_rational_matrix",
    "BenchConfig",
    "BenchRecord",
    "BENCH_METHODS",
    "DEFAULT_CONFIG",
    "MethodDisagreement",
    "run_bench",
    "format_report",
    "parse_report",
    "growth_report",
    "hadamard_bit_bound",
    "__version__",
]
