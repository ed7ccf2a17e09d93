"""The package's public names: removing or adding one is deliberate."""

import ast
import inspect

import condet
from conftest import REPO_ROOT

PUBLIC_NAMES = {
    # matrices and scalars
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
    # condensation
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
    # oracles
    "COFACTOR_SIZE_LIMIT",
    "det_cofactor",
    "det_bareiss",
    "det_gauss_rational",
    # bench
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
}


def test_public_names_are_pinned_and_cover_the_acceptance_imports():
    assert len(condet.__all__) == len(set(condet.__all__))
    assert set(condet.__all__) == PUBLIC_NAMES
    assert all(hasattr(condet, name) for name in PUBLIC_NAMES)
    tree = ast.parse((REPO_ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "condet"
        for alias in node.names
    }
    assert imported, "the acceptance suite imports from condet"
    assert imported <= set(condet.__all__)


def test_scalar_kinds_expose_only_their_own_members():
    # Remainder-checked division runs on integer rows, so it belongs to
    # INTEGER alone; a method shared by every kind is a deliberate change.
    common = {"name", "zero", "one", "parse", "format", "check"}
    own = {"rational": {"integer_row"}, "integer": {"exact_div"}, "float": set()}
    for kind in (condet.RATIONAL, condet.INTEGER, condet.FLOAT):
        public = {name for name in dir(kind) if not name.startswith("_")}
        assert public == common | own[kind.name], kind


def test_det_condensation_takes_one_switch_per_run():
    # record_trace alone picks the traced undivided run or the divided
    # one; a further parameter is a deliberate change.
    assert tuple(inspect.signature(condet.det_condensation).parameters) == ("m", "strategy", "record_trace")


def test_package_names_are_its_modules_names():
    # Each public name is declared once, in the __all__ of its module.
    modules = (condet.matrix, condet.scalars, condet.condense, condet.oracle, condet.bench)
    declared = [name for module in modules for name in module.__all__]
    assert condet.__all__ == [*declared, "__version__"]
    assert len(set(condet.__all__)) == len(condet.__all__)
    assert all(getattr(condet, name) is getattr(module, name) for module in modules for name in module.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from condet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(condet.__all__)


def test_random_rational_matrix_takes_a_size_and_a_generator():
    # Its entry bounds are constants: a parameter for them is a
    # deliberate change, and the seeded corpus must not move.
    assert tuple(inspect.signature(condet.random_rational_matrix).parameters) == ("n", "gen")
    m = condet.random_rational_matrix(3, condet.SplitMix64(1))
    assert [[str(v) for v in row] for row in m.as_tuples()] == [
        ["-1/4", "1", "4"],
        ["-9", "6/7", "-5/3"],
        ["-9/5", "4", "-8/3"],
    ]
