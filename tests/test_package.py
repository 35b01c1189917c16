"""The package surface: lazy exports, the modules a cold request loads,
no unused imports in the sources, and no cache outside the family memo."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import polycauchy
from polycauchy import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# every name `polycauchy` exported when its __init__ imported all five
# modules eagerly, by defining module
EXPORTED = {
    "algebra": (
        "Polynomial", "falling_factorial", "poly_derivative", "poly_eval", "poly_shift",
        "rising_factorial",
    ),
    "series": (
        "Series", "SeriesError", "coefficient", "comp_inverse", "compose", "div",
        "exp_series", "exp_t", "factorial_coefficient", "int_pow", "log_one_plus_t",
        "log_series", "mul", "reciprocal",
    ),
    "families": (
        "bernoulli2", "bernoulli_poly", "cauchy_number", "frobenius_euler",
        "higher_cauchy", "lif", "mixed_A", "narumi", "poly_cauchy", "stirling1",
        "stirling2",
    ),
    "umbral": (
        "ShefferPair", "apply_series", "bernoulli_pair", "connection_constants",
        "functional", "identity_pair", "mixed_pair", "sheffer_by_conjugate",
        "sheffer_by_gf", "sheffer_derivative", "sheffer_next", "sheffer_sequence",
        "transfer",
    ),
    "identities": (
        "IDENTITY_IDS", "GridSpec", "VerificationReport", "__version__", "default_grid",
        "verify", "verify_variants",
    ),
}
ALL_NAMES = {name for names in EXPORTED.values() for name in names}

# modules a `table`, `poly` or library request has no use for
HEAVY = (
    "polycauchy.identities", "polycauchy.umbral", "argparse", "json", "csv",
    "dataclasses", "concurrent.futures",
)


# -- lazy exports ----------------------------------------------------------


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_export_is_the_submodule_attribute(module):
    sub = getattr(polycauchy, module)
    for name in EXPORTED[module]:
        assert getattr(polycauchy, name) is getattr(sub, name), name


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from polycauchy import *", namespace)
    assert set(namespace) - {"__builtins__"} == ALL_NAMES


def test_dir_lists_the_exports():
    assert ALL_NAMES <= set(dir(polycauchy))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polycauchy.no_such_name
    assert not hasattr(polycauchy, "cauchy_ratio")


def test_resolved_names_are_not_cached():
    # a wrapper patched onto the submodule (as a tracer does) must be what
    # the package hands out next
    original = polycauchy.families.mixed_A
    polycauchy.families.mixed_A = wrapper = lambda *a: original(*a)
    try:
        assert polycauchy.mixed_A is wrapper
    finally:
        polycauchy.families.mixed_A = original
    assert polycauchy.mixed_A is original
    assert "mixed_A" not in vars(polycauchy)


def test_cli_identity_ids_match_the_registry():
    from polycauchy import identities

    assert cli.IDENTITY_IDS == identities.IDENTITY_IDS


# -- import footprint of a cold process ------------------------------------


def cold(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter without site packages, importing
    polycauchy from the source tree; it prints one loaded module per line."""
    script = code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    return subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_library_request_loads_only_the_core():
    proc = cold(
        "import polycauchy, polycauchy.cli\n"
        "polycauchy.families.mixed_A(12, 2, -1)"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"polycauchy.algebra", "polycauchy.series", "polycauchy.families"} <= loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_table_command_loads_no_harness():
    # argparse parses the command line and csv writes the table
    proc = cold(
        "from polycauchy import cli\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['table', '--family', 'mixed', '--r', '1', '--k', '1', '--n-max', '6'])\n"
        "assert rc == 0, rc"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert sorted(loaded.intersection(HEAVY) - {"argparse", "csv"}) == []


def test_verify_from_a_cold_process():
    proc = cold(
        "from polycauchy import cli\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = cli.main(['verify', 'thm8', '--n-max', '2'])\n"
        "assert rc == 0, rc"
    )
    assert proc.returncode == 0, proc.stderr
    assert "polycauchy.identities" in proc.stdout.split()


@pytest.mark.parametrize(
    "code",
    [
        # a verify request, and a sheffer_by_gf expansion of the mixed pair
        "from polycauchy import cli\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = cli.main(['verify', 'eq17', '--n-max', '2'])\n"
        "assert rc == 0, rc",
        "import polycauchy\n"
        "assert polycauchy.umbral.sheffer_by_gf(polycauchy.umbral.mixed_pair(1, 1, 8), 6)",
    ],
)
def test_harness_loads_neither_dataclasses_nor_inspect(code):
    proc = cold(code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "polycauchy.umbral" in loaded
    assert sorted(loaded.intersection({"dataclasses", "inspect"})) == []


# -- unused imports --------------------------------------------------------


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_unused_imports_are_detected():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import comb\nsys.exit\n"
    assert unused_imports(source) == ["comb (line 3)", "os (line 2)"]


@pytest.mark.parametrize(
    "filename",
    sorted(
        f for f in os.listdir(os.path.join(SRC, "polycauchy"))
        if f.endswith(".py") and f != "__init__.py"
    ),
)
def test_no_unused_module_level_imports(filename):
    with open(os.path.join(SRC, "polycauchy", filename)) as fh:
        assert unused_imports(fh.read()) == []


# -- one process-wide cache ------------------------------------------------


def test_no_submodule_keeps_a_cache_of_its_own():
    # families._memo holds every value kept across calls, so clearing it
    # returns a process to its cold state
    cached = []
    for filename in sorted(os.listdir(os.path.join(SRC, "polycauchy"))):
        if filename.endswith(".py") and filename != "__init__.py":
            module = importlib.import_module(f"polycauchy.{filename[:-3]}")
            cached += [
                f"{module.__name__}.{name}"
                for name, value in vars(module).items() if hasattr(value, "cache_info")
            ]
    assert cached == []
