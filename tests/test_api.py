"""Public surface: every name a module exports has a caller, and no knobs.

A name in a module's __all__ must resolve and be referenced by another
genoweave module (cli.py among them), by a bench/*.py script or by the
acceptance gate, tests/test_acceptance.py.  Unit tests do not count: a name
only they use stays importable but leaves __all__.  When the last caller of
a public name goes away, this test fails until the name is deleted or made
private.  No module reads the environment: a setting the code cannot work
out for itself belongs in the command line.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "genoweave"
BENCH = TESTS.parent / "bench"
MODULES = ("channels", "polar", "rates", "sim", "weave")


def _referenced(path: Path) -> set[str]:
    """Identifiers a file uses: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_and_have_callers(name):
    module = importlib.import_module(f"genoweave.{name}")
    callers = [p for p in PACKAGE.glob("*.py") if p.stem != name]
    callers += [*BENCH.glob("*.py"), TESTS / "test_acceptance.py"]
    used = set().union(*(_referenced(p) for p in callers))
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    unused = [n for n in module.__all__ if n not in used]
    assert not missing, f"{name}.__all__ names that do not resolve: {missing}"
    assert not unused, f"{name}.__all__ names with no caller: {unused}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[int]:
    """Lines where a file touches os.environ or os.getenv, or imports them."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                _ENVIRONMENT & {alias.name for alias in node.names}:
            lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    reads = {p.name: lines for p in paths if (lines := _environment_reads(p))}
    assert not reads, f"environment reads (file: lines): {reads}"
