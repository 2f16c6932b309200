"""Documentation guardrails: every public module/class/function has a
docstring, and no docs table names a session conf key that does not exist."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.common import faults
from repro.common.conf import DEFAULT_CONF

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: a name under one of the session-conf prefixes (backticks stripped)
_SESSION_NAME_RE = re.compile(r"^(sql|engine|tracing|serving)\.[A-Za-z0-9_.]+$")


def _iter_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return sorted(out)


MODULES = _iter_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exported from elsewhere
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                missing.append(name)
    assert not missing, f"{module_name}: undocumented public items {missing}"


def test_every_package_exports_all_or_is_leaf():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        if hasattr(module, "__path__"):  # a package
            assert hasattr(module, "__all__") or module.__doc__, module_name


def _first_cells(path):
    """The first cell of every markdown table row in ``path``, unquoted."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("|"):
            yield line.strip().strip("|").split("|")[0].strip().strip("`")


def test_doc_tables_name_only_declared_conf_keys_or_metrics():
    known = set(DEFAULT_CONF) | set(_first_cells(DOCS / "metrics.md"))
    # fault-point names share the prefixes (docs/fault_tolerance.md registry)
    known |= {v for k, v in vars(faults).items() if k.startswith("FAULT_")}
    stale = [f"{path.name}: {cell}"
             for path in sorted(DOCS.glob("*.md"))
             for cell in _first_cells(path)
             if _SESSION_NAME_RE.match(cell) and cell not in known]
    assert not stale, (f"docs tables name keys that are neither in "
                       f"DEFAULT_CONF nor docs/metrics.md: {stale}")
