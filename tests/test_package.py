"""The package's public surface and its import hygiene."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import bubblelab

SRC = Path(bubblelab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")

# names the package no longer defines: the bump test functions and the
# residuals, checks and aliases that no subcommand, pipeline step or
# benchmark workload ran
DELETED = {
    "fields": ["ScalarTestFunction", "VectorTestFunction", "bump_profile",
               "_bump_dprofiles", "_BumpAtom", "_check_support", "weak_residual",
               "stationarity_residual", "bump_adapted_rule", "pohozaev_residual"],
    "monotonicity": ["energy_bound_check", "RegularityReport", "eps_regularity_check",
                     "formulation_diagnostics", "DegenerateEnergyError"],
    "concentration": ["rescale", "bubble_energy_limit"],
    "lorentz": ["duality_product_check", "power_rule_check"],
}


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"bubblelab.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), f"{module}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names undefined {missing}"


def test_every_package_export_is_in_its_module_all():
    exports = {
        name: obj for name, obj in vars(bubblelab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exports
    for name, obj in exports.items():
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("bubblelab."), name
        assert name in getattr(module, "__all__", []), (
            f"bubblelab.{name} is not in {module.__name__}.__all__"
        )


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in DELETED.items() for name in names
])
def test_deleted_names_cannot_be_imported(module, name):
    with pytest.raises(ImportError):
        exec(f"from bubblelab import {name}", {})
    with pytest.raises(ImportError):
        exec(f"from bubblelab.{module} import {name}", {})


def _unused_imports(source: str) -> list[str]:
    """Module-level import names that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    unused = _unused_imports((SRC / f"{module}.py").read_text())
    assert unused == [], f"{module}.py imports names it never reads: {unused}"


def test_unused_import_check_catches_an_unread_name():
    source = "import math\nfrom os import path, sep\nprint(path, math.pi)\n"
    assert _unused_imports(source) == ["sep (line 2)"]
    assert _unused_imports("from __future__ import annotations\nx = 1\n") == []
