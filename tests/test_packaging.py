"""The declared package surface resolves: every dependency in
pyproject.toml imports and every console script names a real callable."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project() -> dict:
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def test_dependencies_import():
    missing = []
    for requirement in _project().get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        try:
            importlib.import_module(name.replace("-", "_"))
        except ImportError:
            missing.append(requirement)
    assert not missing, f"declared dependencies that do not import: {missing}"


def test_script_targets_resolve():
    broken = []
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            broken.append(f"{name} = {target}")
            continue
        if not callable(obj):
            broken.append(f"{name} = {target}")
    assert not broken, f"console scripts whose target does not resolve: {broken}"
