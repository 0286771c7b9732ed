"""The declared package surface resolves: every dependency in
pyproject.toml imports and every console script names a real callable."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


def test_operators_import_without_scipy():
    # scipy is not a dependency, and importing it costs start-up time and
    # memory in every process that builds an operator
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import paratorus.operators; print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_benchmark_tracer_installs_against_the_package():
    # the benchmark's traced run patches paratorus entry points by name;
    # a renamed entry point must fail here, not only in a traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from paratorus import linops, paraproducts, torus

    original = paraproducts._FixedSidePara.apply
    tracer = tracing.Tracer()
    try:
        tracer.install()
        g = torus.grid(2, 16)
        x = linops.random_hermitian(g, np.random.default_rng(0))
        linops.mult_field_op(g, x).apply(x)
    finally:
        tracer.uninstall()
    assert paraproducts._FixedSidePara.apply is original
    assert tracer.counters["linops.mult_field.calls"] == 1
    assert tracer.counters["paraproducts.apply.calls"] == 1
