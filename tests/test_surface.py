"""The public surface: every exported name resolves, removed names stay gone,
and the benchmark's own calls into the package still work."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import specguard

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(specguard.__path__, "specguard.")
    if info.name != "specguard.__main__"
)


@pytest.mark.parametrize("name", ["specguard", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


#: Names removed from the package, each with the module that held it.
REMOVED = [
    ("CharContext", "specguard.charmatrix"),
    ("char_context", "specguard.charmatrix"),
    ("s_apply", "specguard.pseudospec"),
    ("bracket", "specguard.pseudospec"),
    ("DegenerateSError", "specguard.errors"),
    ("_factor_mean", "specguard.variance"),
    ("_MakeV", "specguard.pseudospec"),
    ("_RealIidCovariance", "specguard.pseudospec"),
    ("_sample_factors", "specguard.pseudospec"),
    ("_variance_apply", "specguard.pseudospec"),
    ("_V", "specguard.variance"),
    ("_Covariance", "specguard.variance"),
    ("_variance_apply", "specguard.variance"),
    ("_compose", "specguard.pseudospec"),
    ("_Covariance", "specguard.pseudospec"),
    ("_Covariance", "specguard.oracle"),
    ("_pointwise", "specguard.variance"),
    ("_variance_half", "specguard.variance"),
    ("_equil_scale", "specguard.charmatrix"),
    ("_fit", "specguard.charmatrix"),
    ("_ridged_cholesky", "specguard.pseudospec"),
]


@pytest.mark.parametrize("name, module", REMOVED)
def test_removed_names_stay_removed(name, module):
    for owner in (specguard, importlib.import_module(module)):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert name not in getattr(owner, "__all__", ())


def test_the_benchmark_selftest_passes():
    # bench/ calls into the package by name: a change that deletes or renames
    # one of those names fails here, not first in a benchmark run.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
