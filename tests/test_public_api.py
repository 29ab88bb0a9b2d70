"""Every exported name resolves, and the scripts still run against the library."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import matmeans

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(matmeans.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"matmeans.{name}")
    namespace = {}
    exec(f"from matmeans.{name} import *", namespace)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert set(exported) <= set(namespace)


def test_scan_reference_pair_script(tmp_path):
    out = tmp_path / "scan.csv"
    script = ROOT / "scripts" / "scan_reference_pair.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda2(geometric)    = 1.000000000000" in proc.stdout
    assert out.read_text().startswith("p,j,lambda\n")
