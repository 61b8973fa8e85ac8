"""The demos' stdout, byte for byte, against tests/demo_golden.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "demo_golden.json").read_text())


def test_golden_names_every_demo():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_stdout_matches_golden_bytes(demo):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN[demo]
