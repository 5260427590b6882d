"""Every script under demos/ runs to completion against the sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # run from a scratch directory: certify_constructions.py writes a .fr2 there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FANRAM_CACHE", None)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
