"""The numbered demo scripts run to completion against this source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import avasskit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))
SRC = str(Path(avasskit.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_every_numbered_demo_is_collected():
    assert len(DEMOS) >= 5
