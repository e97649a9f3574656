"""The numbered demo scripts run to completion against this source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import avasskit

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))
SRC = str(Path(avasskit.__file__).resolve().parent.parent)


def _run(argv: list[str], path_prefix: str | None = None) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if path_prefix is not None:
        env["PATH"] = os.pathsep.join(filter(None, (path_prefix, env.get("PATH"))))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo: Path):
    _run([sys.executable, str(demo)])


def test_cli_tour_runs(tmp_path: Path):
    # the tour calls the installed `avasskit` command; a shim on PATH points
    # it at this source tree instead
    shim = tmp_path / "avasskit"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m avasskit.cli "$@"\n')
    shim.chmod(0o755)
    _run(["sh", str(DEMO_DIR / "06_cli_tour.sh")], path_prefix=str(tmp_path))


def test_every_numbered_demo_is_collected():
    assert len(DEMOS) >= 5
