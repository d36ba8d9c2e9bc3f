"""The benchmark's tracer (``perfbench/tracing.py``) patches functions of the
package by name. Installing it here makes a name it needs that the package no
longer has fail in the tier-1 suite, not only in a traced benchmark run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # no bytecode: the test only reads perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    code = ("import equicurve; from tracing import Tracer; Tracer().install(); "
            "print(equicurve.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).parent == ROOT / "src" / "equicurve"
