"""The benchmark's own tests, run as part of this suite.

They check that every traced span still resolves to a function of the
package and that a traced episode computes the same state as an untraced
one. They run in a child pytest because ``perfbench/tests`` has its own
``conftest.py``: collected together with this suite, both would load as
the one module ``conftest``.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
