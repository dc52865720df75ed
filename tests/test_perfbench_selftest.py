"""The benchmark's self-test, run against this checkout's package.

``perfbench/selftest.py`` checks the golden-row comparison, that a tripped
numerical guard counts its rows as failed, that a checkout without the
package fails, and that the tracer finds every traced public name.  A change
under ``src/`` that removes or renames a traced name (``fock.apply_loss``,
``distill.apply_strategy``, ...) or stops reporting a guard as exit code 2
fails here.  It writes only under the git-ignored ``.perfbench_work/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
