import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_selftest_passes():
    # perfbench/tracer.py looks up each traced function by name, so a src/
    # change that deletes or renames one fails here, not in a traced run
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert r.returncode == 0, r.stdout + r.stderr
