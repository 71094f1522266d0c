"""The traced benchmark wraps methods by name from the class that defines
them (`DeviceCrlStore.revoked_lvs`, `Device.handle`, `Lop.handle`, ...),
so moving or inheriting one of them breaks `perfbench/tracer.py`. The
install runs in a subprocess to keep the wrapping out of this process."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
Tracer().install()
"""


def test_tracer_installs_on_current_code():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(REPO / "src"), str(REPO / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
