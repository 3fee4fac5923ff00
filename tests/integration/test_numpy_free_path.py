"""The default engine's light-load path must stay numpy-free.

Importing numpy costs a single simulation about 11 MB of resident
memory, more than half again what a zero-load ``repro run`` needs.  The
idle-cycle lookahead scans the Bernoulli stream with plain Python
integers for that reason; this test runs the command in a fresh
interpreter and checks that nothing on its way imported numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = """
import sys
from repro.cli import main
code = main([
    "run", "--width", "8", "--routing", "footprint", "--traffic", "uniform",
    "--injection-rate", "1e-4", "--warmup", "200", "--measure", "20000",
    "--drain", "2000",
])
assert code == 0, code
leaked = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not leaked, leaked[:5]
"""


def test_zero_load_run_does_not_import_numpy(tmp_path):
    # No REPRO_* override may pick another engine for the child.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "drained       : yes" in proc.stdout
