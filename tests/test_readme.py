"""The Python examples in README.md run as written.

Every ```python block runs, in order, as one script: later blocks use names
the earlier ones define.  The script runs in its own process against this
checkout's package, with BLAS pinned to one thread.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path):
    assert BLOCKS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", "\n".join(BLOCKS)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
