"""siwf runs a simulation's set-up without importing scipy, and runs as
``python -m siwf``."""

import os
import subprocess
import sys
from pathlib import Path

from siwf import __version__

SRC = Path(__file__).resolve().parents[1] / "src"

# import the CLI, build the exponential-scheme context of the box model
# (its expm) and draw a noise block (its ndtri), then list scipy modules
SCRIPT = """
import sys
import siwf.cli
from siwf.model import BoxParams, box_model
from siwf.steppers import StepContext
from siwf.trajectories import generate_noise_block
StepContext(box_model(BoxParams(0.5, 0.5, -4.0, 4.0, 16)), "exponential_em", 1e-3)
generate_noise_block(1, 1, 1e-3, 10, range(4))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_setup_imports_no_scipy():
    out = _run("-c", SCRIPT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_python_m_siwf_runs():
    out = _run("-m", "siwf", "--version")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == __version__
