"""siwf runs a simulation's set-up without importing scipy."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_setup_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
