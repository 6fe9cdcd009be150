import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _checkout_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv", [
    ["scripts/wave_fronts.py", "--k", "3", "--r", "3", "--steps", "3"],
    ["scripts/plancherel_mass.py"],
], ids=["wave_fronts", "plancherel_mass"])
def test_script_runs(argv):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_bench_harness_tests_pass():
    # the bench harness reads package internals (wave.distance, the traced
    # counts of radial_exact and wave_exact); its own tests pin them
    done = subprocess.run([sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=_checkout_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_package_runs_as_a_module():
    done = subprocess.run([sys.executable, "-m", "symgraph", "info", "--k", "3", "--r", "4"],
                          cwd=ROOT, env=_checkout_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    doc = json.loads(done.stdout, parse_constant=reject)
    assert doc["command"] == "info" and doc["params"] == {"k": 3, "r": 4, "q": 6}
