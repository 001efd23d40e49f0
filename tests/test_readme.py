"""README's code runs as printed."""
import os
import subprocess
import sys
from pathlib import Path

from selrec import SolverSettings

ROOT = Path(__file__).resolve().parent.parent


def _fenced_python(heading: str) -> str:
    """The first fenced python block under a README heading."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("\n## ", 1)[0].split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_and_meets_quad_tol():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _fenced_python("Library example")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ode_l1, rec_l1, max_z = map(float, proc.stdout.split())
    quad_tol = SolverSettings(t_max=1.0).quad_tol
    assert ode_l1 < quad_tol
    assert rec_l1 < 10 * quad_tol
    assert max_z < 4.5
