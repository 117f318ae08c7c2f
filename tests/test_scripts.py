import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_floer_table_fine_grid():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "floer_table.py"), "--denom", "100"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    ).stdout
    lines = [line.strip() for line in out.splitlines()]
    assert "t =  1/100: free 0, torsion [99/100, 99/100]; rank over Lambda = 0" in lines
    assert "t = -1/100: free 0, torsion [99/100, 99/100]; rank over Lambda = 0" in lines
    assert len([line for line in lines if line.startswith("t =")]) == 199
