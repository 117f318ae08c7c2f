"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case runs `gcfloer.cli.main` in process and compares against the
JSON file of the same name in tests/golden/. The README promises output
that is byte-stable for fixed flags and seeds; these files pin it.

To record the files afresh after a deliberate output change, run
`PYTHONPATH=src python3 tests/test_golden.py`.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gcfloer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "readme_polytope_gr24": ["polytope", "Gr24", "--lam", "1", "--at", "0.3,0.3,0.3,0.3"],
    "readme_potential_gr25": ["potential", "Gr25", "--lam", "1"],
    "readme_critical_fl3": [
        "critical", "Fl3", "--l1", "1", "--l2", "1", "--T0", "1/2",
        "--seed", "0", "--starts", "400", "--verify-known",
    ],
    "readme_qh_gr24": ["qh", "Gr24", "--q", "1/16"],
    "readme_match_gr25": ["match", "Gr25", "--lam", "1", "--T0", "3/5"],
    "readme_floer_fl3": ["floer", "Fl3", "--l1", "3/10", "--l2", "7/10"],
    "readme_floer_gr24_lambda": [
        "floer", "Gr24", "--lam", "1", "--t", "0",
        "--x-im", "1.5707963267948966", "--ring", "Lambda",
    ],
    "readme_floer_gr24_pair": ["floer", "Gr24", "--lam", "1", "--pair"],
    "polytope_outside_exit2": ["polytope", "Gr24", "--lam", "1", "--at", "5,5,5,5"],
    "critical_no_start_exit3": ["critical", "Fl3", "--starts", "1", "--seed", "11"],
}


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert record(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("readme_floer")))
def test_cold_floer_runs_without_numpy(name):
    # floer is exact Novikov elimination in pure Python; a cold
    # `python -m gcfloer.cli floer ...` must not pay for importing numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gcfloer.cli", *CASES[name]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert (proc.returncode, proc.stdout) == (expected["exit"], expected["stdout"])
    # "import time: <self us> | <cumulative us> | <indent><module>"
    imported = re.findall(r"^import time:[^|]*\|[^|]*\| +(\S+)$", proc.stderr, re.M)
    assert "gcfloer" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


if __name__ == "__main__":
    for name, argv in CASES.items():
        text = json.dumps(record(argv), indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}.json", file=sys.stderr)
