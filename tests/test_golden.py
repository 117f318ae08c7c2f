"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case runs `gcfloer.cli.main` in process and compares against the
JSON file of the same name in tests/golden/. The README promises output
that is byte-stable for fixed flags and seeds; these files pin it.

To record the files afresh after a deliberate output change, run
`PYTHONPATH=src python3 tests/test_golden.py`.  It writes nothing unless
every critical point of `readme_critical_fl3` lies within 1e-12 of a
closed-form point.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gcfloer.cli import main
from gcfloer.potential import fl3_critical_points

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
    "critical_no_start_exit3": ["critical", "Fl3", "--starts", "1", "--seed", "10"],
    "verify_all_fast": ["verify-all", "--fast"],
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


def cold_imports(argv):
    """The process of a cold `python -X importtime -m gcfloer.cli argv`, and
    the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gcfloer.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    # "import time: <self us> | <cumulative us> | <indent><module>"
    return proc, re.findall(r"^import time:[^|]*\|[^|]*\| +(\S+)$", proc.stderr, re.M)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("readme_floer")))
def test_cold_floer_runs_without_numpy(name):
    # floer is exact Novikov elimination in pure Python; a cold
    # `python -m gcfloer.cli floer ...` must not pay for importing numpy
    proc, imported = cold_imports(CASES[name])
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert (proc.returncode, proc.stdout) == (expected["exit"], expected["stdout"])
    assert "gcfloer" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


@pytest.mark.parametrize(
    "name", ["polytope_outside_exit2", "readme_polytope_gr24", "readme_potential_gr25"])
def test_cold_polytope_and_potential_run_without_numpy(name):
    # facets, fiber types and potential terms are exact or decided on floats
    # alone; a cold call must not pay for importing numpy
    proc, imported = cold_imports(CASES[name])
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    stderr = "".join(line for line in proc.stderr.splitlines(keepends=True)
                     if not line.startswith("import time:"))
    assert (proc.returncode, proc.stdout, stderr) == (
        expected["exit"], expected["stdout"], expected["stderr"])
    assert "gcfloer" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


def test_cold_critical_runs_without_numpy_random():
    # the Newton starts come from the stdlib random module, which numpy
    # loads anyway; numpy.random would add about 5 MB to the peak RSS of a
    # cold `critical` call
    name = "readme_critical_fl3"
    proc, imported = cold_imports(CASES[name])
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert (proc.returncode, proc.stdout) == (expected["exit"], expected["stdout"])
    assert "numpy" in imported
    assert not [m for m in imported if m.startswith("numpy.random")]


def check_fl3_points(rec):
    """Raise ValueError unless each critical point that rec printed lies
    within 1e-12 of a closed-form point of Fl(3)."""
    doc = json.loads(rec["stdout"])
    l1, l2 = (Fraction(*doc["lambda"][k]) for k in ("l1", "l2"))
    want = np.array(fl3_critical_points(l1, l2, doc["T0"]))
    for point in doc["critical_points"]:
        y = np.array([complex(z["re"], z["im"]) for z in point["y"]])
        off = np.abs(want - y).max(axis=1).min()
        if not off < 1e-12:
            raise ValueError(f"printed point {y} lies {off:.3g} from every closed form")


if __name__ == "__main__":
    records = {name: record(argv) for name, argv in CASES.items()}
    check_fl3_points(records["readme_critical_fl3"])
    for name, rec in records.items():
        text = json.dumps(rec, indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}.json", file=sys.stderr)
