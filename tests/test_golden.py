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
import sys
from pathlib import Path

import pytest

from gcfloer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

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


if __name__ == "__main__":
    for name, argv in CASES.items():
        text = json.dumps(record(argv), indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}.json", file=sys.stderr)
