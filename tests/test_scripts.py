import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_floer_table_fine_grid():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "floer_table.py"), "--denom", "100"],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=60,
        check=True,
    ).stdout
    lines = [line.strip() for line in out.splitlines()]
    assert "t =  1/100: free 0, torsion [99/100, 99/100]; rank over Lambda = 0" in lines
    assert "t = -1/100: free 0, torsion [99/100, 99/100]; rank over Lambda = 0" in lines
    assert len([line for line in lines if line.startswith("t =")]) == 199


def test_perfbench_cli_child_traces_a_floer_call(tmp_path):
    # the tracer looks every traced module up in sys.modules and patches it,
    # so the lazily loaded submodules must be registered there before use
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(out), "cli.floer",
         "floer", "Fl3", "--l1", "3/10", "--l2", "7/10"],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["decomposition"] == {"free_rank": 0, "torsion": [[3, 10]]}
    spans = json.loads(out.read_text())["spans"]
    assert [(s[0], s[4]) for s in spans] == [("novikov.module_presentation", "cli.floer")]


def test_every_tracer_target_resolves():
    # perfbench/tracer.py looks each target up by its dotted path when it
    # installs, so deleting or renaming a traced name (the qh c1 wrappers,
    # NovikovSeries.invert, integrate_periodic, hermitian_eigenvalues, ...)
    # would break every --trace 1 run; this catches it first
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, path, *_ in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"{module_name}.{path}"


def test_tracer_self_test_counts(monkeypatch):
    """perfbench/run.py::tracer_self_test requires exactly these call counts
    before any --trace 1 run: a check 08 that calls gc_map more or less
    often, or a disk series of another length, would fail every traced run."""
    from gcfloer import floer, gc_core, verify

    def count_calls(module, name):
        calls, inner = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or inner(*a, **k))
        return calls

    calls = count_calls(gc_core, "gc_map")
    verify.check_geometry(fast=True)
    assert len(calls) == 105
    calls = count_calls(floer, "open_gw_integral")
    floer.open_gw_series(0.3 + 0.2j, K=40)
    assert len(calls) == 861
