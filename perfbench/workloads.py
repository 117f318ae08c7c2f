"""The three benchmark workloads and the closed forms their outputs are checked against.

Each workload runs in passes. A pass returns a list of ops; an op is one
call into gcfloer (a verification check, a module decomposition or a CLI
call) with its wall time and whether its output was right.

- verify: ``verify.run_all(fast=True)``, ``run_all(fast=False)`` and
  another fast call in process, one op per check (27 per pass).
- fibers: a Floer-module sweep in the shape of scripts/floer_table.py, one
  ``module_presentation`` op per input (502 per pass), one of which runs
  under a deadline.
- cli: the README's eight example commands, each a one-shot
  ``python -m gcfloer.cli`` child process, run one at a time.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
CLI_SPANS = ROOT / ".perfbench" / "cli-spans"
PROBE_SAMPLES = ROOT / ".perfbench" / "probe-samples.txt"

# The t = 1e-12 fibre op runs NovikovSeries.invert for ~truncation / 2t
# geometric-series steps, so it cannot finish; every other op takes < 3 s.
DEADLINE_S = 1.0
CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    note: str = ""
    wrong: bool = False  # the call returned, but its output was not the closed form
    start: float = 0.0  # perf_counter when the call began


class DeadlineMissed(Exception):
    pass


def draw_inputs(seed):
    """Everything the workloads take from the seed: the two bounding
    parameters x = i theta of the fibers sweep and the ``critical --seed``
    of cli.

    x is a holonomy (Re x = 0), as at the paper's b = +-i pi/2: the two
    terms of the Gr(2,4) differential then have equal modulus, so Novikov
    elimination runs its full geometric series and the cost of an op does
    not depend on the seed. theta keeps the t = 0 coefficient 2 cos(theta)
    of T well away from zero.
    """
    rng = random.Random(seed)
    xs = []
    while len(xs) < 2:
        theta = rng.uniform(-math.pi, math.pi)
        if abs(math.cos(theta)) > 0.1:
            xs.append(1j * theta)
    return {"x": xs, "critical_seed": rng.randrange(1000)}


def run_op(tracer, name, fn, check, deadline=None):
    """Time fn() and check its value; returns (Op, value or None).

    An exception or a missed deadline fails the op; check(value) returns
    None for a right answer and a note for a wrong one."""
    if tracer is not None:
        tracer.op = name
    start = time.perf_counter()
    try:
        if deadline is not None:
            previous = signal.signal(signal.SIGALRM, _raise_deadline)
            signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            if tracer is not None:
                with tracer.span(name):
                    value = fn()
            else:
                value = fn()
        finally:
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
    except DeadlineMissed:
        return Op(name, time.perf_counter() - start, False, f"missed {deadline} s deadline",
                  start=start), None
    except Exception as exc:  # a raising op is a failed op, not a failed run
        note = f"{type(exc).__name__}: {exc}"
        return Op(name, time.perf_counter() - start, False, note, start=start), None
    seconds = time.perf_counter() - start
    try:
        note = check(value)
    except (LookupError, TypeError, ValueError) as exc:
        note = f"malformed output: {exc!r}"
    return Op(name, seconds, note is None, note or "", wrong=note is not None,
              start=start), value


def _raise_deadline(signum, frame):
    raise DeadlineMissed()


# ---------------------------------------------------------------------------
# verify


class Verify:
    name = "verify"
    setup_probe = "import gcfloer.verify"
    probe_kernel = "numeric"
    min_passes = 1

    def __init__(self, seed):
        from gcfloer import verify

        self.verify = verify

    def run_pass(self, tracer, probe=None):
        """run_all(fast=True), run_all(fast=False), then run_all(fast=True).

        A single fast call (about 2 s) varies more from run to run than the
        full one, so verify_fast_s is the median (the mean) of two.
        Returns (ops, {"verify_fast_s": [2 intervals], "verify_s": [1 interval]}),
        an interval being the perf_counter times (start, end).
        """
        ops, sections = [], {"verify_fast_s": [], "verify_s": []}
        for fast in (True, False, True):
            start = time.perf_counter()
            ops += self._run_all(tracer, fast)
            sections["verify_fast_s" if fast else "verify_s"].append(
                (start, time.perf_counter()))
        return ops, sections

    def _run_all(self, tracer, fast):
        verify, ops = self.verify, []
        prefix = "verify.fast." if fast else "verify."

        def timed(check):
            def op_check(fast=False):
                op, result = run_op(tracer, prefix + check.__name__,
                                    lambda: check(fast=fast),
                                    lambda r: None if r.passed else r.detail)
                ops.append(op)
                if result is None:
                    return verify.CheckResult(check.__name__, False, op.note)
                op.name = prefix + result.check_id
                return result

            return op_check

        checks = verify.ALL_CHECKS
        verify.ALL_CHECKS = tuple(timed(c) for c in checks)
        try:
            verify.run_all(fast=fast)
        finally:
            verify.ALL_CHECKS = checks
        return ops


# ---------------------------------------------------------------------------
# fibers


def fibers_inputs(seed):
    """[(name, differential, ring, expected (free rank, torsion), deadline)]."""
    from gcfloer.floer import m1_fl3, m1b_gr24

    xs = draw_inputs(seed)["x"]
    one = Fraction(1)
    inputs = []
    for k in range(-49, 50):
        t = Fraction(k, 50)
        for i, x in enumerate(xs):
            d = m1b_gr24(1, t, x)
            inputs.append((f"gr24.t={t}.x{i}.Lambda0", d, "Lambda0",
                           (0, (one - abs(t), one - abs(t))), None))
            inputs.append((f"gr24.t={t}.x{i}.Lambda", d, "Lambda", (0, ()), None))
    for x in (0.5j * math.pi, -0.5j * math.pi):
        d = m1b_gr24(1, 0, x)
        for ring in ("Lambda0", "Lambda"):
            inputs.append((f"gr24.t=0.x={x}.{ring}", d, ring, (4, ()), None))
    t = Fraction(1, 100)
    inputs.append(("gr24.t=1/100.Lambda0", m1b_gr24(1, t, xs[0]), "Lambda0",
                   (0, (one - t, one - t)), None))
    t = Fraction(1, 10**12)
    inputs.append(("gr24.t=1e-12.Lambda0", m1b_gr24(1, t, xs[0]), "Lambda0",
                   (0, (one - t, one - t)), DEADLINE_S))
    for a in range(1, 11):
        for b in range(1, 11):
            l1, l2 = Fraction(a, 10), Fraction(b, 10)
            inputs.append((f"fl3.{l1},{l2}", m1_fl3(l1, l2), "Lambda0",
                           (0, (min(l1, l2),)), None))
    return inputs


class Fibers:
    name = "fibers"
    setup_probe = "import workloads; workloads.fibers_inputs(seed)"
    probe_kernel = "numeric"
    min_passes = 2

    def __init__(self, seed):
        from gcfloer import novikov

        self.novikov = novikov
        self.inputs = fibers_inputs(seed)

    def run_pass(self, tracer, probe=None):
        start = time.perf_counter()
        ops = []
        for name, d, ring, expected, deadline in self.inputs:
            def call(d=d, ring=ring):
                # looked up per call so a traced run sees the patched function
                return self.novikov.module_presentation(d, ring=ring)

            def check(dec, expected=expected):
                got = (dec.free_rank, tuple(dec.torsion_exponents))
                if got != expected or dec.lambda_rank() != expected[0]:
                    return f"got {got}, want {expected}"
                return None

            ops.append(run_op(tracer, name, call, check, deadline)[0])
        return ops, {"fibers_s": [(start, time.perf_counter())]}


# ---------------------------------------------------------------------------
# cli

# Fl(3) potential at l1 = l2 = 1 on the variables (y1, y2, y3) of the
# CLI output: (T exponent, y exponents) of each unit-coefficient term.
FL3_TERMS = ((0, (0, -1, 0)), (0, (0, -1, 1)), (0, (1, 0, -1)),
             (0, (1, 0, 0)), (1, (-1, 0, 0)), (1, (0, 1, 0)))
# Gr(2,5) potential at lam = 1: ((num, den) of the T exponent, y exponents).
GR25_TERMS = sorted([
    ([1, 1], [0, -1, 0, 0, 0, 0]), ([0, 1], [-1, 1, 0, 0, 0, 0]),
    ([0, 1], [1, 0, -1, 0, 0, 0]), ([0, 1], [0, 1, 0, -1, 0, 0]),
    ([0, 1], [0, 0, -1, 1, 0, 0]), ([0, 1], [0, 0, 1, 0, -1, 0]),
    ([0, 1], [0, 0, 0, 0, 1, 0]), ([0, 1], [0, 0, 0, 1, 0, -1]),
    ([0, 1], [0, 0, 0, 0, -1, 1]),
])


def _fl3_log_gradient(y, T):
    grad = [0j, 0j, 0j]
    for a, e in FL3_TERMS:
        mono = T**a * y[0] ** e[0] * y[1] ** e[1] * y[2] ** e[2]
        for i in range(3):
            grad[i] += e[i] * mono
    return max(abs(g) for g in grad)


def _check_polytope(doc):
    # The Gr(2,4) GC polytope has 6 facets; u = (t,t,t,t), 0 < t < lam, is
    # the Lagrangian U(2) fibre L_t.
    fiber = doc["fiber"]
    if doc["facet_count"] != 6 or fiber["kind"] != "U2" or not fiber["lagrangian"]:
        return f"facets {doc['facet_count']}, fiber {fiber}"
    return None


def _check_potential(doc):
    got = sorted((t["t_exp"], t["y_exp"]) for t in doc["terms"])
    if got != GR25_TERMS or any(t["coeff"] != [1.0, 0.0] for t in doc["terms"]):
        return f"terms {doc['terms']}"
    return None


def _check_critical(doc):
    T = doc["T0"]
    points = [[complex(z["re"], z["im"]) for z in p["y"]] for p in doc["critical_points"]]
    if len(points) != 6:
        return f"{len(points)} critical points, want 6"
    worst = max(_fl3_log_gradient(y, T) for y in points)
    if worst >= 1e-9:
        return f"closed-form residual {worst:.3g}"
    for i, p in enumerate(points):
        for q in points[:i]:
            if max(abs(a - b) for a, b in zip(p, q)) < 1e-6:
                return "duplicate critical points"
    closed = doc["closed_form"]
    if len(closed) != 6 or max(c["max_residual"] for c in closed) >= 1e-9:
        return f"closed-form report {closed}"
    return None


def _check_qh(doc):
    # c1 = 4 sigma_1 on Gr(2,4) at q = 1/16: 4 sqrt2 i^j q^(1/4) and a double zero
    want = [2 * math.sqrt(2) * 1j**j for j in range(4)] + [0j, 0j]
    got = [complex(re, im) for re, im in doc["eigenvalues"]]
    if len(got) != len(want):
        return f"eigenvalues {doc['eigenvalues']}"
    for w in want:
        near = min(got, key=lambda g: abs(g - w))
        if abs(near - w) > 1e-9:
            return f"eigenvalues {doc['eigenvalues']}"
        got.remove(near)
    return None


def _check_match(doc):
    if doc["matched"] is not True or len(doc["pairing"]) != 10:
        return f"matched {doc['matched']}"
    return None


def _check_decomposition(free, torsion, lambda_rank):
    def check(doc):
        want = {"free_rank": free, "torsion": torsion}
        if doc["decomposition"] != want or doc["lambda_rank"] != lambda_rank:
            return f"decomposition {doc['decomposition']}, want {want}"
        return None

    return check


def cli_commands(seed):
    """The README's example commands, the seed choosing ``critical --seed``."""
    critical_seed = draw_inputs(seed)["critical_seed"]
    return [
        ("polytope", "polytope Gr24 --lam 1 --at 0.3,0.3,0.3,0.3", _check_polytope),
        ("potential", "potential Gr25 --lam 1", _check_potential),
        ("critical", f"critical Fl3 --l1 1 --l2 1 --T0 1/2 --seed {critical_seed} "
                     "--starts 400 --verify-known", _check_critical),
        ("qh", "qh Gr24 --q 1/16", _check_qh),
        ("match", "match Gr25 --lam 1 --T0 3/5", _check_match),
        ("floer", "floer Fl3 --l1 3/10 --l2 7/10",
         _check_decomposition(0, [[3, 10]], 0)),
        ("floer", "floer Gr24 --lam 1 --t 0 --x-im 1.5707963267948966 --ring Lambda",
         _check_decomposition(4, [], 4)),
        ("floer", "floer Gr24 --lam 1 --pair",
         _check_decomposition(0, [[1, 1], [1, 1]], 0)),
    ]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Cli:
    name = "cli"
    setup_probe = "import gcfloer.cli"
    probe_kernel = None  # each child runs its own (see probed.py)
    min_passes = 3

    def __init__(self, seed):
        self.commands = cli_commands(seed)
        self.env = child_env()
        self.child_spans = []
        self._calls = 0

    def run_pass(self, tracer, probe=None):
        start = time.perf_counter()
        ops = [self._call(tracer, probe, sub, argv.split(), check)
               for sub, argv, check in self.commands]
        return ops, {"cli_round_s": [(start, time.perf_counter())]}

    def _call(self, tracer, probe, sub, argv, check):
        """One call. With a probe, the child runs under probed.py, which
        samples the speed of the core it runs on and hands the samples back."""
        self._calls += 1
        if tracer is None and probe is None:
            cmd = [sys.executable, "-m", "gcfloer.cli", *argv]
        elif tracer is None:
            cmd = [sys.executable, str(BENCH / "probed.py"), str(PROBE_SAMPLES),
                   "gcfloer.cli", *argv]
        else:
            CLI_SPANS.mkdir(parents=True, exist_ok=True)
            out = CLI_SPANS / f"call-{self._calls}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(out),
                   f"cli.{sub}", *argv]

        def call():
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            if tracer is not None and out.exists():
                self.child_spans.append(json.loads(out.read_text()))
                out.unlink()
            if probe is not None and PROBE_SAMPLES.exists():
                probe.loads(PROBE_SAMPLES.read_text())
                PROBE_SAMPLES.unlink()
            return proc

        def check_output(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            return check(json.loads(proc.stdout))

        return run_op(None, f"cli.{sub}", call, check_output)[0]


WORKLOADS = {w.name: w for w in (Verify, Fibers, Cli)}
