#!/usr/bin/env python3
"""gcfloer benchmark: one workload, timed from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify,fibers,cli} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with no tracing, as costs: wall
times scaled to a fixed reference speed by the probe in speed.py, so that
the changing speed of a shared machine does not show. --trace 1 runs a
tracer self-test, one untraced pass, then traced passes, and reports the
per-layer metrics and the tracing overhead. The last stdout line is a JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are a readable report and the run record. The run record, every op and
(with --trace 1) every span are also written to .perfbench/ in the root.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
CHECK_IDS = ("01-potential-terms", "02-critical-counts", "03-closed-forms",
             "04-critical-values", "05-qh-eigenvalues", "06-disk-integrals",
             "07-floer-modules", "08-geometry", "09-oracles")
CLI_SUBCOMMANDS = ("polytope", "potential", "critical", "qh", "match", "floer")
CALLS_ONLY = ("floer.open_gw_integral", "floer.pair_integral")
# The wall time of one pass: the end-to-end metric pass_s of each workload.
PASS_KEY = {"verify": "verify_s", "fibers": "fibers_s", "cli": "cli_round_s"}
# Readable names of the op latency statistics, and their scale from seconds.
OP_LABEL = {"verify": ("check", "ms", 1e3), "fibers": ("decomp", "ms", 1e3),
            "cli": ("cli_call", "s", 1.0)}


# The tail metric is the highest percentile with at least 10 ops beyond it
# (p99.0 of fibers' 1004 ops), but not below p95: verify and cli have too
# few ops a run for 10 to lie beyond p95, and their p95 lies among their
# slowest calls (verify's full checks, cli's `critical`).
TAIL_PERCENTILE = 95.0


def tail_percentile(n):
    return max(TAIL_PERCENTILE, 100.0 * (1.0 - 10.0 / n))


def percentile(values, p):
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_record(args):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_sha": sha, "src_sha256": digest.hexdigest(),
    }


def fresh_setup(wl_class, seed, probe):
    """Fresh interpreter until the workload is ready: spawn to 'ready'.

    Returns the interval (start, end). The child runs the speed probe and
    prints its samples after 'ready'; they go into `probe`."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import speed; probe = speed.Probe().ticking('python'); probe.__enter__(); "
            f"seed = {seed!r}; {wl_class.setup_probe}; probe.__exit__(); "
            f"print('ready', flush=True); print(probe.dumps())")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=workloads.child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        end = time.perf_counter()
        probe.loads(proc.stdout.read())
    finally:
        proc.stdout.close()
        proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return start, end


def import_profile():
    """cli.import_s and its numpy / scipy.optimize parts from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gcfloer.cli"],
                          cwd=ROOT, env=workloads.child_env(), capture_output=True,
                          text=True, check=True)
    # "import time: <self us> | <cumulative us> | <indent by depth><module>"
    entries = [(len(m.group(2)), m.group(3), int(m.group(1)) * 1e-6) for m in (
        re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
        for line in proc.stderr.splitlines()) if m]
    top = min(depth for depth, _, _ in entries)

    def cumulative(name):
        return next((c for _, n, c in entries if n == name), 0.0)

    return {
        "cli.import_s": sum(c for depth, n, c in entries
                            if depth == top and n in ("gcfloer", "gcfloer.cli")),
        "cli.import.numpy_s": cumulative("numpy"),
        "cli.import.scipy_optimize_s": cumulative("scipy.optimize"),
    }


def tracer_self_test():
    """The tracer must see calls made through names bound by ``from x import y``."""
    from gcfloer import floer, verify

    counts = {}
    for label, span, call, want in (
        ("check_geometry(fast=True)", "gc_core.gc_map",
         lambda: verify.check_geometry(fast=True), 105),
        ("open_gw_series(x, K=40)", "floer.open_gw_integral",
         lambda: floer.open_gw_series(0.3 + 0.2j, K=40), 861),
    ):
        t = tracer.Tracer()
        t.install()
        try:
            call()
        finally:
            t.uninstall()
        counts[label] = t.count(span)
        if counts[label] != want:
            raise RuntimeError(f"tracer self-test: {label} recorded {counts[label]} "
                               f"{span} spans, want {want}")
    return counts


def wall(a, b):
    return b - a


def measure(wl, active_tracer, seconds, min_passes, probe=None):
    """Run passes until another would overrun `seconds` (at least min_passes)."""
    ops, sections = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_ops, pass_sections = wl.run_pass(active_tracer, probe)
        ops += pass_ops
        sections.append(pass_sections)
        typical = section_medians(sections, wall)[PASS_KEY[wl.name]]
        elapsed = time.perf_counter() - start
        if len(sections) >= min_passes and elapsed + max(
                typical, time.perf_counter() - pass_start) > seconds:
            return ops, sections


def section_medians(sections, duration):
    """name -> median of duration(start, end) over that section's intervals."""
    return {k: statistics.median(duration(a, b) for s in sections for a, b in s[k])
            for k in sections[0]}


def end_to_end(args):
    """The timing metrics are costs: seconds at the probe's reference speed
    (see speed.py). The readable report prints the wall times too."""
    wl_class = workloads.WORKLOADS[args.workload]
    probe = speed.Probe()
    setups = [fresh_setup(wl_class, args.seed, probe) for _ in range(SETUP_REPEATS)]
    wl = wl_class(args.seed)
    if wl_class.probe_kernel is None:  # the work runs in child processes
        ops, sections = measure(wl, None, args.seconds, wl_class.min_passes, probe)
    else:
        with probe.ticking(wl_class.probe_kernel):
            ops, sections = measure(wl, None, args.seconds, wl_class.min_passes, probe)
    med = section_medians(sections, probe.cost)
    med_wall = section_medians(sections, wall)
    times = [probe.cost(op.start, op.start + op.seconds) for op in ops]
    walls = [op.seconds for op in ops]
    p_tail = tail_percentile(len(times))
    # call_ms is the call a user makes most: `verify-all --fast` for verify,
    # the median op otherwise. The median of verify's unlike checks would
    # fall between two checks of about 0.1 s and follow their order.
    call = med["verify_fast_s"] if args.workload == "verify" else statistics.median(times)
    metrics = {
        "setup_s": (statistics.median(probe.cost(a, b) for a, b in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(children=args.workload == "cli"), "MB"),
        "pass_s": (med[PASS_KEY[args.workload]], "s"),
        "call_ms": (1e3 * call, "ms"),
        "tail_ms": (1e3 * percentile(times, p_tail), "ms"),
    }
    # readable report under the metric names of each workload
    label, unit, scale = OP_LABEL[args.workload]
    failed = sum(not op.ok for op in ops)
    report = [
        ("setup_s", metrics["setup_s"][0], "s", f"median of {len(setups)} fresh interpreters"),
        ("setup_s wall", statistics.median(b - a for a, b in setups), "s", ""),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB",
         "max over child processes" if args.workload == "cli" else "workload process"),
        ("failed_frac", failed / len(ops), "1", f"{failed}/{len(ops)} ops"),
    ]
    for k, v in med.items():
        report += [(k, v, "s", f"median over {len(sections)} passes"),
                   (f"{k} wall", med_wall[k], "s", "")]
    for stat, xs in (("", times), (" wall", walls)):
        report += [
            (f"{label}_p50_{unit}{stat}", statistics.median(xs) * scale, unit,
             f"{len(xs)} ops"),
            (f"{label}_p95_{unit}{stat}", percentile(xs, TAIL_PERCENTILE) * scale, unit,
             f"p95 of {len(xs)} ops"),
        ]
        if p_tail > TAIL_PERCENTILE:
            report.append((f"{label}_tail_{unit}{stat}", percentile(xs, p_tail) * scale,
                           unit, f"p{p_tail:.2f} of {len(xs)} ops, 10 beyond it"))
    report.append(("probe speed p50", probe.median_speed(), "1",
                   f"of reference, {len(probe.speeds)} samples"))
    extra = {"passes": len(sections), "sections": sections, "setups": setups,
             "probe": list(zip(probe.starts, probe.times, probe.speeds))}
    return ops, metrics, report, extra


def per_layer(args):
    wl_class = workloads.WORKLOADS[args.workload]
    self_test = tracer_self_test()
    imports = import_profile()
    wl = wl_class(args.seed)
    untraced_ops, untraced = wl.run_pass(None)
    t = tracer.Tracer()
    binding_sites = 0
    if args.workload != "cli":
        binding_sites = t.install()
    try:
        ops, sections = measure(wl, t, args.seconds, 1)
    finally:
        t.uninstall()
    spans = t.spans
    counters = dict(t.counters)
    if args.workload == "cli":
        for child in wl.child_spans:
            tracer.merge_spans(spans, child["spans"])
            for k, v in child["counters"].items():
                counters[k] = counters.get(k, 0) + v
    n = len(sections)
    agg = tracer.aggregate(spans)
    metrics = {}
    for name in tracer.SPAN_NAMES:
        a = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (a["calls"] / n, "count")
        if name not in CALLS_ONLY:
            metrics[f"{name}.s"] = (a["s"] / n, "s")
            metrics[f"{name}.self_s"] = (a["self_s"] / n, "s")
    for name in tracer.COUNTER_NAMES:
        metrics[name] = (counters.get(name, 0) / n, "count")
    for check_id in CHECK_IDS:
        for prefix in ("verify.", "verify.fast."):
            secs = [op.seconds for op in ops if op.name == prefix + check_id]
            metrics[f"{prefix}{check_id}.s"] = (statistics.mean(secs) if secs else 0.0, "s")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    for sub in CLI_SUBCOMMANDS:
        secs = [op.seconds for op in ops if op.name == f"cli.{sub}"]
        metrics[f"cli.{sub}.s"] = (statistics.median(secs) if secs else 0.0, "s")
    key = PASS_KEY[args.workload]
    traced_s = section_medians(sections, wall)[key]
    untraced_s = section_medians([untraced], wall)[key]
    overhead = traced_s - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (len(spans) / n, "count")
    report = [(k, v, u, "") for k, (v, u) in metrics.items()]
    report.append((f"tracing overhead on {key}", overhead, "s",
                   f"traced {traced_s:.4f} - untraced {untraced_s:.4f}"))
    report += [(f"self-test spans: {label}", count, "count", "as required")
                for label, count in self_test.items()]
    if args.workload != "cli":  # cli patches inside each child process
        report.append(("binding sites patched", binding_sites, "count", ""))
    extra = {"self_test": self_test, "binding_sites": binding_sites,
             "traced_passes": n, "untraced_sections": untraced, "sections": sections,
             "spans": spans}
    return untraced_ops + ops, metrics, report, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "fibers", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "gcfloer" / "__init__.py").is_file():
        print(f"error: no gcfloer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    record = run_record(args)
    if args.trace:
        ops, metrics, report, extra = per_layer(args)
    else:
        ops, metrics, report, extra = end_to_end(args)

    print(f"# gcfloer benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, value, unit, note in report:
        print(f"{name:<44} {value:>14.6g} {unit:<6} {note}")
    for op in ops:
        if not op.ok:
            print(f"failed op {op.name}: {op.note}")
    print("run " + json.dumps(record, sort_keys=True))
    doc = {"record": record, "metrics": metrics, "extra": extra,
           "ops": [[op.name, op.start, op.seconds, op.ok, op.note] for op in ops]}
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc))
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
