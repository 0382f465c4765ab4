"""Run one benchmark workload against the globtop sources of this checkout.

    python3 bench/run.py --workload study_fem --seed 1 --seconds 30 --trace 0

Load is a closed loop with one caller: each operation starts when the one
before it, and its checks, are done.  The run repeats whole rounds of the
workload's operations until ``--seconds`` have passed (by default the
``run_seconds`` of BENCHMARK.json), and at least one round.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run instead.  Every run checks every output it produces and
counts an operation that raises, or whose output is wrong, as failed; a run
with a failed operation is not correct.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from spans import Tracer
from workloads import ROOT, SRC, WORKLOADS, cli_env

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_RUNS = 3  # fresh processes timed for setup_s; the median is reported
IMPORT_ROWS = {
    "numpy": "import.numpy_ms",
    "scipy.linalg": "import.scipy_linalg_ms",
    "scipy.optimize": "import.scipy_optimize_ms",
    "globtop": "import.globtop_ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(args, work: Path):
    """Everything before the first timed operation: imports, inputs, warm-up."""
    wl = WORKLOADS[args.workload](args.seed, work)
    work.mkdir(parents=True, exist_ok=True)
    wl.setup()
    out = work / "warm-up" if wl.writes_study(0) else None
    try:
        wl.check(0, wl.inputs[0], wl.op(0, wl.inputs[0], out), out)
    except Exception:  # a faulty program still gets measured; the loop counts it
        traceback.print_exc(limit=3)
    return wl


def time_setup(args) -> float:
    """Seconds from starting a fresh workload process to its first operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def import_times(runs: int = 3) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime`` (median of runs)."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_ROWS.values()}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import globtop.cli"],
            env=cli_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_ROWS:
                seen[IMPORT_ROWS[parts[2].strip()]] = int(parts[1]) / 1e3
        for metric in samples:
            samples[metric].append(seen.get(metric, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def rerun_digest(wl, i: int, inp, out: Path, digests: dict) -> list[str]:
    """Byte-identical artifacts: the first study of each input is rerun into
    a fresh directory of its own, and every study of that input, the first
    one too, is compared with the rerun."""
    digest = checks.dir_digest(out)
    if i not in digests:
        rerun = out.with_name(out.name + "-rerun")
        try:
            wl.op(i, inp, rerun)
            digests[i] = checks.dir_digest(rerun)
        finally:
            shutil.rmtree(rerun, ignore_errors=True)
    changed = sorted(k for k in digest.keys() | digests[i].keys() if digest.get(k) != digests[i].get(k))
    return [f"rerun of input {i} changed {changed}"] if changed else []


def measure(wl, seconds: float, tracer: Tracer | None):
    """Whole rounds of timed operations, each checked after it is timed.

    A study is written into a new directory each time, as a user would, and
    the directory is removed after its checks.
    """
    latencies, attempted, failed, rounds = [], 0, 0, 0
    digests: dict[int, dict] = {}
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, inp in enumerate(wl.inputs):
            attempted += 1
            out = wl.work / f"study-{attempted}" if wl.writes_study(i) else None
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result, error = wl.op(i, inp, out), None
            except Exception as exc:
                result, error = None, exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            problems = [f"{type(error).__name__}: {error}"] if error else []
            if not problems:
                try:
                    problems = wl.check(i, inp, result, out)
                    if not problems and out is not None:
                        problems = rerun_digest(wl, i, inp, out, digests)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if out is not None and out.is_dir():
                if tracer:
                    files = [p for p in out.iterdir() if p.is_file()]
                    tracer.count("report.files_written", len(files))
                    tracer.count("report.bytes_written", sum(p.stat().st_size for p in files))
                shutil.rmtree(out)
            if problems:
                failed += 1
                if failed <= 3:
                    print(f"operation {i} ({wl.__class__.__name__}) failed: " + "; ".join(problems[:4]), file=sys.stderr)
            else:
                latencies.append(dt)
        rounds += 1
    return latencies, attempted, failed


def cli_main_ms(tracer: Tracer, wl) -> None:
    """Traced CLI operations run the CLI through cli_probe.py, which reports
    the in-process time of ``cli.main`` on its last line of standard error."""
    run_op = wl.op

    def op(i, command, out):
        proc = run_op(i, command, out)
        lines = proc.stderr.rstrip().splitlines()
        m = re.fullmatch(r"cli\.main_ms (\S+)", lines[-1]) if lines else None
        if m and tracer.active:
            tracer.count("cli.main_ms", float(m.group(1)))
            proc.stderr = "\n".join(lines[:-1])
        return proc

    wl.traced_entry = [str(HERE / "cli_probe.py")]
    wl.op = op


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "globtop" / "__init__.py").is_file():
        print(f"bench: no globtop sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            prepare(args, work)
            print("ready", flush=True)
            return 0
        setup = [time_setup(args) for _ in range(SETUP_RUNS)]
        wl = prepare(args, work)
        tracer = None
        if args.trace:
            tracer = Tracer()
            if wl.in_process:
                tracer.install(wl.modules())
            else:
                cli_main_ms(tracer, wl)
        latencies, attempted, failed = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not latencies:
        print(f"bench: all {attempted} operations of {args.workload} failed; nothing to measure", file=sys.stderr)
        return 1

    busy = sum(latencies)
    ops_per_s = len(latencies) / busy
    if tracer:
        tracer.uninstall()
        layers = {"trace.ops_per_s": ops_per_s, **import_times(), **tracer.layer_metrics()}
        tracer.write(WORK / f"trace_{args.workload}_seed{args.seed}.json")
        for name in tracer.absent:
            print(f"absent: {name}", file=sys.stderr)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in BENCH["per_layer"]}
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
        lat_ms = sorted(1e3 * v for v in latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
        }
        if len(lat_ms) >= 100:
            p90 = statistics.quantiles(lat_ms, n=10)[-1]
            print(f"latency_p90_ms {p90:.4f} over {len(lat_ms)} operations (not a gated metric)")
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
