"""Benchmark of the innerqft CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload vev-ladder --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory. With --trace 0 each invocation of a workload pass runs
the real CLI as a child process, one at a time in a closed loop, and the
end-to-end metrics are printed. With --trace 1 the same invocations call
`innerqft.cli.main` in process, alternating untraced and traced passes, and
the per-layer metrics are printed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9          # fresh-interpreter imports per run; the median is reported
MIN_PASSES = 3             # timed passes per run, even past --seconds
MIN_TRACED = 2             # traced passes per run: the exact counts must repeat
CHILD_TIMEOUT_S = 120.0

CLI_MAIN = "import sys; from innerqft.cli import main; sys.exit(main())"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def _limit_threads() -> None:
    """Cap BLAS/OpenMP threads of this process and its children at nproc.

    Runs before numpy is first imported, which reads these variables once.
    """
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def _child_env() -> dict:
    # children write bytecode caches, as an installed package has them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(caches_warm: bool, threads: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cpu": _cpu_model(), "nproc": NPROC, "threads": threads,
            "bytecode_caches_warm_at_start": caches_warm}


# --------------------------------------------------------------------------
# child processes


def run_child(args: list, out_path: Path, env: dict) -> tuple:
    """Run one child to completion: (wall seconds, exit code or None, stdout)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        # a blocking wait: wait(timeout=...) polls in sleeps of up to 50 ms,
        # which would round every timing up to that grain
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    if code < 0:
        code = None                     # killed by a signal
    return wall, code, out_path.read_bytes()


def measure_setup(work: Path, env: dict) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_child(["-c", "import innerqft.cli"], work / "setup.out", env)
        if code != 0:
            raise RuntimeError("importing innerqft.cli failed")
        times.append(wall)
    return statistics.median(times)


def _another(durations: list, start: float, seconds: float, minimum: int) -> bool:
    """Whether to start another pass: until `minimum`, then while a typical
    pass still ends within `seconds` of `start`."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure_e2e(wl, seconds: float, checker, work: Path, env: dict) -> tuple:
    """Closed loop over whole passes, one child at a time, for `seconds`."""
    records, passes = [], []
    per_call: dict = {i: [] for i in range(len(wl.invocations))}
    start = time.perf_counter()
    while _another(passes, start, seconds, MIN_PASSES):
        t0 = time.perf_counter()
        for i, inv in enumerate(wl.invocations):
            wall, code, out = run_child(["-c", CLI_MAIN, *inv.argv],
                                        work / f"call{i:02d}.out", env)
            per_call[i].append(wall)
            records.append((i, code, out))
        passes.append(time.perf_counter() - t0)
    failed = sum(not checker.check(*rec) for rec in records)
    calls = [t for ts in per_call.values() for t in ts]
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "call_p50_s": (statistics.median(calls), "s"),
        "largest_call_s": (max(statistics.median(ts) for ts in per_call.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MiB"),
    }
    summary = {"passes": len(passes), "calls": len(calls),
               "call_p90_s": statistics.quantiles(calls, n=10)[-1]}
    return metrics, len(records), failed, summary


# --------------------------------------------------------------------------
# in-process traced run


def measure_traced(wl, seconds: float, checker) -> tuple:
    import tracing as tr
    from innerqft import cli

    records, untraced, traced = [], [], []
    failures = []

    def one_pass(tag: str, tracer=None) -> float:
        t0 = time.perf_counter()
        for i, inv in enumerate(wl.invocations):
            if tracer is not None:
                tracer.invocation = f"{tag}:{i}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(inv.argv))
            records.append((i, code, buf.getvalue().encode()))
        return time.perf_counter() - t0

    one_pass("warm")
    start = time.perf_counter()
    pairs, per_pass, first = [], [], None
    while _another(pairs, start, seconds, MIN_TRACED):
        untraced.append(one_pass(f"u{len(untraced)}"))
        tracer = tr.Tracer().install()
        try:
            wall = one_pass(f"t{len(traced)}", tracer)
        finally:
            tracer.remove()
        traced.append(wall)
        pairs.append(untraced[-1] + wall)
        # summarise now and keep the spans of the first traced pass only
        self_times = tracer.self_times()
        if sum(self_times.values()) > wall:
            failures.append(f"layer self times {sum(self_times.values()):.4f} s "
                            f"exceed the traced wall {wall:.4f} s")
        per_pass.append(tr.layer_metrics(self_times, tracer.counts))
        if first is None:
            first = tracer
        elif tracer.exact_counts() != first.exact_counts():
            failures.append("exact counts differ between traced passes")
    failed = sum(not checker.check(*rec) for rec in records)

    # times are medians over the traced passes; counts are equal in all of them
    values = {name: statistics.median(p[name] for p in per_pass)
              if name.endswith("_s") else v for name, v in per_pass[0].items()}
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    metrics = {name: (values[name], unit) for name, unit in tr.LAYER_METRICS}
    origin = first.spans[0][1] if first.spans else 0.0
    spans = [[n, t0 - origin, t1 - origin, parent, inv]
             for n, t0, t1, parent, inv in first.spans]
    summary = {"passes": len(traced), "exact_counts": first.exact_counts(),
               "spans": spans}
    return metrics, len(records), failed, summary, failures


# --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    threads = {var: os.environ[var] for var in THREAD_VARS}
    work = OUT / f"work-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()
    cli_file = SRC / "innerqft" / "cli.py"
    caches_warm = Path(importlib.util.cache_from_source(str(cli_file))).exists()

    import checks
    import workloads
    wl = workloads.generate(name, seed, work, smoke=smoke)
    checker = checks.Checker(wl)
    metrics: dict = {}
    failures: list = []
    if trace:
        layer, attempted, failed, summary, failures = measure_traced(wl, seconds, checker)
        metrics.update(layer)
    else:
        # the first call compiles bytecode and loads shared libraries
        run_child(["-c", "import innerqft.cli"], work / "warm.out", env)
        metrics["setup_s"] = (measure_setup(work, env), "s")
        e2e, attempted, failed, summary = measure_e2e(wl, seconds, checker, work, env)
        metrics.update(e2e)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": wl.why, "notes": wl.notes,
        "invocations": [inv.argv for inv in wl.invocations],
        "environment": environment(caches_warm, threads),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": checker.failures + failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **summary,
    }
    if not smoke:
        OUT.mkdir(exist_ok=True)
        suffix = ".trace" if trace else ""
        (OUT / f"{name}{suffix}.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return report


def _print_report(report: dict) -> None:
    keys = ("workload", "seed", "trace", "notes", "passes", "calls",
            "call_p90_s", "attempted", "failed", "error_rate", "environment")
    print(json.dumps({k: report[k] for k in keys if k in report}))
    for line in report["failures"][:20]:
        print(f"FAILED {line}")


def smoke() -> int:
    """Each workload once at tiny size, untraced and traced, against BENCHMARK.json."""
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) \
        and all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    if not ok:
        print("FAILED BENCHMARK.json workloads differ from workloads.WHY")
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            report = run_workload(name, 0, 0.0, trace, smoke=True)
            _print_report(report)
            want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            if sorted(report["metrics"]) != sorted(want):
                print(f"FAILED {name}: metrics differ from BENCHMARK.json")
                ok = False
            ok = ok and not report["failures"]
            attempted += report["attempted"]
            failed += report["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size")
    args = parser.parse_args(argv)
    _limit_threads()
    if not (SRC / "innerqft" / "cli.py").is_file():
        print(f"error: no innerqft sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report)
    print(json.dumps({"correct": not report["failures"],
                      "attempted": report["attempted"], "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
