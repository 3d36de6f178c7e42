"""Sweep benchmark of the mRTS reproduction.

Usage::

    python bench/run.py [--seed N]        # every workload, untraced and traced;
                                          # prints metrics, writes a JSON report
    python bench/run.py --workload fig8-cold --seed 3 --seconds 20 --trace 0
                                          # one run; the last stdout line is
                                          # {"correct", "attempted", "failed", "metrics"}
    python bench/run.py --quick           # smoke: every workload, short runs

Each measured pass runs in a fresh ``python bench/workload.py`` process
with every ``REPRO_*`` variable removed from its environment.  With
``--trace 0`` a run reports the end-to-end metrics of ``BENCHMARK.json``
(set-up is launched ``SETUP_RUNS`` times and its median reported); with
``--trace 1`` it runs an untraced and a traced pass and reports the
per-layer metrics, including the tracing overhead.

Times in the end-to-end metrics are on a host of nominal speed: each is
divided by the host's slowness measured around it (``host.py``).  The
report keeps the values as measured under ``raw``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from host import SETUP_ELASTICITY
from metrics import BENCH_DIR, ROOT, load_benchmark, percentile, tail_percentile

WORKLOADS = ("fig8-cold", "fig8-pool", "warm-store", "service-mixed")
SETUP_RUNS = 3
DEFAULT_SEED = 7
#: One ``--workload`` run must end within 180 s: its child processes share
#: this budget and a child that overruns it is killed (the run then fails).
RUN_BUDGET_S = 170
QUICK_SECONDS = 1.5
TMP_DIR = ROOT / ".bench_tmp"
DEFAULT_REPORT = ROOT / ".bench_results" / "report.json"


def child_env(environ: Dict[str, str]) -> Dict[str, str]:
    """The workload environment: no ``REPRO_*`` overrides, ``src`` first
    on the import path."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever is left of a child's process group and wait until it
    is gone (pool or service workers a crashed child left behind)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(workload: str, seed: int, seconds: float, mode: str, trace: int,
           quick: bool, scratch: Path, deadline: float) -> Dict[str, object]:
    """Run one workload process; returns its result with ``setup_s``."""
    tmp = scratch / f"{workload}-{mode}-{trace}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    out = tmp / "result.json"
    command = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--trace", str(trace), "--tmp", str(tmp), "--out", str(out),
    ] + (["--quick"] if quick else [])
    launched = time.monotonic()
    process = subprocess.Popen(
        command, env=child_env(dict(os.environ)), cwd=str(ROOT),
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _reap_group(process.pid)
        process.wait()
    try:
        if code != 0:
            raise RuntimeError(f"{workload} {mode} pass exited with {code}")
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["raw_setup_s"] = result["ready_monotonic"] - launched - result["probe_s"]
    result["setup_s"] = result["raw_setup_s"] / result["setup_slowness"] ** SETUP_ELASTICITY
    return result


def end_to_end(setups: Sequence[float], result: Dict[str, object]) -> Dict[str, float]:
    latencies = result["latencies_ms"] or [0.0]
    nominal = result["nominal_s"]
    return {
        "setup_s": statistics.median(setups),
        "cells_per_s": result["cells"] / nominal if nominal else 0.0,
        "op_p50_ms": percentile(latencies, 50),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def raw_metrics(raw_setups: Sequence[float], result: Dict[str, object]) -> Dict[str, float]:
    """The end-to-end times as measured, before the host-speed division."""
    latencies = result["raw_latencies_ms"] or [0.0]
    measured = result["measured_s"]
    return {
        "setup_s": statistics.median(raw_setups),
        "cells_per_s": result["cells"] / measured if measured else 0.0,
        "op_p50_ms": percentile(latencies, 50),
    }


def host_summary(slowness: Sequence[float]) -> Dict[str, float]:
    """Quartiles of a pass's host samples (set-up samples included, so
    there are always enough)."""
    q1, median, q3 = statistics.quantiles(slowness, n=4)
    return {"samples": len(slowness), "slowness_p25": q1, "slowness_p50": median,
            "slowness_p75": q3}


def run_workload(workload: str, seed: int, seconds: float, trace: Sequence[int],
                 quick: bool, scratch: Path) -> Dict[str, object]:
    """Measure one workload: untraced passes (set-up sampled
    ``SETUP_RUNS`` times) and, when asked, one traced pass."""
    deadline = time.monotonic() + RUN_BUDGET_S
    entry: Dict[str, object] = {"seed": seed, "seconds": seconds}
    passes: List[Dict[str, object]] = []
    setup_runs = 1 if quick or 0 not in trace else SETUP_RUNS
    setup_passes = [
        launch(workload, seed, seconds, "setup", 0, quick, scratch, deadline)
        for _ in range(setup_runs - 1)
    ]
    # A traced-only run needs the untraced pass just for the overhead
    # estimate, which a half-length pass gives as well.
    plain_seconds = seconds if 0 in trace else seconds / 2
    plain = launch(workload, seed, plain_seconds, "full", 0, quick, scratch, deadline)
    passes.append(plain)
    setup_passes.append(plain)
    setups = [p["setup_s"] for p in setup_passes]
    raw_setups = [p["raw_setup_s"] for p in setup_passes]
    entry["metrics"] = end_to_end(setups, plain)
    entry["raw"] = raw_metrics(raw_setups, plain)
    entry["host"] = host_summary(plain["slowness"])
    entry["setup_samples_s"] = setups
    entry["raw_setup_samples_s"] = raw_setups
    latencies = plain["latencies_ms"]
    tail = tail_percentile(len(latencies))
    entry["op_samples"] = len(latencies)
    entry["tail"] = {
        "percentile": tail,
        "value_ms": percentile(latencies, tail) if tail else None,
    }
    for key in ("digest", "pinned", "counters", "errors", "notes", "model_accuracy",
                "env_repro", "latencies_ms", "cells", "measured_s"):
        if key in plain:
            entry[key] = plain[key]
    if 1 in trace:
        traced = launch(workload, seed, seconds, "full", 1, quick, scratch, deadline)
        passes.append(traced)
        layers = dict(traced["layers"])
        plain_rate = entry["metrics"]["cells_per_s"]
        traced_rate = traced["cells"] / traced["nominal_s"] if traced["nominal_s"] else 0.0
        layers["trace.overhead_pct"] = (
            100.0 * (plain_rate / traced_rate - 1.0) if traced_rate else 0.0
        )
        entry["layers"] = layers
        entry["spans"] = traced["spans"]
        entry["traced_env_repro"] = traced["env_repro"]
    entry["attempted"] = sum(p["attempted"] for p in passes)
    entry["failed"] = sum(p["failed"] for p in passes)
    entry["error_rate"] = entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0
    # A pinned-digest mismatch already failed the operations it covers.
    entry["correct"] = entry["failed"] == 0 and not any(p["env_repro"] for p in passes)
    return entry


def host_stamp() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def print_workload(name: str, entry: Dict[str, object], specs: Dict[str, Dict]) -> None:
    print(f"== {name} (seed {entry['seed']}, {entry['seconds']}s) ==")
    raw = entry["raw"]
    for metric, value in entry["metrics"].items():
        measured = f"  ({raw[metric]:.4f} as measured)" if metric in raw else ""
        print(f"  {metric:<28} {value:>14.4f} {specs[metric]['unit']}{measured}")
    host = entry["host"]
    print(f"  host slowness p25/p50/p75: {host['slowness_p25']:.3f} / "
          f"{host['slowness_p50']:.3f} / {host['slowness_p75']:.3f} "
          f"over {host['samples']} host samples")
    tail = entry["tail"]
    if tail["percentile"] is not None:
        print(f"  tail: p{tail['percentile']:g} = {tail['value_ms']:.3f} ms "
              f"over {entry['op_samples']} operations")
    print(f"  correct={entry['correct']} attempted={entry['attempted']} "
          f"failed={entry['failed']} error_rate={entry['error_rate']:.4f} "
          f"digest={entry.get('pinned')}")
    for versus, row in sorted(entry.get("model_accuracy", {}).items()):
        print(f"  fig8 mRTS/{versus}: {row['measured']:.2f}x measured, "
              f"{row['paper']:.2f}x paper (simulated time, {row['points']} points)")
    if "layers" in entry:
        print("  layers (traced pass):")
        for metric, value in entry["layers"].items():
            unit = specs.get(metric, {}).get("unit", "")
            print(f"    {metric:<34} {value:>14.4f} {unit}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="mRTS sweep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed phase per pass (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one pass kind only: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: {QUICK_SECONDS}s passes, one set-up sample")
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    specs = {s["name"]: s for s in benchmark["end_to_end"] + benchmark["per_layer"]}
    seconds = args.seconds or (QUICK_SECONDS if args.quick else benchmark["run_seconds"])
    trace = (args.trace,) if args.trace is not None else (0, 1)
    names = (args.workload,) if args.workload else WORKLOADS

    scratch = TMP_DIR / f"run-{os.getpid()}"
    report: Dict[str, object] = {"host": host_stamp(), "workloads": {}}
    try:
        for name in names:
            entry = run_workload(name, args.seed, seconds, trace, args.quick, scratch)
            report["workloads"][name] = entry
            print_workload(name, entry, specs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_DIR.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    out = args.out or (None if args.workload else DEFAULT_REPORT)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"report: {out}")

    entries = list(report["workloads"].values())
    wanted = [s["name"] for s in
              (benchmark["end_to_end"] if args.trace != 1 else benchmark["per_layer"])]
    metrics = {}
    if args.workload:
        values = {**entries[0]["metrics"], **entries[0].get("layers", {})}
        metrics = {
            name: {"value": values[name], "unit": specs[name]["unit"]} for name in wanted
        }
    print(json.dumps({
        "correct": all(e["correct"] for e in entries),
        "attempted": sum(e["attempted"] for e in entries),
        "failed": sum(e["failed"] for e in entries),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
