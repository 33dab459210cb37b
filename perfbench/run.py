"""theta-forge benchmark: cold-cache time to a verified result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: root-slate, root-deep, laws-d4, laws-e8 (see NOTES.md for
why each was chosen).  Every pass runs in a fresh interpreter with an
empty lattice cache, so no pass reuses another's enumeration.  Passes
repeat until S seconds of passes have run (at least one), after a few
set-up-only interpreters that sample start-up cost.

With --trace 0 the last line of output is a JSON object whose metrics are
the end-to-end figures; with --trace 1 it holds the per-layer figures of
traced passes, plus trace.overhead_s against untraced passes of the same
run.  Each run also writes a result file with machine metadata and the
raw per-pass figures under perfbench/out/.  The exit code is 0 only when
every output was checked and found correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import layer_unit, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("root-slate", "root-deep", "laws-d4", "laws-e8")
SETUP_SAMPLES = 9  # set-up-only interpreters per run, besides one per pass
RUN_LIMIT_S = 170.0  # a run stops with an error rather than pass this
# one process, one thread: keep numeric libraries off the second core
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, deadline, *extra):
    """Run one worker interpreter to completion; returns its report."""
    env = dict(os.environ, **SINGLE_THREAD)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(spawned_at), *extra,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker exceeded the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def passes_for(workload, seed, seconds, deadline, spans=None):
    """Repeat passes until `seconds` of pass time has run; at least one."""
    reports = []
    spent = 0.0
    while not reports or spent < seconds:
        extra = []
        if spans is not None:
            extra = ["--spans", str(spans.with_name(f"{spans.stem}-pass{len(reports)}.json"))]
        t0 = time.monotonic()
        reports.append(spawn(workload, seed, deadline, *extra))
        spent += time.monotonic() - t0
    return reports


def tally(passes):
    """(operations attempted, operations failed) over all passes."""
    outcomes = [o for p in passes for o in p["outcomes"]]
    return sum(o["attempted"] for o in outcomes), sum(o["failed"] for o in outcomes)


def end_to_end(setups, passes):
    attempted, failed = tally(passes)
    coverage = [
        sum(o["certified"] for o in p["outcomes"]) / sum(o["requested"] for o in p["outcomes"])
        for p in passes
    ]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "coverage": (statistics.median(coverage), "ratio"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(plain, traced):
    metrics = {
        name: (statistics.median(p["layers"][name] for p in traced), layer_unit(name))
        for name in per_layer_names()
    }
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "theta_forge" / "__init__.py").is_file():
        print(f"error: no theta_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            plain = passes_for(args.workload, args.seed, args.seconds / 2, deadline)
            traced = passes_for(
                args.workload, args.seed, args.seconds / 2, deadline, spans=OUT / f"spans-{tag}"
            )
            setups = []
            metrics = per_layer(plain, traced)
            passes = plain + traced
        else:
            setups = [
                spawn(args.workload, args.seed, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_SAMPLES)
            ]
            passes = passes_for(args.workload, args.seed, args.seconds, deadline)
            setups += [p["setup_s"] for p in passes]
            metrics = end_to_end(setups, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = sorted({msg for p in passes for msg in p["problems"]})
    attempted, failed = tally(passes)
    correct = not problems and failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        **machine(),
        "elapsed_s": time.monotonic() - start,
        "setup_samples_s": setups,
        "passes": passes,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(
        f"# {args.workload} seed={args.seed} passes={len(passes)} python={result['python']} "
        f"numpy={result['numpy']} nproc={result['nproc']} cpu={result['cpu_model']!r}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for msg in problems:
        print(f"PROBLEM {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
