"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--setup-only] [--spans PATH]

T is the time.monotonic() reading taken by the parent just before it
started this interpreter (CLOCK_MONOTONIC is shared by all processes on
Linux), so set-up time includes interpreter start and imports.  The pass
clears the lattice cell cache, runs the workload once, and prints one
JSON object on its last line of output.  With --spans the public
functions of theta_forge are wrapped for the pass, the spans are written
to PATH, and per-layer figures are added to the output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROOT_OPS = ("A2", "D4", "E8", "E8-skew", "A2-deep")
LAW_CHECKS = {
    "generating": "check_generating_modularity",
    "e2": "check_e2_quasimodularity",
    "inversion": "check_inversion_law",
    "congruence": "check_congruence_modularity",
    "translation": "check_translation",
    "rescale": "check_rescale",
    "cusp": "check_cusp_expansion",
    "poisson": "check_poisson_inversion",
    "gauss_orthogonality": "check_gauss_orthogonality",
    "gauss_closed_form": "check_gauss_closed_form",
}
# span name -> extra counters reported beside calls and self_s
TIMED_FUNCTIONS = {
    "lattice.insertion_histogram": ("vectors", "cells"),
    "lattice.gauss_sum": ("points",),
    "qseries.mul": ("term_pairs",),
    "modforms.theta_expand": (),
    "modforms.theta_numeric": (),
    "modforms.theta_offset_numeric": (),
    "modforms.theta_dual_numeric": (),
    "modforms.eisenstein_e2_numeric": (),
}
HEADROOM_CAP = 16.0  # decades; a zero residual reads as this


def _histogram_counts(args, kwargs, result):
    return {"vectors": sum(result.values()), "cells": len(result)}


def _gauss_points(args, kwargs, result):
    form = args[0] if args else kwargs["form"]
    c = args[3] if len(args) > 3 else kwargs["c"]
    return {"points": c ** form.rank}


def _mul_pairs(args, kwargs, result):
    a, b = args
    # a scalar factor is a one-term series
    return {"term_pairs": len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)}


COUNTERS = {
    "lattice.insertion_histogram": _histogram_counts,
    "lattice.gauss_sum": _gauss_points,
    "qseries.mul": _mul_pairs,
}


def per_layer_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for fn, extras in TIMED_FUNCTIONS.items():
        names += [f"{fn}.calls", f"{fn}.self_s"] + [f"{fn}.{x}" for x in extras]
    names += [f"root.{op}.s" for op in ROOT_OPS]
    for law in LAW_CHECKS:
        names += [f"verify.{law}.run", f"verify.{law}.total_s", f"verify.{law}.skipped"]
    names += ["verify.run_campaign.self_s", "verify.headroom_decades"]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    return names


def layer_unit(name: str) -> str:
    if name == "verify.headroom_decades":
        return "decades"
    return "s" if name.endswith(("_s", ".s")) else "count"


def layer_metrics(stats, counts, outcomes):
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for fn, extras in TIMED_FUNCTIONS.items():
        out[f"{fn}.calls"] = stats.get(fn, empty)["calls"]
        out[f"{fn}.self_s"] = stats.get(fn, empty)["self_s"]
        for extra in extras:
            out[f"{fn}.{extra}"] = counts.get(f"{fn}.{extra}", 0)
    for op in ROOT_OPS:
        out[f"root.{op}.s"] = stats.get(f"root.{op}", empty)["total_s"]
    laws = {}
    residuals = []
    for entry in outcomes:
        laws.update(entry.get("laws", {}))
        residuals += entry.get("residuals", [])
    for law, check in LAW_CHECKS.items():
        info = laws.get(law, {"run": 0, "skipped": {}})
        out[f"verify.{law}.run"] = info["run"]
        out[f"verify.{law}.total_s"] = stats.get(f"verify.{check}", empty)["total_s"]
        out[f"verify.{law}.skipped"] = sum(info["skipped"].values())
    out["verify.run_campaign.self_s"] = stats.get("verify.run_campaign", empty)["self_s"]
    out["verify.headroom_decades"] = min(
        (
            min(HEADROOM_CAP, math.log10(tol / res)) if res > 0 else HEADROOM_CAP
            for _law, res, tol in residuals
        ),
        default=0.0,
    )
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith(layer + ".")
        )
    return out


def import_program():
    src = ROOT / "src"
    if not (src / "theta_forge" / "__init__.py").is_file():
        raise SystemExit(f"no theta_forge sources under {src}")
    sys.path.insert(0, str(src))
    import theta_forge

    if Path(theta_forge.__file__).resolve().parent != src / "theta_forge":
        raise SystemExit(f"imported theta_forge from {theta_forge.__file__}, not {src}")
    return theta_forge


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import numpy

    tf = import_program()
    from workloads import WORKLOADS

    setup, run, gate = WORKLOADS[args.workload]
    inputs = setup(tf, args.seed)
    ready = time.monotonic()
    report = {
        "setup_s": ready - args.spawned_at,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(
            COUNTERS,
            methods=[
                (tf.FracQSeries, "__mul__", "qseries.mul"),
                (tf.FracQSeries, "__rmul__", "qseries.mul"),
            ],
        )
    # a program whose forms own their caches has no global one to clear
    clear = getattr(tf.lattice, "clear_cell_cache", None)
    if clear is not None:
        clear()
    start = time.perf_counter()
    outcomes = run(tf, inputs, tracer)
    report["wall_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [e["op"] + ": " + e["error"] for e in outcomes if "error" in e]
    if tracer is not None:
        restored = tracer.uninstall()
        problems += [
            f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped"
            for owner, attr, original in restored
            if inspect.getattr_static(owner, attr) is not original
        ]
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
        report["wrapped"] = len(restored)
        report["layers"] = layer_metrics(tracer.stats(), tracer.counts, outcomes)
    if gate is not None:
        problems += gate(tf, inputs, outcomes)
    report["problems"] = problems
    report["outcomes"] = outcomes
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
