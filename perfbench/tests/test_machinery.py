"""Tests of the benchmark's own machinery (not of theta_forge).

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent


def det_int(m) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    # root [0, 10] with children a [1, 4] (holding c [2, 3]) and b [5, 9]
    root = tr.begin_op("op1", "root")
    clock.now = 1
    a = tr.begin("a")
    clock.now = 2
    c = tr.begin("c")
    clock.now = 3
    tr.end(c)
    clock.now = 4
    tr.end(a)
    clock.now = 5
    b = tr.begin("b")
    clock.now = 9
    tr.end(b)
    clock.now = 10
    tr.end(root)
    assert tracing.self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]
    assert all(span[4] == "op1" for span in tr.spans)
    stats = tr.stats()
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["a"]["self_s"] == 2.0


def test_self_time_counts_overlapping_children_once():
    # two children covering [1, 5] and [3, 7] of a [0, 10] parent cover 6
    spans = [["p", 0.0, 10.0, -1, None], ["x", 1.0, 5.0, 0, None], ["y", 3.0, 7.0, 0, None]]
    assert tracing.self_times(spans)[0] == 4.0


def test_wrapped_call_records_counters_and_nesting():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: {"k": x}, lambda a, k, r: {"n": a[0]})
    outer = tr.wrap("outer", lambda x: inner(x + 1))
    assert outer(2) == {"k": 3}
    assert [s[0] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1][3] == 0
    assert tr.counts["inner.n"] == 3


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_unimodular_generator(seed):
    u1 = inputs.random_unimodular(8, random.Random(seed), 40)
    u2 = inputs.random_unimodular(8, random.Random(seed), 40)
    assert u1 == u2
    assert det_int(u1) in (1, -1)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_skewed_e8_is_seeded_and_keeps_descent_size(seed):
    from theta_forge.lattice import CATALOG

    gram = CATALOG["E8"]
    g = workloads.skew_e8(gram, seed)
    assert g == workloads.skew_e8(gram, seed)
    assert det_int(g) == 1
    t = workloads.unit_upper(8, workloads.seeded_rng(seed, "skew"))
    assert det_int(t) in (1, -1)
    base = workloads.skewed_base(gram)
    assert inputs.enumeration_cost(g, 6) == pytest.approx(inputs.enumeration_cost(base, 6), rel=1e-6)
    assert g != workloads.skew_e8(gram, seed + 1)


def test_random_root_is_a_root():
    from theta_forge.lattice import CATALOG

    rng = random.Random(5)
    for name in ("A2", "D4", "E8"):
        gram = CATALOG[name]
        for _ in range(10):
            x = inputs.random_root(gram, rng)
            n = len(x)
            assert sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) == 2


def _note_templates():
    from theta_forge import verify

    src = inspect.getsource(verify.run_campaign)
    return re.findall(r'notes\.append\(f"(.*?)"\)', src)


def test_note_parser_knows_every_note_run_campaign_emits():
    templates = _note_templates()
    assert len(templates) >= 4
    for template in templates:
        note = template.replace("{law}", "cusp")
        note = re.sub(r"\{[^}]*\}", "7", note)
        law, reason = workloads.parse_note(note)
        assert law == "cusp"
        assert reason in workloads.SKIP_REASONS, note


def test_note_parser_on_live_notes():
    import theta_forge as tf

    # k = 3 makes the cusp check raise ValueError until the pool runs out;
    # E8 supplies the tau and Gauss-size notes
    reports, notes = tf.run_campaign(tf.catalog_form("A2"), ("cusp",), 1, 0, 1e-8, k=3)
    assert not reports
    reasons = {workloads.parse_note(n)[1] for n in notes}
    assert "value-error" in reasons and reasons <= set(workloads.SKIP_REASONS)
    reports, notes = tf.run_campaign(tf.catalog_form("E8"), ("e2", "gauss_closed_form"), 2, 0, 1e-8)
    reasons = {workloads.parse_note(n)[1] for n in notes}
    assert reasons == {"no-usable-tau", "gauss-too-large", "pool-exhausted"}
    summary = workloads.law_summary(("e2", "gauss_closed_form"), 2, reports, notes)
    assert summary["gauss_closed_form"]["run"] == 1
    assert summary["gauss_closed_form"]["skipped"]["pool-exhausted"] == 1
    assert summary["e2"]["run"] == 2


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "theta_forge" or name.startswith("theta_forge.")
        for attr, value in vars(mod).items()
    }


def test_uninstall_restores_every_binding():
    import theta_forge as tf
    from theta_forge import jacobi_like, modforms

    before = _bindings()
    mul = inspect.getattr_static(tf.FracQSeries, "__mul__")
    rmul = inspect.getattr_static(tf.FracQSeries, "__rmul__")
    tr = tracing.Tracer()
    tr.install(worker.COUNTERS, methods=[
        (tf.FracQSeries, "__mul__", "qseries.mul"),
        (tf.FracQSeries, "__rmul__", "qseries.mul"),
    ])
    # names imported into other modules are wrapped there too
    assert modforms.insertion_histogram is not before[("theta_forge.lattice", "insertion_histogram")]
    assert jacobi_like.theta_expand is not before[("theta_forge.modforms", "theta_expand")]
    ok, _ = tf.verify_root_identity(tf.catalog_form("A2"), 4)
    assert ok
    restored = tr.uninstall()
    assert restored
    names = {s[0] for s in tr.spans}
    assert {"jacobi_like.verify_root_identity", "lattice.insertion_histogram",
            "modforms.theta_expand", "qseries.mul"} <= names
    assert tr.counts["lattice.insertion_histogram.vectors"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert inspect.getattr_static(tf.FracQSeries, "__mul__") is mul
    assert inspect.getattr_static(tf.FracQSeries, "__rmul__") is rmul


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer_names = worker.per_layer_names() + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == worker.layer_unit(m["name"]) for m in spec["per_layer"])
    e2e = run.end_to_end([1.0], [{
        "wall_s": 1.0, "peak_rss_mb": 1.0,
        "outcomes": [{"attempted": 1, "failed": 0, "certified": 1, "requested": 1}],
    }])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in e2e.values()]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws-e8", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
