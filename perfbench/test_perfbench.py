"""Tests of the benchmark itself (not of stripeloc).

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs use ``--size tiny`` (coarse search grids, three bandwidth
points, a 3 x 3 heatmap) and take about a minute in total.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Span, Tracer, self_cpu, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_benchmark_json():
    assert run.END_TO_END == declared("end_to_end")
    assert run.PER_LAYER == declared("per_layer")
    # montecarlo is not in BENCHMARK.json; it is run by hand (see NOTES.md)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES) - {"montecarlo"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ")
            printed[name] = rest.rsplit(" ", 1)[1]
    assert printed == expected


def _span(name, start, end, parent=None, cpu=(0.0, 0.0)):
    return Span(name, start, end, cpu[0], cpu[1], parent, None, 0)


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, cpu=(0.0, 8.0)),
        _span("a", 1.0, 3.0, parent=0, cpu=(1.0, 3.0)),
        _span("b", 2.0, 4.0, parent=0, cpu=(3.0, 4.0)),  # overlaps a (another thread)
        _span("c", 9.0, 12.0, parent=0, cpu=(4.0, 5.0)),  # ends after its parent
        _span("a.child", 1.5, 2.0, parent=1, cpu=(1.0, 1.5)),
        _span("other-root", 20.0, 21.0),
    ]
    # root: 10 - |[1, 4] U [9, 10]| = 10 - 4
    assert self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 3.0, 0.5, 1.0])
    assert self_cpu(spans) == pytest.approx([4.0, 1.5, 1.0, 1.0, 0.5, 0.0])


def _current_attributes(targets):
    return [getattr(t.module, t.attr) for t in targets]


def test_tracer_restores_attributes_after_an_exception():
    from workloads import trace_targets

    targets = trace_targets()
    before = _current_attributes(targets)
    with pytest.raises(RuntimeError):
        with Tracer().patched(targets):
            assert all(a is not b for a, b in zip(_current_attributes(targets), before))
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(_current_attributes(targets), before))


def test_traced_run_leaves_no_wrapper_behind(capsys):
    from workloads import trace_targets

    targets = trace_targets()
    before = _current_attributes(targets)
    code = run.main(["--workload", "bounds", "--seed", "2", "--seconds", "0.5",
                     "--trace", "1", "--size", "tiny"])
    assert code == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is True
    assert all(a is b for a, b in zip(_current_attributes(targets), before))
