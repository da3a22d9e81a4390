"""Benchmark of the stripeloc package: one workload per run.

    python3 perfbench/run.py --workload trial --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps the package's module attributes, records spans and
reports per-layer metrics instead, writing the spans to ``perfbench/out/``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 when every check passed, 1 when one failed, 2 when the package
source is missing.  See NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import Tracer, self_cpu, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = OUT_DIR / "digests.json"
SETUP_PROBES = 8  # half before the timed loop, half after it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {"setup_s": "s", "item_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "scenario.load_s": "s",
    "scenario.retune_s": "s",
    "scenario.retune_calls": "calls/item",
    "signal.synthesize_s": "s",
    "signal.make_disturbances_calls": "calls/item",
    "channel.disturbance_covariance_s": "s",
    "channel.disturbance_covariance_calls": "calls/item",
    "geometry.enumerate_paths_s": "s",
    "geometry.enumerate_paths_calls": "calls/item",
    "fim.compute_bounds_s": "s",
    "fim.local_fim_s": "s",
    "fim.jacobian_s": "s",
    "fim.efim_s": "s",
    "fim.bounds_s": "s",
    "fim.pinv_fallback_calls": "calls/item",
    "fim.bounds_max_rel_err": "ratio",
    "estimators.position_s": "s",
    "estimators.position_cpu_per_wall": "ratio",
    "estimators.rml_nfev": "evals/trial",
    "estimators.rml_nit": "iters/trial",
    "estimators.nst_s": "s",
    "estimators.jml_s": "s",
    "estimators.jml_nfev": "evals/trial",
    "estimators.jml_nit": "iters/trial",
    "estimators.jml_ms_per_eval": "ms",
    "estimators.jml_cost_drop": "ratio",
    "estimators.jml_peb_ratio": "ratio",
    "estimators.jml_ceb_ratio": "ratio",
    "estimators.jml_cost_over_truth": "ratio",
    "harness.wall_s": "s",
    "harness.trial_busy_s": "s",
    "harness.parallel_eff": "ratio",
    "harness.cell_bounds_s": "s",
    "harness.failures": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

WORKLOAD_NAMES = ("trial", "montecarlo", "bounds")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


# ---------------------------------------------------------------------------
# set-up: import, scenario load and retune, each in a fresh interpreter
# ---------------------------------------------------------------------------

_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import stripeloc
t1 = time.perf_counter()
sc = stripeloc.{loader}()
t2 = time.perf_counter()
for db in {sdnrs!r}:
    stripeloc.with_sdnr(sc, db)
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def setup_probes(workload, n: int) -> list:
    """[import_s, load_s, retune_s] of ``n`` probe interpreters, run one at a time."""
    code = _PROBE.format(src=str(SRC), loader=workload.loader, sdnrs=list(workload.setup_sdnr_db))
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------


def closed_loop(run_item, seconds: float, spent: float = 0.0):
    """Run items back to back while the next one should end within ``seconds``.

    The first item always runs; the forecast for the next item is the
    duration of the last one.  ``spent`` counts time already used.
    """
    items, errors = [], []
    start = time.perf_counter() - spent
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            items.append(run_item(i))
        except Exception as exc:  # a failed item is counted; the loop goes on
            errors.append(f"item {i}: {type(exc).__name__}: {exc}")
        last = time.perf_counter() - t0
        i += 1
        if time.perf_counter() - start + last > seconds:
            return items, errors


# ---------------------------------------------------------------------------
# checks across runs
# ---------------------------------------------------------------------------


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stripeloc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(prefix: str, digests: dict, checks) -> None:
    """Check each item's estimate digest against the one an earlier run stored."""
    OUT_DIR.mkdir(exist_ok=True)
    stored = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
    for key, value in digests.items():
        full = f"{prefix}|{key}"
        if full in stored:
            checks.add("estimates identical to an earlier run", stored[full] == value,
                       f"{full}: {value} != {stored[full]}")
        else:
            stored[full] = value
    tmp = DIGESTS_PATH.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=0, sort_keys=True))
    os.replace(tmp, DIGESTS_PATH)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(spans, items, plain, probes, accuracy: dict, bounds_err: float) -> dict:
    from workloads import MC_THREADS

    self_s = self_times(spans)
    cpu_s = self_cpu(spans)
    agg = defaultdict(lambda: {"self": 0.0, "cpu": 0.0, "wall": 0.0, "calls": 0})
    for s, st, c in zip(spans, self_s, cpu_s):
        a = agg[s.name]
        a["self"] += st
        a["cpu"] += c
        a["wall"] += s.wall
        a["calls"] += 1
    work = sum(item.work for item in items)
    per = lambda v: v / work
    by = lambda name, key: per(agg[name][key]) if name in agg else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    rml = [s.attrs["rml"] for s in spans if "rml" in s.attrs]
    jml = [s.attrs["jml"] for s in spans if "jml" in s.attrs]
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0
    position = ("estimators.rml_position_search", "estimators.run_pipeline")
    pos_self = sum(agg[n]["self"] for n in position if n in agg)
    pos_cpu = sum(agg[n]["cpu"] for n in position if n in agg)
    cb = [s for s in spans if s.name == "fim.compute_bounds"]
    mc_wall = agg["harness.run_monte_carlo"]["wall"] if "harness.run_monte_carlo" in agg else 0.0
    entries = ("harness.run_monte_carlo", "harness.run_bounds_sweep", "harness.run_heatmap")
    harness_wall = sum(agg[n]["wall"] for n in entries if n in agg)
    busy = agg["estimators.run_pipeline"]["wall"] if "estimators.run_pipeline" in agg else 0.0
    cell_bounds = sum(
        s.wall for s in cb
        if s.parent is not None and spans[s.parent].name == "harness.run_monte_carlo"
    )
    jml_self = agg["estimators.jml_refine"]["self"] if "estimators.jml_refine" in agg else 0.0
    jml_evals = sum(j["nfev"] for j in jml)
    return {
        "scenario.load_s": statistics.median(p[1] for p in probes),
        "scenario.retune_s": by("scenario.retune", "self"),
        "scenario.retune_calls": by("scenario.retune", "calls"),
        "signal.synthesize_s": by("signal.synthesize", "self"),
        "signal.make_disturbances_calls": by("signal.make_disturbances", "calls"),
        "channel.disturbance_covariance_s": by("channel.disturbance_covariance", "self"),
        "channel.disturbance_covariance_calls": by("channel.disturbance_covariance", "calls"),
        "geometry.enumerate_paths_s": by("geometry.enumerate_paths", "self"),
        "geometry.enumerate_paths_calls": by("geometry.enumerate_paths", "calls"),
        "fim.compute_bounds_s": statistics.median(s.wall for s in cb) if cb else 0.0,
        "fim.local_fim_s": by("fim.local_fim", "self"),
        "fim.jacobian_s": by("fim.jacobian", "self"),
        "fim.efim_s": by("fim.efim", "self"),
        "fim.bounds_s": by("fim.bounds", "self"),
        "fim.pinv_fallback_calls": per(sum(1 for s in cb if s.attrs.get("fallback"))),
        "fim.bounds_max_rel_err": bounds_err,
        "estimators.position_s": per(pos_self),
        "estimators.position_cpu_per_wall": ratio(pos_cpu, pos_self),
        "estimators.rml_nfev": mean([r["nfev"] for r in rml]),
        "estimators.rml_nit": mean([r["nit"] for r in rml]),
        "estimators.nst_s": by("estimators.nst_map_scatterers", "self"),
        "estimators.jml_s": by("estimators.jml_refine", "self"),
        "estimators.jml_nfev": mean([j["nfev"] for j in jml]),
        "estimators.jml_nit": mean([j["nit"] for j in jml]),
        "estimators.jml_ms_per_eval": 1000.0 * ratio(jml_self, jml_evals),
        "estimators.jml_cost_drop": mean([(j["start"] - j["final"]) / j["start"] for j in jml]),
        **{f"estimators.{k}": v for k, v in accuracy.items()},
        "harness.wall_s": per(harness_wall),
        "harness.trial_busy_s": per(busy),
        "harness.parallel_eff": ratio(busy, MC_THREADS * mc_wall),
        "harness.cell_bounds_s": per(cell_bounds),
        "harness.failures": sum(item.failed for item in items),
        "trace.overhead_s": (items[0].wall - plain.wall) / items[0].work,
        "trace.unaccounted_s": by("bench.item", "self"),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment(workload_name: str) -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for var in BLAS_ENV:
        env[var] = os.environ.get(var, "unset")
    if workload_name == "montecarlo":
        from workloads import MC_THREADS

        env["threads"] = MC_THREADS
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stripeloc" / "__init__.py").is_file():
        print(f"stripeloc source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "montecarlo":
        # one BLAS thread per pool thread: no more compute threads than cores;
        # OpenBLAS reads this when numpy is first imported, just below
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import stripeloc

    if Path(stripeloc.__file__).resolve().parent != (SRC / "stripeloc").resolve():
        print(f"imported stripeloc from {stripeloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS, Accuracy, Checks, trace_targets

    # probes before and after the timed loop, so that their median spans the
    # run rather than one slow or fast phase of a shared machine
    probes = setup_probes(WORKLOADS[args.workload], SETUP_PROBES // 2)
    wl = WORKLOADS[args.workload](SIZES[args.size], args.seed)
    wl.warmup()

    plain = None
    tracer = None
    if args.trace:
        t0 = time.perf_counter()
        plain = wl.run(0)  # untraced twin of traced item 0, for the overhead
        tracer = Tracer()
        with tracer.patched(trace_targets()):
            items, errors = closed_loop(
                lambda i: wl.run_traced(i, tracer), args.seconds, time.perf_counter() - t0
            )
    else:
        items, errors = closed_loop(wl.run, args.seconds)
    probes += setup_probes(WORKLOADS[args.workload], SETUP_PROBES - len(probes))

    checks = Checks()
    accuracy = Accuracy()
    try:
        wl.check(items, checks, accuracy)
    except Exception:  # a check that cannot run is a failed check, not a crash
        checks.add("checks ran to the end", False, traceback.format_exc())
    digests = {f"{i}.{k}": d for i, item in enumerate(items) for k, d in enumerate(wl.digests(item))}
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    compare_digests(f"{source_hash()}|{blas}|{wl.name}|{args.size}|{args.seed}", digests, checks)
    if plain is not None and items:
        checks.add("traced run reproduces the untraced results", wl.digests(plain) == wl.digests(items[0]),
                   "digests differ on item 0")
    bounds_err = accuracy.bounds_max_rel_err

    work = sum(item.work for item in items)
    failed_work = sum(item.failed for item in items) + len(errors)
    attempted = work + len(errors) + checks.attempted
    failed = failed_work + checks.failed
    env = environment(wl.name)

    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"run workload={wl.name} seed={args.seed} size={args.size} trace={args.trace} "
          f"items={len(items)} work={work} checks={checks.attempted}")
    print("item walls (s): " + " ".join(f"{item.wall:.4f}" for item in items))
    for line in errors + checks.messages:
        print(f"FAILED {line}")
    if not items:
        print("no item completed; nothing was measured", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(tracer.spans, items, plain, probes, accuracy.summary(), bounds_err)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-{args.size}-{args.seed}.json"
        tracer.write(spans_path, {"workload": wl.name, "seed": args.seed, "env": env})
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        if wl.name == "trial":
            stages = sum(metrics[f"estimators.{k}_s"] for k in ("position", "nst", "jml"))
            print(f"note stage self times {stages:.4f} s/trial against untraced run_pipeline "
                  f"{plain.wall:.4f} s on the same seed; tracing overhead "
                  f"{metrics['trace.overhead_s']:.4f} s")
    else:
        # over the whole timed loop rather than a median of its few items, so
        # that it averages over the slow and fast phases of a shared machine
        wall = sum(item.wall for item in items)
        metrics = {
            "setup_s": statistics.median(sum(p) for p in probes),
            "item_s": wall / work,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        named = {
            "trial": ("trial_s", statistics.median(item.wall for item in items), "s/trial"),
            "montecarlo": ("mc_trials_per_s", work / wall if wall else 0.0, "trials/s"),
            "bounds": ("bound_configs_per_s", work / wall if wall else 0.0, "configs/s"),
        }[wl.name]
        extra = [named, ("failed_frac", failed / attempted, "ratio")]
        if wl.name == "bounds":
            extra.append(("bounds_max_rel_err", bounds_err, "ratio"))
        else:
            extra += [(k, v, "ratio") for k, v in accuracy.summary().items()]
        for name, value, unit in extra:
            print(f"also {name} = {value!r} {unit}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
