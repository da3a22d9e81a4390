"""The three workloads of the stripeloc benchmark.

Each workload is a closed loop in one process: the next work item starts
only after the previous one has returned.  A work item is one
``run_pipeline`` call (``trial``), one ``run_monte_carlo`` call
(``montecarlo``) or one bound sweep plus heatmap (``bounds``).  Every item
reports how many units of work it did (trials or bound configurations), so
``item_s`` is comparable across runs that fit a different number of items
into the same time.

Everything the program receives is generated from the workload seed; the
same seed gives the same inputs.  The module imports numpy, so the caller
sets the BLAS thread environment before importing it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import stripeloc
from stripeloc import estimators, fim, harness, scenario, signal
from stripeloc.estimators import EstimateReport, NstConfig, SearchConfig, WantedParams
from stripeloc.fim import FimOptions

from spans import Target

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "bounds_reference.json"

TRIAL_SDNR_DB = 20.0
MC_SDNR_DB = (10.0, 20.0)
MC_THREADS = 2
MC_TRIALS = 2  # per SDNR cell: one per pool thread
WARMUP_SDNR_DB = 19.0  # warm-up inputs differ from every timed input
WARMUP_SEED = 1_000_000
BANDWIDTHS_HZ = np.logspace(6.0, 9.0, 25)
HEATMAP_N = 21
BOUNDS_TOL = 1e-9

_COARSE_SEARCH = SearchConfig(step=0.2, fine_span_wavelengths=0.3, refine_maxiter=20, n_starts=1)
_COARSE_NST = NstConfig(step=1.0, refine_maxiter=10)
_COARSE_JML_MAXITER = 20


@dataclass(frozen=True)
class Size:
    """Problem size of a run; ``full`` is the benchmark, ``tiny`` a smoke test."""

    search: Optional[SearchConfig]
    nst: Optional[NstConfig]
    jml_maxiter: int
    bandwidth_stride: int  # every n-th point of BANDWIDTHS_HZ
    heatmap_n: int  # HEATMAP_N - 1 must be a multiple of heatmap_n - 1


SIZES = {
    "full": Size(None, None, 2000, 1, HEATMAP_N),
    "tiny": Size(_COARSE_SEARCH, _COARSE_NST, _COARSE_JML_MAXITER, 12, 3),
}


@dataclass
class Item:
    """One timed work item: wall seconds, units of work, and its outputs."""

    wall: float
    work: int
    output: object
    failed: int = 0  # units of work that raised inside the item


class Checks:
    """Correctness checks of one run: counts plus a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}")


def _trial_id(rng_seed) -> str:
    return repr(tuple(int(x) for x in np.atleast_1d(rng_seed)))


def _obs_trial(obs) -> str:
    return _trial_id(obs.observations[0].rng_seed[:-1])


def _cost_trace(report) -> dict:
    """Start cost, final cost, iterations and evaluations of a refined stage."""
    start, final, nit, nfev = report.cost_trace
    return {"start": float(start), "final": float(final), "nit": int(nit), "nfev": int(nfev)}


def trace_targets() -> list:
    """Module attributes the package calls through, wrapped in traced runs.

    A function imported into several modules is wrapped in each of them
    under one span name.
    """
    synth_trial = lambda a, kw: _trial_id(kw.get("rng_seed", a[1] if len(a) > 1 else 0))
    fallback = lambda rep: {"fallback": rep.note.startswith("rank-deficient")}
    return [
        Target(scenario, "retune", "scenario.retune"),
        Target(signal, "synthesize", "signal.synthesize", trial_of=synth_trial),
        Target(harness, "synthesize", "signal.synthesize", trial_of=synth_trial),
        Target(signal, "make_disturbances", "signal.make_disturbances"),
        Target(fim, "make_disturbances", "signal.make_disturbances"),
        Target(signal, "disturbance_covariance", "channel.disturbance_covariance"),
        Target(signal, "enumerate_paths", "geometry.enumerate_paths"),
        Target(fim, "enumerate_paths", "geometry.enumerate_paths"),
        Target(fim, "compute_bounds", "fim.compute_bounds", attrs_of=fallback),
        Target(harness, "compute_bounds", "fim.compute_bounds", attrs_of=fallback),
        Target(fim, "local_fim", "fim.local_fim"),
        Target(fim, "jacobian", "fim.jacobian"),
        Target(fim, "efim", "fim.efim"),
        Target(fim, "bounds", "fim.bounds"),
        Target(estimators, "rml_position_search", "estimators.rml_position_search",
               trial_of=lambda a, kw: _obs_trial(a[0]),
               attrs_of=lambda rep: {"rml": _cost_trace(rep)}),
        Target(estimators, "nst_map_scatterers", "estimators.nst_map_scatterers"),
        Target(estimators, "jml_refine", "estimators.jml_refine",
               attrs_of=lambda rep: {"jml": _cost_trace(rep)}),
        Target(harness, "run_pipeline", "estimators.run_pipeline",
               trial_of=lambda a, kw: _obs_trial(a[0]),
               attrs_of=lambda reps: {"rml": _cost_trace(reps[1])}),
        Target(harness, "run_monte_carlo", "harness.run_monte_carlo"),
        Target(harness, "run_bounds_sweep", "harness.run_bounds_sweep"),
        Target(harness, "run_heatmap", "harness.run_heatmap"),
    ]


def truth_wanted(sc) -> WantedParams:
    return WantedParams(
        position=sc.ue_position,
        clock_offset=sc.clock_offset,
        phase_offset=float(sc.phase_offsets[0]),
        sp_positions=np.array([s.position for s in sc.scatterers]).reshape(-1, 3),
    )


def digest(values) -> str:
    """Stable hash of nested estimates (floats hashed by their repr)."""
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def _estimate_fields(report) -> list:
    return [
        report.stage,
        [float(v) for v in report.ue_position],
        float(report.clock_offset),
        float(report.phase_offset),
        [[float(v) for v in row] for row in report.sp_positions],
        float(report.cost),
        [float(v) for v in report.cost_trace],
    ]


@dataclass
class Accuracy:
    """Per-trial JML accuracy, normalized by the bounds of the trial's cell,
    and the largest deviation of computed bounds from the reference."""

    pos_over_peb: list = field(default_factory=list)
    clock_over_ceb: list = field(default_factory=list)
    jml_costs: list = field(default_factory=list)
    truth_costs: list = field(default_factory=list)
    bounds_max_rel_err: float = 0.0  # over the run's bound configurations

    def add(self, pos_err, clock_err_m, peb, ceb_m, jml_cost, truth_cost) -> None:
        self.pos_over_peb.append(pos_err / peb)
        self.clock_over_ceb.append(clock_err_m / ceb_m)
        self.jml_costs.append(jml_cost)
        self.truth_costs.append(truth_cost)

    def summary(self) -> dict:
        if not self.jml_costs:
            return {"jml_peb_ratio": 0.0, "jml_ceb_ratio": 0.0, "jml_cost_over_truth": 0.0}
        rms = lambda x: math.sqrt(float(np.mean(np.square(x))))
        return {
            "jml_peb_ratio": rms(self.pos_over_peb),
            "jml_ceb_ratio": rms(self.clock_over_ceb),
            "jml_cost_over_truth": float(np.mean(self.jml_costs) / np.mean(self.truth_costs)),
        }


def _jml_start(position, clock_offset, phase_offset, sp_positions) -> EstimateReport:
    """The report ``run_pipeline`` hands to ``jml_refine``: earlier estimates, no cost."""
    return EstimateReport(
        stage="JML",
        ue_position=np.asarray(position, float),
        clock_offset=clock_offset,
        phase_offset=phase_offset,
        sp_positions=np.array(sp_positions, float).reshape(-1, 3),
        amplitudes=None,
        cost=np.inf,
    )


class TrialWorkload:
    """Sequential ``run_pipeline`` calls on the estimation scene at 20 dB.

    Trial ``i`` draws its noise from ``(seed, i)``.  The traced form drives
    the public stage chain itself (``rml_position_search``, then
    ``nst_map_scatterers``, then ``jml_refine``) so each stage gets a span.
    """

    name = "trial"
    loader = "estimation_scenario"
    setup_sdnr_db = (TRIAL_SDNR_DB,)

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed
        self.sc = scenario.with_sdnr(stripeloc.estimation_scenario(), TRIAL_SDNR_DB)

    def warmup(self) -> None:
        sc = scenario.with_sdnr(self.sc, WARMUP_SDNR_DB)
        obs = signal.synthesize(sc, rng_seed=(self.seed, WARMUP_SEED))
        estimators.run_pipeline(obs, _COARSE_SEARCH, _COARSE_NST, _COARSE_JML_MAXITER)

    def _obs(self, i: int):
        return signal.synthesize(self.sc, rng_seed=(self.seed, i))

    def run(self, i: int) -> Item:
        obs = self._obs(i)
        t0 = time.perf_counter()
        reports = estimators.run_pipeline(
            obs, search=self.size.search, nst=self.size.nst, jml_maxiter=self.size.jml_maxiter
        )
        wall = time.perf_counter() - t0
        return Item(wall, 1, (obs, reports[1], reports[3]))

    def run_traced(self, i: int, tracer) -> Item:
        obs = self._obs(i)
        t0 = time.perf_counter()
        with tracer.span("bench.item", trial=_obs_trial(obs)):
            rml = estimators.rml_position_search(obs, self.size.search)
            sps = []
            if obs.scenario.scatterers:
                sps = estimators.nst_map_scatterers(
                    obs, rml.ue_position, rml.clock_offset, rml.phase_offset,
                    config=self.size.nst,
                )
            init = _jml_start(rml.ue_position, rml.clock_offset, rml.phase_offset, sps)
            jml = estimators.jml_refine(init, obs, maxiter=self.size.jml_maxiter)
        wall = time.perf_counter() - t0
        return Item(wall, 1, (obs, rml, jml))

    def digests(self, item: Item) -> list:
        _, rml, jml = item.output
        return [digest([_estimate_fields(rml), _estimate_fields(jml)])]

    def check(self, items, checks: Checks, accuracy: Accuracy) -> None:
        bounds = fim.compute_bounds(self.sc, FimOptions(sync_mode=self.sc.sync_mode, D=self.sc.D))
        truth = truth_wanted(self.sc)
        for item in items:
            obs, _, jml = item.output
            start = _cost_trace(jml)["start"]
            checks.add("jml cost <= start cost", jml.cost <= start,
                       f"trial {_obs_trial(obs)}: {jml.cost!r} > {start!r}")
            errs = harness.stage_errors(jml, self.sc)
            accuracy.add(errs["position"], errs["clock"], bounds.peb, bounds.ceb_m,
                         jml.cost, estimators.jml_cost(truth, obs))


class MonteCarloWorkload:
    """``run_monte_carlo`` over 10 and 20 dB with a two-thread pool.

    Call ``i`` uses master seed ``seed * 100 + i``; trials inside it derive
    their seeds from that, as the harness does.
    """

    name = "montecarlo"
    loader = "estimation_scenario"
    setup_sdnr_db = MC_SDNR_DB

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed
        self.sc = stripeloc.estimation_scenario()

    def warmup(self) -> None:
        harness.run_monte_carlo(
            self.sc, [WARMUP_SDNR_DB], MC_TRIALS, WARMUP_SEED, search=_COARSE_SEARCH,
            nst=_COARSE_NST, jml_maxiter=_COARSE_JML_MAXITER, threads=MC_THREADS,
        )

    def _call(self, i: int):
        return harness.run_monte_carlo(
            self.sc, list(MC_SDNR_DB), MC_TRIALS, self.seed * 100 + i,
            search=self.size.search, nst=self.size.nst,
            jml_maxiter=self.size.jml_maxiter, threads=MC_THREADS,
        )

    def run(self, i: int) -> Item:
        t0 = time.perf_counter()
        table = self._call(i)
        return self._item(time.perf_counter() - t0, i, table)

    def run_traced(self, i: int, tracer) -> Item:
        t0 = time.perf_counter()
        with tracer.span("bench.item", trial=f"call {self.seed * 100 + i}"):
            table = self._call(i)
        return self._item(time.perf_counter() - t0, i, table)

    @staticmethod
    def _item(wall: float, i: int, table) -> Item:
        return Item(wall, MC_TRIALS * len(MC_SDNR_DB), (i, table), len(table.failures))

    def digests(self, item: Item) -> list:
        return [digest(list(item.output[1].records))]

    def check(self, items, checks: Checks, accuracy: Accuracy) -> None:
        truth = truth_wanted(self.sc)
        for item in items:
            i, table = item.output
            by_trial: dict = {}
            for rec in table.records:
                by_trial.setdefault((rec["sdnr_db"], rec["trial"]), {})[rec["stage"]] = rec
            for (sdnr_db, t), stages in sorted(by_trial.items()):
                si = MC_SDNR_DB.index(sdnr_db)
                sc = scenario.with_sdnr(self.sc, sdnr_db)
                obs = signal.synthesize(sc, rng_seed=(self.seed * 100 + i, si, t))
                nst, jml = stages["NST"], stages["JML"]
                # the start cost as JML itself evaluates it, without moving;
                # jml_cost would refuse a rank-deficient start point
                init = _jml_start(nst["ue_position_m"], nst["clock_offset_s"],
                                  nst["phase_offset_rad"], nst["sp_positions_m"])
                start = _cost_trace(estimators.jml_refine(init, obs, maxiter=0))["start"]
                checks.add("jml cost <= start cost", jml["cost"] <= start,
                           f"sdnr {sdnr_db} trial {t}: {jml['cost']!r} > {start!r}")
                bounds = table.stage(sdnr_db, "JML").bounds
                accuracy.add(jml["position_error_m"], jml["clock_error_m"], bounds["position"],
                             bounds["clock"], jml["cost"], estimators.jml_cost(truth, obs))


def bounds_rows_key(row) -> tuple:
    return (float(row["value"]), row["sync"], row["case"])


def bound_values(row) -> list:
    sp = [float(v) for v in row["sp_peb_m"].split(";")] if row["sp_peb_m"] else []
    return [row["peb_m"], row["ceb_s"], row["cpeb_rad"], *sp]


def rel_err(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):  # infinities and NaN cells included
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / abs(b) if b != 0.0 else math.inf


def reference_table(sc) -> dict:
    """Bounds over the full sweep and heatmap, in the reference file's layout."""
    rows = harness.run_bounds_sweep(sc, "bandwidth", BANDWIDTHS_HZ)
    heat = harness.run_heatmap(sc, nx=HEATMAP_N, ny=HEATMAP_N)
    return {
        "scenario": "canonical",
        "sweep": [
            {"key": list(bounds_rows_key(r)), "values": bound_values(r)} for r in rows
        ],
        "heatmap": [r["peb_m"] for r in heat],
    }


class BoundsWorkload:
    """``run_bounds_sweep`` over bandwidth plus ``run_heatmap`` on the canonical scene.

    The configurations are fixed so that every pass is checked against the
    recorded reference; the seed sets the order in which each pass visits
    the bandwidth points.
    """

    name = "bounds"
    loader = "canonical_scenario"
    setup_sdnr_db = ()

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.sc = stripeloc.canonical_scenario()
        self.seed = seed
        self.values = BANDWIDTHS_HZ[:: size.bandwidth_stride]
        self.reference = json.loads(REFERENCE_PATH.read_text())

    def warmup(self) -> None:
        harness.run_bounds_sweep(self.sc, "bandwidth", [2e7, 2e8])

    def _pass(self, i: int):
        order = np.random.default_rng([self.seed, i]).permutation(self.values)
        rows = harness.run_bounds_sweep(self.sc, "bandwidth", order)
        heat = harness.run_heatmap(self.sc, nx=self.size.heatmap_n, ny=self.size.heatmap_n)
        return rows, heat

    def run(self, i: int) -> Item:
        t0 = time.perf_counter()
        rows, heat = self._pass(i)
        return Item(time.perf_counter() - t0, len(rows) + len(heat), (rows, heat))

    def run_traced(self, i: int, tracer) -> Item:
        t0 = time.perf_counter()
        with tracer.span("bench.item", trial=f"pass {i}"):
            rows, heat = self._pass(i)
        return Item(time.perf_counter() - t0, len(rows) + len(heat), (rows, heat))

    def digests(self, item: Item) -> list:
        rows, heat = item.output
        return [digest(sorted(rows, key=bounds_rows_key) + heat)]

    def max_rel_err(self, item: Item) -> float:
        rows, heat = item.output
        ref_rows = {tuple(r["key"]): r["values"] for r in self.reference["sweep"]}
        worst = 0.0
        for row in rows:
            ref = ref_rows.get(bounds_rows_key(row))
            got = bound_values(row)
            if ref is None or len(ref) != len(got):
                return math.inf
            worst = max([worst] + [rel_err(a, b) for a, b in zip(got, ref)])
        n = self.size.heatmap_n
        stride = (HEATMAP_N - 1) // (n - 1)
        ref_grid = np.array(self.reference["heatmap"]).reshape(HEATMAP_N, HEATMAP_N)
        ref_sub = ref_grid[::stride, ::stride].ravel()
        got = [r["peb_m"] for r in heat]
        if len(got) != len(ref_sub):
            return math.inf
        return max([worst] + [rel_err(a, float(b)) for a, b in zip(got, ref_sub)])

    def check(self, items, checks: Checks, accuracy: Accuracy) -> None:
        for i, item in enumerate(items):
            err = self.max_rel_err(item)
            checks.add("bounds match reference", err <= BOUNDS_TOL,
                       f"pass {i}: max relative error {err!r}")
            accuracy.bounds_max_rel_err = max(accuracy.bounds_max_rel_err, err)


WORKLOADS = {w.name: w for w in (TrialWorkload, MonteCarloWorkload, BoundsWorkload)}
