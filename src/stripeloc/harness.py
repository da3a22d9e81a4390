"""Monte Carlo benchmarking, error metrics, and bound sweeps.

Estimator output is scored against the Fisher bounds from the fim module.
Units follow the reporting convention used throughout: position and
scatterer errors in meters, clock-offset errors in meters (offset times the
speed of light), phase errors in radians.  The clock offset is identifiable
only modulo 1/delta_f, so clock errors are wrapped into that range before
aggregation.

Two aggregates are kept per metric: the raw RMSE over all successful trials
and the RMSE after inter-quartile-range outlier removal (samples outside
[Q1 - 1.5 IQR, Q3 + 1.5 IQR] dropped).  A sample set without outliers is
untouched by the cleaning step.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import StripelocError
from .estimators import NstConfig, SearchConfig, require_cp_sync, run_pipeline
from .fim import BoundsReport, FimOptions, SyncMode, compute_bounds, peb_heatmap
from .geometry import SPEED_OF_LIGHT, wrap_angle
from .scenario import with_antennas, with_bandwidth, with_sdnr
from .signal import synthesize

METRICS = ("position", "clock", "phase", "sp")
STAGES = ("RML-NCP", "RML", "NST", "JML")

#: Multipath content used in bound sweeps: LoS only, LoS+reflections,
#: everything, and everything with the reflection phases treated as known.
CASES = ("L--", "LR-", "LRS", "LRS+known-rp-phases")

BOUNDS_COLUMNS = (
    "sweep",
    "value",
    "sync",
    "case",
    "peb_m",
    "ceb_s",
    "ceb_m",
    "cpeb_rad",
    "sp_peb_m",
    "efim_cond",
    "note",
)

METRICS_COLUMNS = (
    "sdnr_db",
    "stage",
    "metric",
    "n_trials",
    "n_failed",
    "n_kept",
    "rmse_raw",
    "rmse_cleaned",
    "bound",
)

HEATMAP_COLUMNS = ("x_m", "y_m", "peb_m")


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def iqr_keep_mask(x: np.ndarray) -> np.ndarray:
    """Boolean mask of samples inside [Q1 - 1.5 IQR, Q3 + 1.5 IQR]."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.zeros(0, dtype=bool)
    q1, q3 = np.percentile(x, [25.0, 75.0])
    spread = q3 - q1
    return (x >= q1 - 1.5 * spread) & (x <= q3 + 1.5 * spread)


def rmse(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean(np.square(x))))


def wrapped_clock_error(estimate: float, truth: float, delta_f: float) -> float:
    """|estimate - truth| in seconds, wrapped into the unambiguous range.

    The observation is exactly periodic in the clock offset with period
    1/delta_f, so differences are folded into (-period/2, period/2].
    """
    period = 1.0 / delta_f
    d = (estimate - truth + 0.5 * period) % period - 0.5 * period
    return abs(d)


def sp_match_error(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Mean distance between estimated and true scatterers, best assignment.

    Counts are small (a handful of scatterers), so the assignment is solved
    by enumeration.  Returns nan when either side is empty.
    """
    est = np.asarray(estimated, dtype=float).reshape(-1, 3)
    tru = np.asarray(truth, dtype=float).reshape(-1, 3)
    if est.shape[0] == 0 or tru.shape[0] == 0:
        return float("nan")
    n = min(est.shape[0], tru.shape[0])
    dist = np.linalg.norm(est[:, None, :] - tru[None, :, :], axis=-1)
    best = np.inf
    for rows in itertools.permutations(range(est.shape[0]), n):
        best = min(best, float(np.mean(dist[list(rows), range(n)])))
    return best


def stage_errors(report, scenario) -> dict:
    """Per-metric error of one stage report against the scenario truth."""
    pos = float(np.linalg.norm(report.ue_position - scenario.ue_position))
    clock = SPEED_OF_LIGHT * wrapped_clock_error(
        report.clock_offset, scenario.clock_offset, scenario.waveform.delta_f
    )
    phase = abs(wrap_angle(report.phase_offset - scenario.phase_offsets[0]))
    if scenario.scatterers and report.sp_positions.shape[0] > 0:
        sp = sp_match_error(
            report.sp_positions,
            np.array([s.position for s in scenario.scatterers]),
        )
    else:
        sp = float("nan")
    return {"position": pos, "clock": clock, "phase": phase, "sp": sp}


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageMetrics:
    """Errors and aggregates for one (SDNR point, pipeline stage) cell."""

    sdnr_db: float
    stage: str
    errors: dict  # metric -> per-trial error array, successful trials only
    rmse_raw: dict
    rmse_cleaned: dict
    n_kept: dict
    bounds: dict  # metric -> Fisher bound in the metric's unit


@dataclass(frozen=True)
class MetricsTable:
    """Monte Carlo results: per-cell aggregates plus per-trial records."""

    entries: tuple
    failures: tuple
    records: tuple = ()

    def stage(self, sdnr_db: float, stage: str) -> StageMetrics:
        for e in self.entries:
            if e.stage == stage and e.sdnr_db == float(sdnr_db):
                return e
        raise KeyError(f"no entry for sdnr={sdnr_db} stage={stage!r}")

    def rows(self) -> list:
        out = []
        for e in self.entries:
            for metric in METRICS:
                out.append(
                    {
                        "sdnr_db": e.sdnr_db,
                        "stage": e.stage,
                        "metric": metric,
                        "n_trials": len(e.errors[metric]),
                        "n_failed": sum(
                            1 for f in self.failures if f["sdnr_db"] == e.sdnr_db
                        ),
                        "n_kept": e.n_kept[metric],
                        "rmse_raw": e.rmse_raw[metric],
                        "rmse_cleaned": e.rmse_cleaned[metric],
                        "bound": e.bounds[metric],
                    }
                )
        return out

    def to_csv(self) -> str:
        return render_csv(self.rows(), METRICS_COLUMNS)


def _aggregate(values: list) -> tuple:
    x = np.asarray(values, dtype=float)
    keep = iqr_keep_mask(x)
    return rmse(x), rmse(x[keep]), int(keep.sum())


def _table_entry(sdnr_db: float, stage: str, per_metric: dict, bounds: dict) -> StageMetrics:
    raw, cleaned, kept = {}, {}, {}
    arrays = {}
    for m in METRICS:
        arrays[m] = np.asarray(per_metric[m], dtype=float)
        raw[m], cleaned[m], kept[m] = _aggregate(per_metric[m])
    return StageMetrics(
        sdnr_db=float(sdnr_db),
        stage=stage,
        errors=arrays,
        rmse_raw=raw,
        rmse_cleaned=cleaned,
        n_kept=kept,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------


def _trial_record(sdnr_db, trial, report, errors) -> dict:
    def clean(v):
        return None if not np.isfinite(v) else float(v)

    return {
        "sdnr_db": float(sdnr_db),
        "trial": int(trial),
        "stage": report.stage,
        "ue_position_m": [float(v) for v in report.ue_position],
        "clock_offset_s": float(report.clock_offset),
        "phase_offset_rad": float(report.phase_offset),
        "sp_positions_m": [[float(v) for v in row] for row in report.sp_positions],
        "cost": float(report.cost),
        "position_error_m": clean(errors["position"]),
        "clock_error_m": clean(errors["clock"]),
        "phase_error_rad": clean(errors["phase"]),
        "sp_error_m": clean(errors["sp"]),
    }


def run_monte_carlo(
    scenario,
    sdnr_list: Sequence[float],
    trials: int,
    master_seed: int,
    search: Optional[SearchConfig] = None,
    nst: Optional[NstConfig] = None,
    jml_maxiter: int = 2000,
    threads: int = 1,
) -> MetricsTable:
    """Run the full pipeline over a grid of SDNR points.

    Per-trial seeds are derived as (master_seed, sdnr index, trial index),
    so results are reproducible for a fixed master seed regardless of
    thread count; any exception a trial raises is recorded in the table's
    failures, not raised.

    Raises SemanticError for a ``sync_mode=ncp`` scenario (``require_cp_sync``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    require_cp_sync(scenario)
    entries: list = []
    failures: list = []
    records: list = []
    for si, sdnr_db in enumerate(sdnr_list):
        sc = with_sdnr(scenario, float(sdnr_db))
        report = compute_bounds(sc, FimOptions(sync_mode=sc.sync_mode, D=sc.D))
        bounds = {
            "position": report.peb,
            "clock": report.ceb_m,
            "phase": report.cpeb,
            "sp": float(np.mean(report.sp_peb)) if len(report.sp_peb) else float("nan"),
        }
        per_stage = {stage: {m: [] for m in METRICS} for stage in STAGES}

        def one(t, _sc=sc, _si=si):
            try:
                obs = synthesize(_sc, rng_seed=(master_seed, _si, t))
                return run_pipeline(obs, search=search, nst=nst, jml_maxiter=jml_maxiter)
            except Exception as exc:  # recorded as this trial's failure
                return exc

        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(trials)))

        for t, res in enumerate(results):  # trial order keeps aggregation reproducible
            if isinstance(res, Exception):
                failures.append(
                    {
                        "sdnr_db": float(sdnr_db),
                        "trial": t,
                        "error": type(res).__name__,
                        "message": str(res),
                    }
                )
                continue
            for rep in res:
                errs = stage_errors(rep, sc)
                records.append(_trial_record(sdnr_db, t, rep, errs))
                for m, v in errs.items():
                    if np.isfinite(v):
                        per_stage[rep.stage][m].append(v)

        for stage in STAGES:
            entries.append(_table_entry(sdnr_db, stage, per_stage[stage], bounds))
    return MetricsTable(tuple(entries), tuple(failures), tuple(records))


# ---------------------------------------------------------------------------
# bound sweeps
# ---------------------------------------------------------------------------


def multipath_case(scenario, case: str):
    """Carve a scenario down to one multipath case.

    Returns (scenario, known_rp_phases).  Transmit power is kept as-is so
    the cases compare information content at a fixed link budget; re-solve
    power against the dB targets (retune) before carving, not after.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    known = case == "LRS+known-rp-phases"
    sc = scenario
    if case == "L--":
        stripes = tuple(
            dataclasses.replace(s, mounted_wall=None) for s in sc.stripes
        )
        sc = dataclasses.replace(sc, walls=(), stripes=stripes, scatterers=())
    elif case == "LR-":
        sc = dataclasses.replace(sc, scatterers=())
    return sc, known


_SWEEP_APPLY = {
    "bandwidth": lambda sc, v: with_bandwidth(sc, float(v)),
    "aperture": lambda sc, v: with_antennas(sc, int(v)),
    "sdnr": lambda sc, v: with_sdnr(sc, float(v)),
}


def run_bounds_sweep(
    scenario,
    sweep: str,
    values: Sequence[float],
    sync_modes: Sequence[SyncMode] = (SyncMode.CP, SyncMode.NCP),
) -> list:
    """Bound rows over a sweep axis, per sync mode and multipath case of ``CASES``.

    Each row is a dict keyed by BOUNDS_COLUMNS.  Singular configurations
    appear as inf bounds with a diagnostic note rather than raising.
    """
    if sweep not in _SWEEP_APPLY:
        raise ValueError(f"unknown sweep {sweep!r}; expected one of {sorted(_SWEEP_APPLY)}")
    apply = _SWEEP_APPLY[sweep]
    rows = []
    for value in values:
        tuned = apply(scenario, value)
        for sync in sync_modes:
            for case in CASES:
                carved, known = multipath_case(tuned, case)
                options = FimOptions(sync_mode=sync, D=carved.D, known_rp_phases=known)
                try:
                    rep = compute_bounds(carved, options)
                except (StripelocError, np.linalg.LinAlgError) as exc:
                    inf, note = float("inf"), f"{type(exc).__name__}: {exc}"
                    rep = BoundsReport(inf, inf, inf, np.empty(0), inf, note)
                sp_peb = ";".join(repr(float(v)) for v in rep.sp_peb)
                fields = (sweep, float(value), sync.value, case, rep.peb, rep.ceb, rep.ceb_m,
                          rep.cpeb, sp_peb, rep.efim_cond, rep.note)
                rows.append(dict(zip(BOUNDS_COLUMNS, fields)))
    return rows


def run_heatmap(
    scenario,
    nx: int = 41,
    ny: int = 41,
    options: Optional[FimOptions] = None,
) -> list:
    """PEB over a horizontal grid spanning the room, 0.3 m inside its walls
    (or the stripes' extent without walls), at the UE height, one row per
    cell."""
    if options is None:
        options = FimOptions(sync_mode=scenario.sync_mode, D=scenario.D)
    pts = np.array([w.point for w in scenario.walls])
    if pts.size == 0:
        pts = np.array([s.phase_center for s in scenario.stripes])
    xs = np.linspace(pts[:, 0].min() + 0.3, pts[:, 0].max() - 0.3, nx)
    ys = np.linspace(pts[:, 1].min() + 0.3, pts[:, 1].max() - 0.3, ny)
    grid = peb_heatmap(scenario, xs, ys, options)
    rows = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            rows.append({"x_m": float(x), "y_m": float(y), "peb_m": float(grid[j, i])})
    return rows


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def render_csv(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Render rows to CSV text with a frozen column order.

    Floats are written with repr so re-running with the same seed
    reproduces the file byte-for-byte.
    """
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for c in columns:
            cell = _format_cell(row[c])
            if "," in cell or '"' in cell or "\n" in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_records(records: Sequence[dict]) -> str:
    """One JSON object per line, keys in insertion order."""
    return "".join(json.dumps(r) + "\n" for r in records)
