"""Monte Carlo harness and bound-sweep tests.

Metric helpers are checked against hand-computed values; the Monte Carlo
driver is exercised noise-free (where every stage must land within solver
tolerance) and with noise for determinism and failure-recording behavior.
"""

import dataclasses
import json

import numpy as np
import pytest

import stripeloc.harness as harness_mod
from stripeloc.errors import SemanticError, StripelocError
from stripeloc.estimators import SearchConfig
from stripeloc.fim import SyncMode
from stripeloc.harness import (
    BOUNDS_COLUMNS,
    CASES,
    HEATMAP_COLUMNS,
    METRICS,
    METRICS_COLUMNS,
    STAGES,
    MetricsTable,
    iqr_keep_mask,
    multipath_case,
    render_csv,
    render_records,
    rmse,
    run_bounds_sweep,
    run_heatmap,
    run_monte_carlo,
    sp_match_error,
    stage_errors,
    wrapped_clock_error,
)
from stripeloc.scenario import canonical_scenario, estimation_scenario


# ---------------------------------------------------------------------------
# metric helpers
# ---------------------------------------------------------------------------


def test_iqr_keep_mask_no_outliers_is_noop():
    x = np.linspace(1.0, 2.0, 17)
    assert iqr_keep_mask(x).all()


def test_iqr_keep_mask_drops_far_sample():
    x = np.concatenate([np.linspace(1.0, 2.0, 20), [50.0]])
    keep = iqr_keep_mask(x)
    assert not keep[-1]
    assert keep[:-1].all()
    assert rmse(x[keep]) <= rmse(x)


def test_iqr_keep_mask_empty():
    assert iqr_keep_mask(np.array([])).size == 0


def test_rmse_values():
    assert np.isnan(rmse(np.array([])))
    assert rmse(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5), rel=1e-12)


def test_wrapped_clock_error_folds_period():
    delta_f = 0.5e6
    period = 1.0 / delta_f
    assert wrapped_clock_error(3e-9, 1e-9, delta_f) == pytest.approx(2e-9)
    # a full period away is indistinguishable from zero error
    assert wrapped_clock_error(1e-9 + period, 1e-9, delta_f) == pytest.approx(0.0, abs=1e-18)
    # wraps to the near side
    assert wrapped_clock_error(period - 1e-9, 0.0, delta_f) == pytest.approx(1e-9)


def test_sp_match_error_best_assignment():
    truth = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    swapped = truth[::-1]
    assert sp_match_error(swapped, truth) == pytest.approx(0.0, abs=1e-15)
    shifted = truth + np.array([0.0, 0.3, 0.0])
    assert sp_match_error(shifted, truth) == pytest.approx(0.3)
    assert np.isnan(sp_match_error(np.zeros((0, 3)), truth))


def test_stage_errors_zero_at_truth():
    sc = estimation_scenario()

    class FakeReport:
        stage = "JML"
        ue_position = sc.ue_position
        clock_offset = sc.clock_offset
        phase_offset = float(sc.phase_offsets[0])
        sp_positions = np.array([s.position for s in sc.scatterers])

    errs = stage_errors(FakeReport(), sc)
    assert all(errs[m] == pytest.approx(0.0, abs=1e-12) for m in METRICS)


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_table():
    # noise-free draws: the harness synthesizes every trial through its own
    # module-level ``synthesize``
    sc = estimation_scenario()
    noisy = harness_mod.synthesize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_mod, "synthesize",
                   lambda scene, rng_seed: noisy(scene, rng_seed, noise_scale=0.0))
        return run_monte_carlo(sc, [20.0], trials=1, master_seed=5)


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_monte_carlo(estimation_scenario(), [20.0], trials=0, master_seed=1)


def test_monte_carlo_noise_free_all_stages_converge(clean_table):
    errs = {s: clean_table.stage(20.0, s).errors for s in STAGES}
    # coarse noncoherent pick is grid- and bandwidth-limited
    lam = estimation_scenario().waveform.wavelength
    assert errs["RML-NCP"]["position"][0] < 2.0 * lam
    assert errs["RML-NCP"]["clock"][0] < 5.0
    # coherent stages land within solver tolerance; the relaxed stage keeps
    # a small clock bias because the scatterer is not in its model, and the
    # joint stage removes it
    for s in ("RML", "JML"):
        assert errs[s]["position"][0] < 5e-3
        assert errs[s]["clock"][0] < 0.5
        assert errs[s]["phase"][0] < 5e-2
    assert errs["JML"]["position"][0] < 1e-4
    assert errs["JML"]["clock"][0] < 0.1 * errs["RML"]["clock"][0]
    # scatterer mapping lands near the truth (the dip search runs at the
    # relaxed-stage estimates, so it inherits their clock bias)
    assert errs["NST"]["sp"][0] < 0.6
    assert errs["JML"]["sp"][0] < 0.6
    assert not clean_table.failures


def test_metrics_table_invariants(clean_table):
    for row in clean_table.rows():
        if np.isfinite(row["rmse_raw"]):
            assert row["rmse_cleaned"] <= row["rmse_raw"] + 1e-12
    with pytest.raises(KeyError):
        clean_table.stage(20.0, "nope")


def test_metrics_table_csv_has_frozen_columns(clean_table):
    text = clean_table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    # one row per (sdnr, stage, metric)
    assert len(lines) - 1 == len(STAGES) * len(METRICS)


def test_monte_carlo_records_are_stage_tagged(clean_table):
    stages = [r["stage"] for r in clean_table.records]
    assert stages == list(STAGES)
    rec = clean_table.records[-1]
    assert rec["trial"] == 0 and rec["sdnr_db"] == 20.0
    assert len(rec["ue_position_m"]) == 3
    text = render_records(clean_table.records)
    parsed = [json.loads(line) for line in text.strip().split("\n")]
    assert parsed[0]["stage"] == "RML-NCP"


def test_monte_carlo_deterministic_and_thread_invariant():
    sc = estimation_scenario()
    a = run_monte_carlo(sc, [20.0], trials=2, master_seed=9)
    b = run_monte_carlo(sc, [20.0], trials=2, master_seed=9, threads=2)
    assert a.to_csv() == b.to_csv()
    assert render_records(a.records) == render_records(b.records)


def test_monte_carlo_records_failures_not_fatal():
    sc = estimation_scenario()
    # a search box with no cells makes every trial fail fast
    bad = SearchConfig(box=((10.0, 10.0), (9.0, 9.0)))
    table = run_monte_carlo(sc, [20.0], trials=2, master_seed=3, search=bad)
    assert len(table.failures) == 2
    assert all(f["error"] == "SearchFailure" for f in table.failures)
    entry = table.stage(20.0, "JML")
    assert entry.errors["position"].size == 0
    assert np.isnan(entry.rmse_raw["position"])


def test_monte_carlo_records_any_trial_exception(monkeypatch):
    real = harness_mod.run_pipeline

    def flaky(obs, **kw):
        # the per-stripe seed key is (master seed, sdnr index, trial, stripe)
        if obs.observations[0].rng_seed[2] == 0:
            raise RuntimeError("trial 0 broke")
        return real(obs, **kw)

    monkeypatch.setattr(harness_mod, "run_pipeline", flaky)
    table = run_monte_carlo(estimation_scenario(), [20.0], trials=2, master_seed=3, jml_maxiter=20)
    assert table.failures == (
        {"sdnr_db": 20.0, "trial": 0, "error": "RuntimeError", "message": "trial 0 broke"},
    )
    assert [(r["trial"], r["stage"]) for r in table.records] == [(1, s) for s in STAGES]
    assert table.stage(20.0, "JML").errors["position"].size == 1


def test_monte_carlo_refuses_ncp_sync_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(harness_mod, "run_pipeline", lambda obs, **kw: calls.append(obs))
    sc = dataclasses.replace(estimation_scenario(), sync_mode=SyncMode.NCP)
    with pytest.raises(SemanticError, match="one phase offset shared by all stripes"):
        run_monte_carlo(sc, [20.0], trials=2, master_seed=1)
    assert calls == []


def test_monte_carlo_error_decreases_with_sdnr():
    sc = estimation_scenario()
    table = run_monte_carlo(sc, [0.0, 20.0], trials=2, master_seed=2)
    lo = table.stage(0.0, "JML").rmse_cleaned["position"]
    hi = table.stage(20.0, "JML").rmse_cleaned["position"]
    assert hi < lo


# ---------------------------------------------------------------------------
# bound sweeps
# ---------------------------------------------------------------------------


def test_multipath_case_carving():
    sc = estimation_scenario()
    los_only, known = multipath_case(sc, "L--")
    assert not known
    assert los_only.walls == () and los_only.scatterers == ()
    assert all(s.mounted_wall is None for s in los_only.stripes)
    assert los_only.transmit_power == sc.transmit_power

    lr, _ = multipath_case(sc, "LR-")
    assert lr.walls == sc.walls and lr.scatterers == ()

    full, _ = multipath_case(sc, "LRS")
    assert full is sc

    _, known = multipath_case(sc, "LRS+known-rp-phases")
    assert known

    with pytest.raises(ValueError):
        multipath_case(sc, "everything")


def test_run_bounds_sweep_rows():
    sc = canonical_scenario()
    rows = run_bounds_sweep(sc, "bandwidth", [10e6, 100e6])
    assert len(rows) == 2 * 2 * len(CASES)
    assert list(rows[0].keys()) == list(BOUNDS_COLUMNS)
    by = {(r["value"], r["sync"], r["case"]): r for r in rows}
    for v in (10e6, 100e6):
        for case in CASES:
            cp = by[(v, "cp", case)]["peb_m"]
            ncp = by[(v, "ncp", case)]["peb_m"]
            assert cp < ncp  # carrier phase always helps position
        # disclosing reflection phases can only add information
        assert by[(v, "cp", "LRS+known-rp-phases")]["peb_m"] <= by[(v, "cp", "LRS")]["peb_m"] * (1 + 1e-9)


def test_run_bounds_sweep_empty_and_unknown():
    sc = canonical_scenario()
    assert run_bounds_sweep(sc, "sdnr", []) == []
    assert render_csv([], BOUNDS_COLUMNS) == ",".join(BOUNDS_COLUMNS) + "\n"
    with pytest.raises(ValueError):
        run_bounds_sweep(sc, "carrier", [1.0])


def test_run_bounds_sweep_aperture_uses_integer_antennas():
    sc = canonical_scenario()
    rows = run_bounds_sweep(sc, "aperture", [4], sync_modes=(SyncMode.CP,))
    assert [r["case"] for r in rows] == list(CASES)
    rows = [r for r in rows if r["case"] == "LRS"]
    assert rows[0]["sweep"] == "aperture" and rows[0]["value"] == 4.0
    assert np.isfinite(rows[0]["peb_m"])


def test_run_heatmap_rows():
    sc = estimation_scenario()
    rows = run_heatmap(sc, nx=3, ny=2)
    assert len(rows) == 6
    assert list(rows[0].keys()) == list(HEATMAP_COLUMNS)
    assert all(np.isfinite(r["peb_m"]) for r in rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_render_csv_formatting():
    rows = [{"a": 1, "b": 0.1, "c": "x,y", "d": float("inf")}]
    text = render_csv(rows, ("a", "b", "c", "d"))
    assert text == 'a,b,c,d\n1,0.1,"x,y",inf\n'
    assert render_csv(rows, ("a", "b", "c", "d")) == text


def test_render_records_round_trip():
    recs = [{"stage": "RML", "x": 1.25}, {"stage": "JML", "x": None}]
    lines = render_records(recs).strip().split("\n")
    assert [json.loads(l)["stage"] for l in lines] == ["RML", "JML"]
    assert json.loads(lines[1])["x"] is None
