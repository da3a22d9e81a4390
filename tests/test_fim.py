"""Fisher-information tests: local FIM, Jacobians, EFIM, bounds, thresholds."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stripeloc.errors import DegenerateGeometry, SingularFim
from stripeloc.fim import (
    BoundsReport,
    FimOptions,
    SyncMode,
    bounds,
    bw_thresholds,
    compute_bounds,
    efim,
    global_fim,
    jacobian,
    local_channel_params,
    local_fim,
    make_layout,
    peb_heatmap,
)
from stripeloc.scenario import canonical_scenario, with_antennas, with_bandwidth
from stripeloc.signal import (
    d_steering_frequency,
    d_steering_spatial,
    make_disturbances,
    whitened_response_parts,
)

import oracles
from conftest import random_small_scenario
from stripeloc import estimation_scenario, fim


def options_for(scenario, rng) -> FimOptions:
    return FimOptions(
        sync_mode=scenario.sync_mode,
        D=scenario.D,
        known_rp_phases=bool(rng.random() < 0.5),
    )


# ---------------------------------------------------------------------------
# Local FIM against the finite-difference oracle
# ---------------------------------------------------------------------------


def test_local_fim_matches_fd_oracle():
    rng = np.random.default_rng(31)
    for _ in range(12):
        sc = random_small_scenario(rng)
        disturbances = make_disturbances(sc)
        for n, stripe in enumerate(sc.stripes):
            params = local_channel_params(sc, n)
            J = local_fim(stripe, sc.waveform, params, disturbances[n])
            R = oracles.dense_disturbance_cov(
                sc.dmc.alpha1,
                sc.dmc.beta_d,
                sc.dmc.tau_d,
                sc.waveform.sigma2,
                sc.waveform.pilots,
                stripe.num_antennas,
            )
            J_fd = oracles.fd_local_fim(
                params.stacked(),
                R,
                sc.waveform.pilots,
                stripe.num_antennas,
                sc.waveform.K,
                stripe.spacing,
                sc.waveform.wavelength,
                sc.waveform.delta_f,
            )
            scale = np.sqrt(np.outer(np.diag(J_fd), np.diag(J_fd)))
            assert np.all(np.abs(J - J_fd) <= 1e-5 * scale + 1e-12 * scale.max())


def test_local_fim_symmetric_psd():
    rng = np.random.default_rng(32)
    for _ in range(6):
        sc = random_small_scenario(rng)
        disturbances = make_disturbances(sc)
        for n, stripe in enumerate(sc.stripes):
            J = local_fim(stripe, sc.waveform, local_channel_params(sc, n), disturbances[n])
            assert_allclose(J, J.T, atol=1e-18 * max(1.0, np.abs(J).max()))
            w = np.linalg.eigvalsh(J)
            assert w.min() >= -1e-10 * max(w.max(), 1.0)


def test_local_fim_equals_per_path_loop():
    # the batched columns carry the bits of one np.kron column set per path
    sc = random_small_scenario(np.random.default_rng(33))
    wf = sc.waveform
    for n, stripe in enumerate(sc.stripes):
        dist = make_disturbances(sc)[n]
        p = local_channel_params(sc, n)
        Nc = len(p.thetas)
        cols = np.empty((stripe.num_antennas * wf.K, 4 * Nc), dtype=complex)
        for i in range(Nc):
            th, ta = p.thetas[i], p.pseudo_delays[i]
            gamma = p.amplitudes[i] * np.exp(1j * p.phases[i])
            u, a = whitened_response_parts(th, ta, wf, stripe, dist)
            a_dot = d_steering_spatial(th, stripe.num_antennas, stripe.spacing, wf.wavelength)
            u_dot = dist.whiten_freq(d_steering_frequency(ta, wf.K, wf.delta_f) * wf.pilots)
            cols[:, i] = gamma * np.kron(u, a_dot)
            cols[:, Nc + i] = gamma * np.kron(u_dot, a)
            cols[:, 2 * Nc + i] = 1j * gamma * np.kron(u, a)
            cols[:, 3 * Nc + i] = np.exp(1j * p.phases[i]) * np.kron(u, a)
        J = 2.0 * np.real(cols.conj().T @ cols)
        np.testing.assert_array_equal(local_fim(stripe, wf, p, dist), 0.5 * (J + J.T))


# ---------------------------------------------------------------------------
# Jacobian against the finite-difference oracle
# ---------------------------------------------------------------------------


def test_jacobian_matches_fd_oracle():
    rng = np.random.default_rng(33)
    for _ in range(12):
        sc = random_small_scenario(rng)
        opts = options_for(sc, rng)
        for n in range(len(sc.stripes)):
            T = jacobian(sc, n, opts)
            T_fd = oracles.fd_jacobian(
                sc,
                n,
                sync_mode_ncp=opts.sync_mode is SyncMode.NCP,
                D_pos=opts.D,
                known_rp_phases=opts.known_rp_phases,
            )
            assert T.shape == T_fd.shape
            assert np.all(np.abs(T - T_fd) <= 1e-6 * (1.0 + np.abs(T_fd)))


# ---------------------------------------------------------------------------
# Parameter layout bookkeeping
# ---------------------------------------------------------------------------


def test_layout_dimensions_canonical():
    sc = canonical_scenario()
    # 4 stripes, each seeing LoS + 3 reflections (own wall skipped) + 2 scatterers
    cp = make_layout(sc, FimOptions(sync_mode=SyncMode.CP, D=2))
    assert cp.wanted_dim == 2 + 1 + 1 + 3 * 2
    assert cp.nuis_phase_counts == (5, 5, 5, 5)
    assert cp.amp_counts == (6, 6, 6, 6)
    assert cp.dim == cp.wanted_dim + 20 + 24

    ncp = make_layout(sc, FimOptions(sync_mode=SyncMode.NCP, D=3))
    assert ncp.wanted_dim == 3 + 1 + 4 + 6
    assert ncp.dim == ncp.wanted_dim + 20 + 24

    known = make_layout(sc, FimOptions(sync_mode=SyncMode.CP, D=2, known_rp_phases=True))
    assert known.nuis_phase_counts == (2, 2, 2, 2)
    assert known.dim == cp.dim - 4 * 3


def test_layout_row_indexing():
    sc = canonical_scenario()
    lay = make_layout(sc, FimOptions(sync_mode=SyncMode.NCP, D=2))
    assert lay.clock == 2
    assert lay.phase_offset_row(0) == 3
    assert lay.phase_offset_row(3) == 6
    assert lay.sp_slice(0) == slice(7, 10)
    assert lay.sp_slice(1) == slice(10, 13)
    assert lay.nuis_phase_row(0, 0) == lay.wanted_dim
    assert lay.nuis_phase_row(1, 0) == lay.wanted_dim + 5
    assert lay.amp_row(0, 0) == lay.wanted_dim + 20
    assert lay.amp_row(3, 5) == lay.dim - 1

    cp = make_layout(sc, FimOptions(sync_mode=SyncMode.CP, D=2))
    assert cp.phase_offset_row(0) == cp.phase_offset_row(3) == 3


# ---------------------------------------------------------------------------
# EFIM and bounds
# ---------------------------------------------------------------------------


def test_efim_matches_dense_schur():
    rng = np.random.default_rng(34)
    sc = random_small_scenario(rng)
    opts = FimOptions(sync_mode=sc.sync_mode, D=sc.D)
    J, lay = global_fim(sc, opts)
    E = efim(J, lay)
    w = lay.wanted_dim
    E_ref = J[:w, :w] - J[:w, w:] @ np.linalg.solve(J[w:, w:], J[w:, :w])
    assert_allclose(E, E_ref, rtol=0, atol=1e-9 * np.abs(E_ref).max())


def test_global_fim_psd_and_layout():
    rng = np.random.default_rng(35)
    sc = random_small_scenario(rng)
    opts = FimOptions(sync_mode=sc.sync_mode, D=sc.D)
    J, lay = global_fim(sc, opts)
    assert J.shape == (lay.dim, lay.dim)
    w = np.linalg.eigvalsh(J)
    assert w.min() >= -1e-8 * max(w.max(), 1.0)


def test_bounds_report_fields():
    sc = canonical_scenario()
    rep = compute_bounds(sc, FimOptions(sync_mode=SyncMode.CP, D=2))
    assert isinstance(rep, BoundsReport)
    assert 1e-4 < rep.peb < 1e-2  # millimetre scale at 10 MHz
    assert rep.ceb > 0 and np.isfinite(rep.ceb)
    assert rep.ceb_m == pytest.approx(rep.ceb * 299792458.0)
    assert rep.cpeb > 0
    assert rep.sp_peb.shape == (2,)
    assert np.all(np.isfinite(rep.sp_peb))
    assert np.isfinite(rep.efim_cond)
    assert rep.note == ""


def test_cp_tighter_than_ncp():
    sc = canonical_scenario()
    for bw in (2e6, 10e6, 2e8):
        scb = with_bandwidth(sc, bw)
        cp = compute_bounds(scb, FimOptions(sync_mode=SyncMode.CP, D=2))
        ncp = compute_bounds(scb, FimOptions(sync_mode=SyncMode.NCP, D=2))
        assert cp.peb < ncp.peb


def test_known_rp_phases_never_hurts():
    sc = canonical_scenario()
    for mode in (SyncMode.CP, SyncMode.NCP):
        free = compute_bounds(sc, FimOptions(sync_mode=mode, D=2))
        known = compute_bounds(sc, FimOptions(sync_mode=mode, D=2, known_rp_phases=True))
        slack = 1.0 + 1e-9
        assert known.peb <= free.peb * slack
        assert known.ceb <= free.ceb * slack
        assert known.cpeb <= free.cpeb * slack
        assert np.all(known.sp_peb <= free.sp_peb * slack)


def test_more_antennas_never_hurt():
    sc = canonical_scenario()
    p8 = compute_bounds(with_antennas(sc, 8), FimOptions(sync_mode=SyncMode.CP, D=2)).peb
    p16 = compute_bounds(with_antennas(sc, 16), FimOptions(sync_mode=SyncMode.CP, D=2)).peb
    assert p16 < p8


def test_d3_no_tighter_than_d2():
    rng = np.random.default_rng(36)
    # stripes at distinct heights so the vertical coordinate is identifiable
    for _ in range(4):
        sc = random_small_scenario(rng)
        d2 = compute_bounds(sc, FimOptions(sync_mode=SyncMode.CP, D=2))
        d3 = compute_bounds(sc, FimOptions(sync_mode=SyncMode.CP, D=3))
        assert d3.peb >= d2.peb * (1.0 - 1e-9)


@pytest.mark.parametrize("stage", ["efim", "bounds"])
@pytest.mark.parametrize("defect", ["zero-diagonal", "singular-block"])
def test_singular_information_is_refused(stage, defect):
    # efim factors the nuisance block of J, bounds the whole EFIM; an entry
    # with no information is named by its parameter index, and a block that
    # fails to factor is refused as a whole
    layout = make_layout(canonical_scenario(), FimOptions(sync_mode=SyncMode.CP, D=2))
    w = layout.wanted_dim
    A = np.eye(layout.dim if stage == "efim" else w)
    k = w + 2 if stage == "efim" else 2
    if defect == "zero-diagonal":
        A[k, k] = 0.0
        message = f"{'nuisance' if stage == 'efim' else 'wanted'} parameter {k} carries no information"
    else:
        A[k : k + 2, k : k + 2] = 1.0
        message = ("nuisance information block" if stage == "efim" else "equivalent FIM") + " is singular"
    with pytest.raises(SingularFim, match=f"^{message}$"):
        efim(A, layout) if stage == "efim" else bounds(A, layout)


def test_underdetermined_scene_degrades_to_inf():
    rng = np.random.default_rng(37)
    sc = random_small_scenario(rng)
    lone = dataclasses.replace(
        sc,
        walls=(),
        scatterers=(),
        stripes=(dataclasses.replace(sc.stripes[0], num_antennas=1, mounted_wall=None),),
        phase_offsets=sc.phase_offsets[:1],
    )
    rep = compute_bounds(lone, FimOptions(sync_mode=SyncMode.CP, D=2))
    assert math.isinf(rep.peb)
    assert math.isinf(rep.efim_cond)
    assert "rank-deficient" in rep.note


# ---------------------------------------------------------------------------
# Bandwidth thresholds
# ---------------------------------------------------------------------------


def test_bw_thresholds_canonical_values():
    sc = canonical_scenario()
    b_low, _ = bw_thresholds(sc)
    assert abs(b_low - 17.78e6) / 17.78e6 < 0.005
    _, b_high = bw_thresholds(with_antennas(sc, 12))
    assert abs(b_high - 207.9e6) / 207.9e6 < 0.005


def test_bw_thresholds_scale_with_room_size():
    sc = canonical_scenario()
    b_low, b_high = bw_thresholds(sc)
    # doubling every coordinate doubles all distances, so both thresholds halve
    scale = 2.0
    walls = tuple(
        dataclasses.replace(w, point=w.point * scale) for w in sc.walls
    )
    stripes = tuple(
        dataclasses.replace(s, phase_center=s.phase_center * scale) for s in sc.stripes
    )
    scatterers = tuple(
        dataclasses.replace(s, position=s.position * scale) for s in sc.scatterers
    )
    big = dataclasses.replace(
        sc,
        walls=walls,
        stripes=stripes,
        scatterers=scatterers,
        ue_position=sc.ue_position * scale,
    )
    b_low2, b_high2 = bw_thresholds(big)
    assert b_low2 == pytest.approx(b_low / 2.0, rel=1e-12)
    assert b_high2 == pytest.approx(b_high / 2.0, rel=1e-12)


def test_bw_thresholds_need_reflections():
    sc = canonical_scenario()
    bare = dataclasses.replace(
        sc,
        walls=(),
        stripes=tuple(dataclasses.replace(s, mounted_wall=None) for s in sc.stripes),
        scatterers=(),
    )
    with pytest.raises(DegenerateGeometry):
        bw_thresholds(bare)


# ---------------------------------------------------------------------------
# Heatmap
# ---------------------------------------------------------------------------


def test_peb_heatmap_grid():
    sc = canonical_scenario()
    opts = FimOptions(sync_mode=SyncMode.CP, D=2)
    xs = [-0.5, 2.0, 3.4]
    ys = [2.4, 3.1]
    grid = peb_heatmap(sc, xs, ys, opts)
    assert grid.shape == (2, 3)
    assert np.all(np.isnan(grid[:, 0]))  # outside the room
    inside = grid[:, 1:]
    assert np.all(np.isfinite(inside)) and np.all(inside > 0)
    direct = compute_bounds(
        dataclasses.replace(sc, ue_position=np.array([2.0, 3.1, sc.ue_position[2]])),
        opts,
    ).peb
    assert grid[1, 1] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("make", [canonical_scenario, estimation_scenario])
def test_global_fim_enumerates_paths_once_per_stripe(make, monkeypatch):
    # local_channel_params and jacobian share one enumeration per stripe; the
    # result has the bits of each enumerating the paths itself
    sc = make()
    opts = FimOptions(sync_mode=SyncMode.NCP, D=sc.D)
    layout = make_layout(sc, opts)
    disturbances = make_disturbances(sc)
    J = np.zeros((layout.dim, layout.dim))
    for n, stripe in enumerate(sc.stripes):
        Jl = local_fim(stripe, sc.waveform, local_channel_params(sc, n), disturbances[n])
        T = jacobian(sc, n, opts, layout)
        J += T @ Jl @ T.T
    calls = []
    enumerate_paths = fim.enumerate_paths
    monkeypatch.setattr(fim, "enumerate_paths",
                        lambda scenario, n: calls.append(n) or enumerate_paths(scenario, n))
    got, _ = global_fim(sc, opts)
    assert calls == list(range(len(sc.stripes)))
    np.testing.assert_array_equal(got, 0.5 * (J + J.T))
