"""Estimator tests: closed-form amplitude elimination, the staged position /
clock / phase pipeline, null-space scatterer mapping, and the joint refiner.

Expected values come from independent least-squares oracles on explicitly
materialized columns (tests/oracles.py) and from noise-free exact-recovery
arguments; search behavior is pinned by noise-free convergence and
determinism checks.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import truth_params

from stripeloc import estimators
from stripeloc.channel import DmcParams, Material, Scatterer
from stripeloc.errors import (
    KernelEmpty,
    RankDeficient,
    SearchFailure,
    SemanticError,
    ZeroAggregate,
)
from stripeloc.estimators import (
    EstimateReport,
    NstConfig,
    SearchConfig,
    WantedParams,
    coarse_clock_offset,
    cp_cost_slice,
    estimate_phase_offset,
    jml_amplitudes,
    jml_cost,
    jml_refine,
    nst_kernels,
    nst_map_scatterers,
    rml_ncp_amplitudes_and_cost,
    rml_position_search,
    run_pipeline,
)
from stripeloc.fim import FimOptions, SyncMode, compute_bounds, efim, global_fim
from stripeloc.geometry import (
    SPEED_OF_LIGHT,
    PathKind,
    Stripe,
    aoa,
    enumerate_paths,
    mirror_ue,
    path_delay,
    reflecting_walls,
    wrap_angle,
)
from stripeloc.harness import multipath_case
from stripeloc.scenario import (
    Scenario,
    canonical_scenario,
    estimation_scenario,
    rect_room_walls,
    wall_midpoint_stripes,
    with_sdnr,
)
from stripeloc.signal import (
    ObservationSet,
    Waveform,
    path_gains,
    synthesize,
    whitened_response_parts,
)


def _test_scene(walls, stripes, ue, wf, clock_offset, phase_offsets, scatterers=()) -> Scenario:
    """Scenario with the fields the estimator test scenes share: plaster
    material, DMC at the noise level, vertical polarizations, CP sync, D = 2."""
    return Scenario(
        walls=walls,
        stripes=stripes,
        materials={"plaster": Material(6.0, 1.0, 1e-2)},
        ue_position=np.array(ue, dtype=float),
        clock_offset=clock_offset,
        phase_offsets=phase_offsets,
        scatterers=scatterers,
        waveform=wf,
        dmc=DmcParams(alpha1=wf.sigma2, beta_d=0.5, tau_d=0.1),
        transmit_power=1e-8,
        e_rs=np.array([0.0, 0.0, 1.0]),
        e_ue=np.array([0.0, 0.0, 1.0]),
        sync_mode=SyncMode.CP,
        D=2,
    )


def small_scene(
    n_stripes: int = 2,
    n_walls: int = 4,
    n_sp: int = 0,
    M: int = 4,
    K: int = 8,
    delta_f: float = 1e6,
    clock_offset: float = 5e-9,
    phase_offset: float = 0.4,
    ue=(3.1, 2.3, 1.1),
) -> Scenario:
    """Compact full scenario for point-contract tests (no searches)."""
    wf = Waveform(fc=3.5e9, K=K, delta_f=delta_f)
    stripes = wall_midpoint_stripes(6.0, 5.0, 2.75, M, wf.wavelength / 2.1)[:n_stripes]
    if n_walls < 4:
        # keep mounted_wall references valid for the stripes that remain
        stripes = tuple(
            dataclasses.replace(s, mounted_wall=None if s.mounted_wall >= n_walls else s.mounted_wall)
            for s in stripes
        )
    scatterers = tuple(
        Scatterer((2.0 + 0.8 * j, 3.4, 0.9 + 0.4 * j), 0.19) for j in range(n_sp)
    )
    return _test_scene(
        rect_room_walls(6.0, 5.0, "plaster")[:n_walls],
        stripes,
        ue,
        wf,
        clock_offset,
        np.full(len(stripes), phase_offset),
        scatterers,
    )


def whitened_vec(obs, n) -> np.ndarray:
    """Whitened observation as an antenna-fastest vector (independent of the
    estimator internals)."""
    return obs.whitened(n).T.ravel()


def oracle_columns(scenario, obs, n, kinds=("los", "rp", "sp")) -> list:
    """Explicit whitened path columns at ground truth via the signal layer."""
    cols = []
    for path in enumerate_paths(scenario, n):
        if path.kind.value not in kinds:
            continue
        u, a = whitened_response_parts(
            path.aoa, path.pseudo_delay, scenario.waveform,
            scenario.stripes[n], obs.disturbances[n],
        )
        cols.append(np.kron(u, a))
    return cols


def oracle_basis(eta, obs, n) -> np.ndarray:
    """Stripe ``n``'s explicit model basis at the wanted parameters ``eta``:
    the LoS column rotated to its pinned carrier phase (a real coefficient),
    then a (c', jc') pair per reflected and scattered path, in
    ``enumerate_paths`` order, each from the scalar signal layer.  The
    reflections are taken from mirror images, which stay defined with
    ``eta`` on a wall plane, where a reflection point does not."""
    sc = obs.scenario
    stripe = sc.stripes[n]
    p, p_rs = eta.position, stripe.phase_center
    images = [mirror_ue(p, sc.walls[w]) for w in reflecting_walls(sc.walls, stripe)]
    legs = [(p, p)] + [(q, q) for q in images] + [(p, s) for s in eta.sp_positions]
    cols = []
    for start, via in legs:
        u, a = whitened_response_parts(aoa(via, stripe),
                                       path_delay(start, via, p_rs) + eta.clock_offset,
                                       sc.waveform, stripe, obs.disturbances[n])
        cols.append(np.kron(u, a))
    pin = np.exp(1j * (eta.phase_offset - 2.0 * math.pi * sc.waveform.fc * path_delay(p, p, p_rs)))
    return np.column_stack([pin * cols[0]] + [c * f for c in cols[1:] for f in (1.0, 1j)])


def stacked_real(B) -> np.ndarray:
    return np.vstack([B.real, B.imag])


@pytest.fixture(scope="module")
def est_scene():
    return estimation_scenario()


@pytest.fixture(scope="module")
def clean_obs(est_scene):
    return synthesize(est_scene, rng_seed=11, noise_scale=0.0)


@pytest.fixture(scope="module")
def noisy_obs(est_scene):
    return synthesize(est_scene, rng_seed=(5, 1))


# ---------------------------------------------------------------------------
# parameter packing
# ---------------------------------------------------------------------------


def test_rows_layout():
    # a refine row is (p[:D], dtau) or (p[:D], dtau, dphi, scatterer
    # coordinates); in 2-D mode the position sits at the known UE height
    sps = np.array([[2.0, 3.0, 1.0], [4.0, 1.0, 0.5]])
    for D, p in [(2, [3.1, 2.2, 1.3]), (3, [3.1, 2.2, 0.7])]:
        ws = SimpleNamespace(D=D, known_height=1.3 if D == 2 else None)
        short = np.array([p[:D] + [1.7e-8], p[:D] + [2.5e-8]])
        positions, clocks, scatterers, phases = estimators._rows(ws, short)
        assert positions.tolist() == [p, p] and clocks.tolist() == [1.7e-8, 2.5e-8]
        assert scatterers is None and phases is None
        for J in (2, 0):
            full = np.column_stack([short, [0.9, -0.4], np.tile(sps[:J].ravel(), (2, 1))])
            positions, clocks, scatterers, phases = estimators._rows(ws, full)
            assert positions.tolist() == [p, p] and clocks.tolist() == [1.7e-8, 2.5e-8]
            assert phases.tolist() == [0.9, -0.4]
            assert scatterers.shape == (2, J, 3)
            assert scatterers.tolist() == [sps[:J].tolist()] * 2


def test_estimate_report_wraps_phase():
    r = EstimateReport(
        stage="RML",
        ue_position=np.zeros(3),
        clock_offset=0.0,
        phase_offset=2.0 * math.pi + 0.3,
        sp_positions=np.empty((0, 3)),
        amplitudes=None,
        cost=1.0,
    )
    assert abs(r.phase_offset - 0.3) < 1e-12


# ---------------------------------------------------------------------------
# batched path geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scene, n_sp", [(estimation_scenario, 1), (canonical_scenario, 2)])
def test_path_geometry_matches_enumerate_paths(scene, n_sp):
    # the estimators' batched angles and delays duplicate geometry.aoa and
    # path_delay, and differ from them only in the last bit: numpy's arctan2
    # against math.atan2, mirror-image against two-leg reflection delays
    sc = scene()
    ws = estimators._Workspace(synthesize(sc, rng_seed=0))
    (x0, x1), (y0, y1) = estimators._axis_aligned_box(ws)
    positions = np.random.default_rng(7).uniform([x0 + 0.3, y0 + 0.3, 0.3],
                                                 [x1 - 0.3, y1 - 0.3, 2.2], (16, 3))
    sps = np.array([s.position for s in sc.scatterers])
    assert len(sps) == n_sp
    per_candidate = np.broadcast_to(sps, (len(positions),) + sps.shape)
    (group,) = ws.groups
    images = estimators._mirror_images(ws, positions)
    thetas, delays = estimators._path_geometry(group, positions, images, sps)
    batched = estimators._path_geometry(group, positions, images, per_candidate)
    np.testing.assert_array_equal(batched[0], thetas)
    np.testing.assert_array_equal(batched[1], delays)
    assert group.index.tolist() == list(range(len(sc.stripes)))
    for n in range(len(sc.stripes)):
        for p, theta, delay in zip(positions, thetas[n], delays[n]):
            paths = enumerate_paths(dataclasses.replace(sc, ue_position=p, clock_offset=0.0), n)
            assert {path.kind for path in paths} == set(PathKind)
            np.testing.assert_allclose(theta, [path.aoa for path in paths], rtol=0, atol=1e-12)
            np.testing.assert_allclose(delay, [path.pseudo_delay for path in paths],
                                       rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# closed-form amplitudes
# ---------------------------------------------------------------------------


def test_jml_amplitudes_noise_free_recovery(est_scene, clean_obs):
    eta = truth_params(est_scene)
    gains = jml_amplitudes(eta, clean_obs)
    for n in range(len(est_scene.stripes)):
        true_g = path_gains(est_scene, n)
        rel = np.abs(gains[n] - true_g) / np.abs(true_g)
        assert rel.max() < 1e-8
    assert jml_cost(eta, clean_obs) < 1e-12


def test_jml_amplitudes_match_stacked_real_oracle(est_scene, noisy_obs):
    # at truth and off it, where the pinned LoS phase disagrees with the data
    # and the pinned gains differ from the free-gain fit's
    truth = truth_params(est_scene)
    off_truth = WantedParams(
        position=truth.position + np.array([0.004, -0.003, 0.0]),
        clock_offset=truth.clock_offset + 1e-10,
        phase_offset=truth.phase_offset + 0.3,
        sp_positions=truth.sp_positions + 0.05,
    )
    fc = est_scene.waveform.fc
    for eta in (truth, off_truth):
        gains = jml_amplitudes(eta, noisy_obs)
        for n, stripe in enumerate(est_scene.stripes):
            B = oracle_basis(eta, noisy_obs, n)
            x = oracles.stacked_real_lstsq(list(B.T), whitened_vec(noisy_obs, n))
            g_oracle = np.empty((B.shape[1] + 1) // 2, dtype=complex)
            tau_los = np.linalg.norm(eta.position - stripe.phase_center) / SPEED_OF_LIGHT
            phase = -2.0 * math.pi * fc * tau_los + eta.phase_offset
            g_oracle[0] = x[0] * np.exp(1j * phase)
            g_oracle[1:] = x[1::2] + 1j * x[2::2]
            np.testing.assert_allclose(gains[n], g_oracle, rtol=1e-8, atol=1e-12)


def test_jml_cost_is_least_squares_infimum(est_scene, noisy_obs):
    # eliminating amplitudes must give exactly the nested least-squares
    # minimum: the LS solution attains the eliminated cost and no perturbed
    # coefficient vector does better
    eta = truth_params(est_scene)
    cost = jml_cost(eta, noisy_obs)
    rng = np.random.default_rng(7)
    total_ls = 0.0
    stripe_min = []
    for n in range(len(est_scene.stripes)):
        stacked = stacked_real(oracle_basis(eta, noisy_obs, n))
        y = whitened_vec(noisy_obs, n)
        y_st = np.concatenate([y.real, y.imag])
        x_ls, *_ = np.linalg.lstsq(stacked, y_st, rcond=None)
        m = float(np.sum((y_st - stacked @ x_ls) ** 2))
        total_ls += m
        stripe_min.append((stacked, y_st, x_ls, m))
    assert abs(total_ls - cost) <= 1e-9 * (1.0 + cost)
    for stacked, y_st, x_ls, m in stripe_min:
        for _ in range(10):
            x = x_ls + rng.standard_normal(x_ls.shape) * 0.1 * (np.abs(x_ls).max() + 1.0)
            assert float(np.sum((y_st - stacked @ x) ** 2)) >= m - 1e-9


def _eliminated_residual(eta, obs) -> np.ndarray:
    """Amplitude-eliminated residual of all stripes, from the explicit basis
    and a generic stacked-real least-squares solve."""
    parts = []
    for n in range(len(obs)):
        B = oracle_basis(eta, obs, n)
        y = whitened_vec(obs, n)
        x = oracles.stacked_real_lstsq(list(B.T), y)
        parts.append(np.concatenate([y.real, y.imag]) - stacked_real(B) @ x)
    return np.concatenate(parts)


@pytest.mark.parametrize("case", ["L--", "LRS"])
def test_eliminated_residual_information_equals_efim(est_scene, case):
    # at noise-free truth, 2 J^T J of the amplitude-eliminated residual is the
    # Schur complement of the Fisher information over the path amplitudes and
    # phases: the residual JML refines and the scalar model behind the bounds
    # must give the same equivalent FIM, in refine-row order
    sc, _ = multipath_case(est_scene, case)
    obs = synthesize(sc, rng_seed=11, noise_scale=0.0)
    ws = estimators._Workspace(obs)
    eta = truth_params(sc)
    x0 = np.concatenate([eta.position[: sc.D], [eta.clock_offset, eta.phase_offset],
                         eta.sp_positions.ravel()])
    h = np.concatenate([np.full(sc.D, 1e-6), [1e-13, 1e-5], np.full(3 * len(sc.scatterers), 1e-6)])
    r_plus, r_minus = (estimators._point_fit(ws, *estimators._rows(ws, x0 + sign * np.diag(h)))[0]
                       for sign in (1.0, -1.0))
    jac = ((r_plus - r_minus) / (2.0 * h[:, None])).T
    info = 2.0 * jac.T @ jac
    E = efim(*global_fim(sc, FimOptions(sync_mode=SyncMode.CP, D=sc.D)))
    d = np.sqrt(np.diag(E))
    assert np.max(np.abs(info - E) / np.outer(d, d)) < 1e-6

    def peb(F):
        return math.sqrt(np.trace(np.linalg.inv(F)[: sc.D, : sc.D]))

    assert abs(peb(info) - peb(E)) <= 1e-6 * peb(E)


def test_jml_perturbed_position_costs_more(est_scene):
    # noise-free: truth is the global optimum, so any 10 cm shift raises the
    # cost (checked over several directions and seeds)
    eta = truth_params(est_scene)
    rng = np.random.default_rng(3)
    for trial in range(20):
        obs = synthesize(est_scene, rng_seed=(900, trial), noise_scale=0.0)
        base = jml_cost(eta, obs)
        d = rng.standard_normal(2)
        d = 0.1 * d / np.linalg.norm(d)
        shifted = WantedParams(
            position=eta.position + np.array([d[0], d[1], 0.0]),
            clock_offset=eta.clock_offset,
            phase_offset=eta.phase_offset,
            sp_positions=eta.sp_positions,
        )
        assert jml_cost(shifted, obs) > base


def test_jml_rank_deficient_on_duplicate_scatterers(est_scene, noisy_obs):
    sp = est_scene.scatterers[0].position
    eta = WantedParams(
        position=est_scene.ue_position,
        clock_offset=est_scene.clock_offset,
        phase_offset=est_scene.phase_offsets[0],
        sp_positions=np.array([sp, sp]),
    )
    with pytest.raises(RankDeficient):
        jml_amplitudes(eta, noisy_obs)
    with pytest.raises(RankDeficient):
        jml_cost(eta, noisy_obs)


# ---------------------------------------------------------------------------
# noncoherent relaxation
# ---------------------------------------------------------------------------


def test_rml_ncp_noise_free_exact():
    sc = small_scene(n_stripes=3, n_sp=0)
    obs = synthesize(sc, rng_seed=2, noise_scale=0.0)
    gains, cost = rml_ncp_amplitudes_and_cost(sc.ue_position, sc.clock_offset, obs)
    assert cost < 1e-12
    for n in range(3):
        true_g = path_gains(sc, n)
        rel = np.abs(gains[n] - true_g) / np.abs(true_g)
        assert rel.max() < 1e-8


def test_rml_ncp_matches_complex_lstsq_oracle(est_scene, noisy_obs):
    gains, cost = rml_ncp_amplitudes_and_cost(
        est_scene.ue_position, est_scene.clock_offset, noisy_obs
    )
    total = 0.0
    for n in range(len(est_scene.stripes)):
        cols = oracle_columns(est_scene, noisy_obs, n, kinds=("los", "rp"))
        y = whitened_vec(noisy_obs, n)
        g_oracle = oracles.complex_lstsq(cols, y)
        np.testing.assert_allclose(gains[n], g_oracle, rtol=1e-8, atol=1e-12)
        total += float(np.sum(np.abs(y - np.column_stack(cols) @ g_oracle) ** 2))
    assert abs(total - cost) <= 1e-9 * (1.0 + cost)


def test_cp_cost_equals_ncp_cost_single_stripe():
    # with one stripe the re-estimated phase offset exactly absorbs the
    # line-of-sight phase pin, so the coherent relaxation changes nothing
    sc = small_scene(n_stripes=1, n_sp=0, clock_offset=8e-9)
    obs = synthesize(sc, rng_seed=14)
    p = sc.ue_position + np.array([0.03, -0.02, 0.0])
    dt = sc.clock_offset + 2e-9
    _, ncp_cost = rml_ncp_amplitudes_and_cost(p, dt, obs)
    cp = float(cp_cost_slice(obs, p.reshape(1, 3), dt)[0])
    assert abs(cp - ncp_cost) <= 1e-9 * (1.0 + ncp_cost)


def test_cp_cost_slice_matches_pinned_stacked_real_oracle(est_scene, noisy_obs):
    # off truth, with several stripes, the re-estimated phase offset cannot
    # absorb every stripe's LoS phase pin, so the coherent cost rises above
    # the noncoherent one; it must equal the explicit phase-pinned least
    # squares at the phase offset estimate_phase_offset gives
    lam = est_scene.waveform.wavelength
    dt = est_scene.clock_offset
    direction = np.array([0.8, 0.6, 0.0])
    pts = est_scene.ue_position + np.outer(np.arange(1, 6) * lam / 8.0, direction)
    costs = cp_cost_slice(noisy_obs, pts, dt)
    for p, cost in zip(pts, costs):
        eta = WantedParams(p, dt, estimate_phase_offset(p, dt, noisy_obs), np.empty((0, 3)))
        r = _eliminated_residual(eta, noisy_obs)
        assert abs(cost - r @ r) <= 1e-9 * (r @ r)
        _, ncp_cost = rml_ncp_amplitudes_and_cost(p, dt, noisy_obs)
        assert cost > ncp_cost * (1.0 + 1e-6)


def test_positions_of_the_wrong_shape_are_refused(est_scene, noisy_obs):
    # a reshape to (-1, 3) read a (6, 2) slice as 4 scrambled points, and a
    # 6-vector handed to a point function as its first 3 coordinates
    p, dt = est_scene.ue_position, est_scene.clock_offset
    xy = p[:2] + np.linspace(-0.1, 0.1, 6)[:, None]
    with pytest.raises(ValueError, match=r"shape \(6, 2\)"):
        cp_cost_slice(noisy_obs, xy, dt)
    assert cp_cost_slice(noisy_obs, np.stack([p, p]), dt).shape == (2,)
    point_functions = [lambda q: rml_ncp_amplitudes_and_cost(q, dt, noisy_obs),
                       lambda q: estimate_phase_offset(q, dt, noisy_obs),
                       lambda q: coarse_clock_offset(q, noisy_obs)]
    for call in point_functions:
        for bad in (np.concatenate([p, p]), np.stack([p, p]), p[:2]):
            with pytest.raises(ValueError, match=rf"shape \({bad.shape[0]},"):
                call(bad)
        call(p[None])


def test_cp_cost_slice_on_wall_plane_matches_stacked_real_oracle():
    # on the plane of a wall that carries no stripe, every stripe's LoS column
    # equals that wall's reflection, so the pinned LoS phase constrains
    # nothing: any phase offset gives the same explicit least-squares
    # residual, and the coherent cost must equal it
    sc = small_scene(n_stripes=2)
    assert {s.mounted_wall for s in sc.stripes} == {0, 1}
    obs = synthesize(sc, rng_seed=14)
    wall = sc.walls[2]
    p = sc.ue_position - ((sc.ue_position - wall.point) @ wall.normal) * wall.normal
    cost = float(cp_cost_slice(obs, p.reshape(1, 3), sc.clock_offset)[0])
    r = _eliminated_residual(WantedParams(p, sc.clock_offset, 0.0, np.empty((0, 3))), obs)
    assert abs(cost - r @ r) <= 1e-9 * (r @ r)


@pytest.mark.parametrize("offset, rtol", [(1e-3, 2e-9), (1e-4, 1e-7)])
def test_cp_cost_slice_near_wall_plane_matches_stacked_real_oracle(est_scene, offset, rtol):
    # just off a wall plane the LoS column and that wall's reflection are
    # nearly collinear, so the pinned correction Im{.}^2 / v_0 is a ratio of
    # large, nearly cancelling terms; it must still match the dense solve
    obs = synthesize(est_scene, rng_seed=(4, 0, 0))
    wall = est_scene.walls[0]
    ue = est_scene.ue_position
    p = ue - ((ue - wall.point) @ wall.normal - offset) * wall.normal
    dt = est_scene.clock_offset
    cost = float(cp_cost_slice(obs, p.reshape(1, 3), dt)[0])
    eta = WantedParams(p, dt, estimate_phase_offset(p, dt, obs), np.empty((0, 3)))
    r = _eliminated_residual(eta, obs)
    assert abs(cost - r @ r) <= rtol * (r @ r)


# ---------------------------------------------------------------------------
# batched Hermitian solves
# ---------------------------------------------------------------------------


def _gram_batch(seed: int, B: int = 8, L: int = 4):
    """Complex response matrices (B, 30, L) with their Grams and cross terms."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((B, 30, L)) + 1j * rng.standard_normal((B, 30, L))
    y = rng.standard_normal((B, 30)) + 1j * rng.standard_normal((B, 30))
    return X, y


def _gram(X, y):
    Xh = np.swapaxes(X.conj(), -1, -2)
    return Xh @ X, (Xh @ y[..., None])[..., 0]


def _assert_solves_close(got, want, members, rtol=1e-12):
    for g, w in zip(got[:2], want[:2]):
        for b in members:
            assert np.linalg.norm(g[b] - w[b]) <= rtol * np.linalg.norm(w[b])
    np.testing.assert_array_equal(got[2][members], want[2][members])


def test_solve_psd_cholesky_matches_eigh():
    H, q = _gram(*_gram_batch(3))
    _assert_solves_close(estimators._solve_psd(H, q), estimators._eigh_solve(H, q), range(8))
    assert (estimators._solve_psd(H, q)[2] == 4).all()


def test_solve_psd_falls_back_to_eigh_per_member(monkeypatch):
    # member 5 has two equal columns; in member 6 one column is another plus
    # 1e-6 of an independent one, which factors but cannot be certified; only
    # those two go through eigh and reproduce its truncation bit for bit
    X, y = _gram_batch(4)
    X[5, :, 2] = X[5, :, 1]
    X[6, :, 3] = X[6, :, 0] + 1e-6 * y[0]
    H, q = _gram(X, y)
    eigh_solve = estimators._eigh_solve
    seen = []

    def counted(H, rhs):
        seen.append(len(H))
        return eigh_solve(H, rhs)

    monkeypatch.setattr(estimators, "_eigh_solve", counted)
    got = estimators._solve_psd(H, q)
    assert seen == [2]
    for b in (5, 6):
        want = eigh_solve(H[b : b + 1], q[b : b + 1])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[b], w[0])
        assert got[2][b] == 3
    _assert_solves_close(got, eigh_solve(H, q), [0, 1, 2, 3, 4, 7])


# ---------------------------------------------------------------------------
# phase offset and coarse clock
# ---------------------------------------------------------------------------


def test_estimate_phase_offset_noise_free_exact():
    for dphi in (math.pi / 4.0, -2.9, 3.0):
        sc = small_scene(n_stripes=3, n_sp=0, phase_offset=dphi)
        obs = synthesize(sc, rng_seed=4, noise_scale=0.0)
        est = estimate_phase_offset(sc.ue_position, sc.clock_offset, obs)
        err = abs(wrap_angle(est - wrap_angle(dphi)))
        assert err < 1e-9


def test_estimate_phase_offset_zero_aggregate():
    sc = small_scene(n_stripes=2, n_sp=0)
    obs = synthesize(sc, rng_seed=4)
    zeroed = ObservationSet(
        sc,
        [dataclasses.replace(o, Y=np.zeros_like(o.Y)) for o in obs.observations],
        obs.disturbances,
    )
    with pytest.raises(ZeroAggregate):
        estimate_phase_offset(sc.ue_position, sc.clock_offset, zeroed)


def single_los_scene(dist: float, clock_offset: float) -> Scenario:
    """One stripe, no walls or scatterers: a lone line-of-sight path."""
    wf = Waveform(fc=3.5e9, K=8, delta_f=1e6)
    stripe = Stripe((0.0, 0.0, 1.0), 0.0, 4, wf.wavelength / 2.1, mounted_wall=None)
    return _test_scene((), (stripe,), [0.0, dist, 1.0], wf, clock_offset, np.zeros(1))


def test_coarse_clock_offset_on_grid_exact():
    # distance and offset both multiples of the delay bin: the peak lands
    # exactly on the right bin
    wf = Waveform(fc=3.5e9, K=8, delta_f=1e6)
    bin_w = 1.0 / (16 * wf.K * wf.delta_f)
    sc = single_los_scene(dist=SPEED_OF_LIGHT * bin_w, clock_offset=7 * bin_w)
    obs = synthesize(sc, rng_seed=1, noise_scale=0.0)
    est = coarse_clock_offset(sc.ue_position, obs)
    assert abs(est - sc.clock_offset) < 1e-15


def test_coarse_clock_offset_half_bin_bound():
    # a lone path pins the peak to the nearest bin, so the error is pure
    # quantization; multipath scenes may legitimately exceed this
    rng = np.random.default_rng(21)
    wf = Waveform(fc=3.5e9, K=8, delta_f=1e6)
    n_fft = 16 * wf.K
    bin_w = 1.0 / (n_fft * wf.delta_f)
    period = 1.0 / wf.delta_f
    for trial in range(8):
        dt = float(rng.uniform(0.0, 40e-9))
        sc = single_los_scene(dist=float(rng.uniform(1.0, 4.0)), clock_offset=dt)
        obs = synthesize(sc, rng_seed=trial, noise_scale=0.0)
        est = coarse_clock_offset(sc.ue_position, obs)
        err = abs((est - dt + period / 2.0) % period - period / 2.0)
        assert err <= bin_w / 2.0 + 1e-15


# ---------------------------------------------------------------------------
# cost-surface structure
# ---------------------------------------------------------------------------


def test_ncp_cost_is_smooth_near_truth(est_scene, noisy_obs):
    # the noncoherent cost must not carry carrier-phase ripple: across a
    # half-wavelength neighborhood (where the coherent cost completes a full
    # lobe) the slice is unimodal, its envelope varying smoothly
    lam = est_scene.waveform.wavelength
    offsets = np.linspace(-lam / 2.0, lam / 2.0, 41)
    costs = []
    for dx in offsets:
        p = est_scene.ue_position + np.array([dx, 0.0, 0.0])
        _, c = rml_ncp_amplitudes_and_cost(p, est_scene.clock_offset, noisy_obs)
        costs.append(c)
    costs = np.asarray(costs)
    slopes = np.sign(np.diff(costs))
    slopes = slopes[slopes != 0.0]
    sign_changes = int(np.count_nonzero(slopes[1:] != slopes[:-1]))
    assert sign_changes <= 1
    # and the single minimum sits near the truth (noncoherent accuracy is
    # bandwidth-limited, so "near" is loose: a quarter wavelength)
    i_min = int(np.argmin(costs))
    assert abs(offsets[i_min]) <= lam / 4.0


def test_cp_cost_oscillates_at_wavelength_scale(est_scene, clean_obs):
    # the coherent cost along a line through the truth ripples at the carrier
    # wavelength (0.0857 m at 3.5 GHz): the first autocorrelation peak of the
    # demeaned cost sequence sits within 15% of it
    lam = est_scene.waveform.wavelength
    step = 0.001
    xs = np.arange(-0.30, 0.30, step)
    pts = est_scene.ue_position[None, :] + np.column_stack(
        [xs, np.zeros_like(xs), np.zeros_like(xs)]
    )
    costs = cp_cost_slice(clean_obs, pts, est_scene.clock_offset)
    c = costs - costs.mean()
    ac = np.correlate(c, c, mode="full")[len(c) - 1 :]
    # first local maximum at a lag beyond half a wavelength
    lo = int(0.5 * lam / step)
    peaks = np.flatnonzero(
        (ac[1:-1] > ac[:-2]) & (ac[1:-1] >= ac[2:])
    ) + 1
    peaks = peaks[peaks >= lo]
    assert peaks.size > 0
    assert abs(peaks[0] * step - lam) / lam < 0.15


# ---------------------------------------------------------------------------
# position search
# ---------------------------------------------------------------------------


def test_rml_position_search_noise_free_canonical():
    sc = canonical_scenario()
    obs = synthesize(sc, rng_seed=1, noise_scale=0.0)
    report = rml_position_search(obs)
    lam = sc.waveform.wavelength
    err = np.linalg.norm(report.ue_position - sc.ue_position)
    assert err < lam / 10.0
    assert report.stage == "RML"
    assert report.sp_positions.shape == (0, 3)
    assert np.isfinite(report.cost)


def test_rml_position_search_empty_grid(est_scene, clean_obs):
    cfg = SearchConfig(box=((0.0, 0.1), (0.0, 0.1)))
    with pytest.raises(SearchFailure):
        rml_position_search(clean_obs, cfg)


@pytest.mark.parametrize("D, box", [(3, ((1.9, 4.2), (1.7, 4.0))),
                                    (2, ((1.9, 4.2), (1.7, 4.0), (0.5, 1.5)))])
def test_search_box_needs_one_pair_per_axis(est_scene, D, box):
    # two pairs on a 3-D scene ended in a TypeError deep in the scan (the
    # grid sat at the known height, None in 3-D), and a third pair on a 2-D
    # scene was dropped unread
    obs = synthesize(dataclasses.replace(est_scene, D=D), rng_seed=0)
    message = rf"^search box has {len(box)} \(lo, hi\) pairs; D = {D} needs {D}$"
    with pytest.raises(ValueError, match=message):
        rml_position_search(obs, SearchConfig(box=box))


@pytest.mark.parametrize("config, field, value", [
    (SearchConfig, "step", 0.0), (SearchConfig, "step", -0.1), (NstConfig, "step", 0.0),
    (NstConfig, "step", -0.25), (SearchConfig, "fine_span_wavelengths", -1.0),
    (SearchConfig, "refine_maxiter", -1), (NstConfig, "refine_maxiter", -1),
    (SearchConfig, "n_starts", 0),
])
def test_search_configs_refuse_bad_settings(config, field, value):
    # a zero step ended in a ZeroDivisionError deep in the grid, a negative
    # one in an "empty search grid" failure, a negative span in an
    # IndexError, and no starts were silently raised to one
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        config(**{field: value})
    # the smallest values the search runs with stay valid
    assert SearchConfig(fine_span_wavelengths=0.0, refine_maxiter=0, n_starts=1)
    assert NstConfig(refine_maxiter=0)


@pytest.mark.parametrize("sdnr_db", [0.0, 20.0])
def test_coarse_pick_equals_full_lattice_argmin(est_scene, sdnr_db):
    # the coarse scan scores a decimated sub-lattice plus a full-resolution
    # polish around its best cell; its pick must be the best point of the
    # whole lattice, scored here point by point; the box is shrunk by the
    # 0.3 m wall margin to about (2.2, 3.9) x (2.0, 3.7)
    obs = synthesize(with_sdnr(est_scene, sdnr_db), rng_seed=(8, 1))
    cfg = SearchConfig(box=((1.9, 4.2), (1.7, 4.0)))
    ws = estimators._Workspace(obs)
    tie = estimators._clock_tie(obs)
    step = est_scene.waveform.wavelength / 4.0
    axes = estimators._box_axes(ws, step, cfg.box, None)
    assert estimators._decimation(ws, axes, step) > 1
    lattice = estimators._mesh(axes, ws.known_height)
    costs = estimators._ncp_cost(
        estimators._free_costs(ws, estimators._ncp_fits(ws, lattice, tie(lattice))))
    pick = estimators._coarse_pick(ws, tie, cfg)
    np.testing.assert_array_equal(pick[1], lattice[np.argmin(costs)])
    assert abs(pick[0] - costs.min()) <= 1e-12 * costs.min()


def test_scan_chunks_equal_one_unchunked_fit(est_scene, noisy_obs, monkeypatch):
    # _scan scores candidates in chunks of _CHUNK; over one and a half
    # chunks its per-point costs equal the noncoherent and the coherent cost
    # of a single unchunked fit
    ws = estimators._Workspace(noisy_obs)
    n = 3 * estimators._CHUNK // 2
    rng = np.random.default_rng(12)
    pts = est_scene.ue_position + rng.uniform(-0.4, 0.4, (n, 3)) * [1.0, 1.0, 0.0]
    dtaus = est_scene.clock_offset + rng.uniform(-2e-9, 2e-9, n)
    fits = estimators._ncp_fits(ws, pts, dtaus)
    free = estimators._free_costs(ws, fits)
    np.testing.assert_array_equal(estimators._scan(ws, pts, dtaus), estimators._ncp_cost(free))
    coherent = estimators._coherent_cost(ws, free, [f.gains[..., 0] for f in fits],
                                         [np.real(f.v[..., 0]) for f in fits],
                                         [f.tau_los for f in fits])
    np.testing.assert_array_equal(estimators._scan(ws, pts, dtaus, coherent=True), coherent)
    # the NST dip metric scores scatterer candidates in the same chunks; over
    # one and a half chunks its costs equal one unchunked call
    sps = est_scene.ue_position + rng.uniform(-1.5, 1.5, (n, 3))
    chunked = estimators._dip_costs(ws, est_scene.ue_position, est_scene.clock_offset, sps)
    monkeypatch.setattr(estimators, "_CHUNK", n)
    np.testing.assert_array_equal(
        chunked, estimators._dip_costs(ws, est_scene.ue_position, est_scene.clock_offset, sps))


def mixed_stripe_scene():
    """The estimation scene with stripes that differ: stripe 1 has 6
    antennas, stripe 2 is unmounted, 0.1 m into the room, so it sees all
    four walls (L = 6 paths against 5 with the scatterer)."""
    sc = estimation_scenario()
    stripes = list(sc.stripes)
    stripes[1] = dataclasses.replace(stripes[1], num_antennas=6)
    s2 = stripes[2]
    boresight = np.array([-math.sin(s2.azimuth), math.cos(s2.azimuth), 0.0])
    stripes[2] = dataclasses.replace(s2, mounted_wall=None,
                                     phase_center=s2.phase_center + 0.1 * boresight)
    return dataclasses.replace(sc, stripes=tuple(stripes))


def last_stripe_m6_scene():
    """The estimation scene with 6 antennas on its last stripe: a group of
    three stacked stripes, then a group of one."""
    sc = estimation_scenario()
    last = dataclasses.replace(sc.stripes[-1], num_antennas=6)
    return dataclasses.replace(sc, stripes=sc.stripes[:-1] + (last,))


def single_stripe(obs, n):
    """Stripe ``n`` of ``obs`` alone, as a one-stripe observation set."""
    sc = obs.scenario
    one = dataclasses.replace(sc, stripes=(sc.stripes[n],),
                              phase_offsets=sc.phase_offsets[n : n + 1])
    return ObservationSet(one, [obs.observations[n]], [obs.disturbances[n]])


# scenes and the sizes of their groups of stacked stripes
STRIPE_MIXES = {"estimation": (estimation_scenario, [4]), "mixed": (mixed_stripe_scene, [1] * 4),
                "last-m6": (last_stripe_m6_scene, [3, 1])}


@pytest.mark.parametrize("mix", STRIPE_MIXES)
def test_stacked_fit_rows_equal_single_stripe_fits(mix):
    # one model call fits a whole group of stacked stripes; each stripe's
    # rows of it must be that stripe's own fit, byte for byte, however the
    # stripes fall into groups
    scene, sizes = STRIPE_MIXES[mix]
    sc = scene()
    obs = synthesize(sc, rng_seed=(9, 2))
    ws = estimators._Workspace(obs)
    assert [len(g.index) for g in ws.groups] == sizes
    rng = np.random.default_rng(3)
    B = 5
    p = sc.ue_position + rng.uniform(-0.05, 0.05, (B, 3)) * [1.0, 1.0, 0.0]
    dt = sc.clock_offset + rng.uniform(-1e-10, 1e-10, B)
    sps = sc.scatterers[0].position + rng.uniform(-0.2, 0.2, (B, 1, 3))
    fits = estimators._ncp_fits(ws, p, dt, sps, exact=True)
    for n, (i, s) in enumerate(ws.slots):
        assert ws.groups[i].index[s] == n
        (alone,) = estimators._ncp_fits(estimators._Workspace(single_stripe(obs, n)), p, dt, sps,
                                        exact=True)
        for field in estimators._StripeFit._fields:
            assert getattr(fits[i], field)[s].tobytes() == getattr(alone, field)[0].tobytes(), field


def test_mixed_stripes_noise_free_pipeline_recovers_truth():
    # stripes of two antenna counts and two path counts, fitted as separate
    # stacked groups: noise-free, the pipeline ends JML at the truth
    sc = mixed_stripe_scene()
    obs = synthesize(sc, rng_seed=3, noise_scale=0.0)
    assert len(estimators._Workspace(obs).groups) == 4
    jml = run_pipeline(obs)[3]
    assert np.linalg.norm(jml.ue_position - sc.ue_position) <= 1e-9
    assert abs(jml.clock_offset - sc.clock_offset) * SPEED_OF_LIGHT <= 1e-9
    np.testing.assert_allclose(jml.sp_positions, [s.position for s in sc.scatterers],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("mix", STRIPE_MIXES)
def test_scans_do_not_depend_on_chunk_size(mix, monkeypatch):
    # every row of a scan chunk is computed on its own, so a chunk of one
    # candidate (7 rows over 4 stripes) scores each candidate with the bits
    # of the default chunk, coherent, noncoherent and NST alike; candidates
    # at the UE exercise the dip metric's unfactored fallback
    sc = STRIPE_MIXES[mix][0]()
    ws = estimators._Workspace(synthesize(sc, rng_seed=(9, 4)))
    rng = np.random.default_rng(6)
    pts = sc.ue_position + rng.uniform(-0.4, 0.4, (90, 3)) * [1.0, 1.0, 0.0]
    dtaus = sc.clock_offset + rng.uniform(-2e-9, 2e-9, len(pts))
    sps = np.vstack([sc.ue_position + rng.uniform(-1.5, 1.5, (90, 3)), sc.ue_position])

    def scores():
        coherent = estimators._scan(ws, pts, dtaus, coherent=True)
        ncp = estimators._scan(ws, pts, dtaus)
        dips = estimators._dip_costs(ws, sc.ue_position, sc.clock_offset, sps)
        return [a.tobytes() for a in (coherent, ncp, dips)]

    default = scores()
    monkeypatch.setattr(estimators, "_CHUNK", 7)
    assert scores() == default


def _nst_grid(ws):
    axes = estimators._box_axes(ws, NstConfig().step, None, estimators._NST_Z_RANGE)
    return estimators._mesh(axes, ws.known_height)


def _joint_fits(ws, p, dtau, cands):
    """The joint free-gain fits of LoS + RP + one candidate scatterer per
    point, unfactored."""
    return estimators._ncp_fits(ws, np.broadcast_to(p, cands.shape), np.full(len(cands), dtau),
                                cands[:, None, :])


def _joint_dip_costs(ws, p, dtau, cands):
    return estimators._ncp_cost(estimators._free_costs(ws, _joint_fits(ws, p, dtau, cands)))


@pytest.mark.parametrize("scene", [estimation_scenario, canonical_scenario],
                         ids=["estimation", "canonical"])
def test_dip_costs_equal_joint_fit_on_nst_grid(scene):
    # the Schur-complement scores of the factored LoS + RP fit equal the
    # joint free-gain fit's residual at every candidate of the NST grid to
    # 1e-12 relative.  Both are normal-equation solves, so where a candidate
    # column lies close to the LoS + RP span each carries rounding of about
    # eps * kappa, kappa = ||c||^2 / s the candidate's worst Schur ratio over
    # the stripes (up to about 2e6 on these grids; a QR solve of the dense
    # columns put the joint fit itself 1.4e-12 off there); beyond 1e-12 the
    # two may differ by that much, and no more
    sc = scene()
    obs = synthesize(sc, rng_seed=(3, 7))
    ws = estimators._Workspace(obs)
    p = sc.ue_position + [0.004, -0.003, 0.0]
    cands = _nst_grid(ws)
    assert len(cands) > estimators._CHUNK
    fits = _joint_fits(ws, p, sc.clock_offset, cands)
    want = estimators._ncp_cost(estimators._free_costs(ws, fits))
    kappa = np.max(np.concatenate([np.real(f.H[..., -1, -1] * np.linalg.inv(f.H)[..., -1, -1])
                                   for f in fits]), axis=0)
    got = estimators._dip_costs(ws, p, sc.clock_offset, cands)
    rtol = np.maximum(1e-12, 32.0 * np.finfo(float).eps * kappa)
    assert np.all(np.abs(got - want) <= rtol * want)


def _record_fallbacks(monkeypatch):
    """Candidates ``_dip_costs`` hands to the unfactored ``_ncp_fits``."""
    seen = []
    ncp_fits = estimators._ncp_fits

    def recording(ws, positions, dtaus, sp_positions=None, exact=False):
        seen.append(np.array(sp_positions[:, 0]))
        return ncp_fits(ws, positions, dtaus, sp_positions, exact)

    monkeypatch.setattr(estimators, "_ncp_fits", recording)
    return seen


def test_dip_costs_candidate_at_ue_falls_back(est_scene, noisy_obs, monkeypatch):
    # a scatterer candidate at the plugged-in position has the LoS column as
    # its own, so its joint Gram is singular; 0.1 um away every stripe's
    # Schur complement is positive but the joint Gram is not certified.  Those
    # two candidates alone are scored by the unfactored fit, bit for bit
    ws = estimators._Workspace(noisy_obs)
    p, dt = est_scene.ue_position, est_scene.clock_offset
    cands = np.vstack([_nst_grid(ws)[::97], p, p + [1e-7, 0.0, 0.0]])
    want = _joint_dip_costs(ws, p, dt, cands[-2:])
    seen = _record_fallbacks(monkeypatch)
    got = estimators._dip_costs(ws, p, dt, cands)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], cands[-2:])
    np.testing.assert_array_equal(got[-2:], want)
    assert np.all(got[:-2] < got[-2])


def test_dip_costs_ue_on_wall_plane_falls_back(monkeypatch):
    # on the plane of a wall that carries no stripe every stripe's LoS column
    # equals that wall's reflection, so the fixed Gram H0 is singular and
    # every candidate is scored by the unfactored fit, bit for bit
    sc = small_scene(n_stripes=2)
    assert {s.mounted_wall for s in sc.stripes} == {0, 1}
    obs = synthesize(sc, rng_seed=14)
    ws = estimators._Workspace(obs)
    wall = sc.walls[2]
    p = sc.ue_position - ((sc.ue_position - wall.point) @ wall.normal) * wall.normal
    cands = _nst_grid(ws)[::7]
    want = _joint_dip_costs(ws, p, sc.clock_offset, cands)
    seen = _record_fallbacks(monkeypatch)
    got = estimators._dip_costs(ws, p, sc.clock_offset, cands)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], cands)
    np.testing.assert_array_equal(got, want)


def test_rml_refine_scan_and_jml_costs_agree(noisy_obs):
    # the refined coherent cost, the JML cost without scatterers at the same
    # (position, clock, phase) and the scan's Gram-identity cost at the same
    # (position, clock) are one amplitude-eliminated model evaluated three ways
    cfg = SearchConfig(step=0.2, fine_span_wavelengths=0.3, refine_maxiter=20, n_starts=1)
    report = rml_position_search(noisy_obs, cfg)
    eta = WantedParams(
        position=report.ue_position,
        clock_offset=report.clock_offset,
        phase_offset=report.phase_offset,
        sp_positions=np.empty((0, 3)),
    )
    jml = jml_cost(eta, noisy_obs)
    scan = float(cp_cost_slice(noisy_obs, report.ue_position, report.clock_offset)[0])
    assert abs(jml - report.cost) <= 1e-9 * report.cost
    assert abs(scan - report.cost) <= 1e-9 * report.cost
    # the refinement starts from the best fine cell and never ends above it
    assert report.cost_trace[0] >= report.cost_trace[1]


def test_ncp_refine_covariance_equals_ncp_bounds(est_scene):
    # the noncoherent residual gives every LoS and reflected gain a free
    # complex amplitude, which is the NCP bound's model without scatterers:
    # at noise-free truth its Fisher covariance (2 J^T J)^-1, from the
    # refine's own Jacobian, gives the NCP PEB and CEB of the LR- case
    sc, _ = multipath_case(est_scene, "LR-")
    obs = synthesize(sc, rng_seed=11, noise_scale=0.0)
    ws = estimators._Workspace(obs)
    x0 = np.concatenate([sc.ue_position[: sc.D], [sc.clock_offset]])
    (jac,) = estimators._lm_refine(
        lambda X: estimators._point_fit(ws, *estimators._rows(ws, X), free=True)[0],
        x0[None], estimators._position_steps(ws), 600)[5]
    sigmas = estimators._fisher_sigmas(jac)
    b = compute_bounds(sc, FimOptions(sync_mode=SyncMode.NCP, D=sc.D))
    assert abs(math.sqrt(np.sum(sigmas[: sc.D] ** 2)) - b.peb) <= 1e-5 * b.peb
    assert abs(sigmas[sc.D] - b.ceb) <= 1e-5 * b.ceb


def test_fisher_sigmas_refuse_singular_information():
    assert estimators._fisher_sigmas(None) is None
    assert estimators._fisher_sigmas(np.array([[1.0, 0.0], [2.0, 0.0]])) is None
    assert estimators._fisher_sigmas(np.array([[1.0, np.nan], [0.0, 1.0]])) is None
    np.testing.assert_allclose(estimators._fisher_sigmas(np.diag([2.0, 0.5])),
                               [0.5, 2.0] / np.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize("trial", [4, 5, 21, 23])
def test_rml_position_search_resolves_biased_ncp_fit(est_scene, trial):
    # the noncoherent fit leaves the scatterer out, so its error is mostly
    # bias: on trials 4 and 5 the coherent optimum lies more than 3 sigma of
    # its covariance away, and a fine grid that narrow ends in a lobe about
    # 36 mm off.  On trials 21 and 23 a fine lattice re-centred on the
    # refined point ends in that lobe too, because the lobe's clock-tied
    # cost has a valley narrower than the fine step
    sc = with_sdnr(est_scene, 20.0)
    report = rml_position_search(synthesize(sc, rng_seed=(23, trial)))
    assert np.linalg.norm(report.ue_position - sc.ue_position) < 1e-3


@pytest.mark.parametrize("seed", [(1, 0), (23, 4)])
def test_fine_window_keeps_full_lattice_best_at_high_sdnr(est_scene, monkeypatch, seed):
    # sigma shrinks with the noise but the noncoherent fit's bias (about
    # lambda/6 in x here) does not: at 30 dB a 6-sigma window leaves out
    # the lattice's best coherent cell.  The windowed search must score
    # that cell and end no higher than the search over the whole lattice
    # (no usable covariance)
    obs = synthesize(with_sdnr(est_scene, 30.0), rng_seed=seed)
    windowed = rml_position_search(obs)
    monkeypatch.setattr(estimators, "_fisher_sigmas", lambda jac: None)
    full = rml_position_search(obs)
    assert windowed.cost_trace[0] == full.cost_trace[0]
    assert windowed.cost <= full.cost * (1.0 + 1e-9)
    assert np.linalg.norm(windowed.ue_position - est_scene.ue_position) < 1e-3


@pytest.mark.parametrize("n, k", [(40, 10), (161, 15), (25, 5), (40, 41), (1, 7)])
def test_cubic_upsampling_keeps_nodes_and_reproduces_quadratics(n, k):
    # node j sits at lattice index k (j - 1); at a node the weights pick its
    # value alone, and Keys' kernel is exact on quadratics
    W = estimators._cubic_upsampling(n, k)
    t = k * (np.arange(W.shape[1]) - 1.0)
    at_nodes = np.arange(0, n, k)
    np.testing.assert_array_equal(W[at_nodes], np.eye(W.shape[1])[at_nodes // k + 1])
    x = np.arange(n, dtype=float)
    for c in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -2.0, 0.7]):
        def quadratic(s):
            return c[0] + c[1] * s / n + c[2] * (s / n) ** 2
        assert np.max(np.abs(W @ quadratic(t) - quadratic(x))) <= 1e-12


def test_upsample_reproduces_quadratics_on_a_3d_lattice():
    # one weight matrix per axis, applied as matrix products, reproduces
    # products of quadratics on the lattice, in ``_mesh`` order, real and
    # complex alike
    ns, ks = (9, 12, 5), (4, 5, 2)
    mats = [estimators._cubic_upsampling(n, k) for n, k in zip(ns, ks)]
    nodes = estimators._mesh([k * (np.arange(W.shape[1]) - 1.0) for W, k in zip(mats, ks)], None)
    points = estimators._mesh([np.arange(n, dtype=float) for n in ns], None)

    def f(p):
        x, y, z = (p / 10.0).T
        return np.stack([1.0 + 0.2 * x - 0.5 * y * z + x * x * y, (0.3 - 1j) * x * z * z + 2j])

    grid = [W.shape[1] for W in mats]
    got = estimators._upsample(f(nodes).reshape(2, *grid), mats)
    assert np.max(np.abs(got - f(points))) <= 1e-12


def _spy_fine_pass(monkeypatch) -> list:
    """Arguments and result of every ``_fine_costs`` call."""
    calls = []
    fine_costs = estimators._fine_costs

    def spy(*args):
        calls.append((args, fine_costs(*args)))
        return calls[-1][1]

    monkeypatch.setattr(estimators, "_fine_costs", spy)
    return calls


@pytest.mark.parametrize("sdnr_db, draw", [(0.0, 0), (10.0, 1), (20.0, 2), (30.0, 3)])
def test_fine_pass_chooses_the_exact_scans_starts(est_scene, monkeypatch, sdnr_db, draw):
    # the fine pass upsamples the slow parts of the coherent cost from a
    # sub-lattice (the whole +-2 lambda lattice is the window at 0 dB); it
    # must choose the starts of the exact scan over the same window, and the
    # RML start cost must be that scan's bits
    obs = synthesize(with_sdnr(est_scene, sdnr_db), rng_seed=(6, draw))
    calls = _spy_fine_pass(monkeypatch)
    report = rml_position_search(obs)
    [((ws, tie, axes, height, step), (fine, upsampled))] = calls
    assert estimators._decimation(ws, axes, step, estimators._FINE_SAMPLES) > 1
    exact = estimators._scan(ws, fine, tie(fine), coherent=True)
    assert upsampled.tobytes() != exact.tobytes()
    lam, count = est_scene.waveform.wavelength, SearchConfig().n_starts
    starts = estimators._separated_minima(fine, exact, 0.5 * lam, count)
    assert estimators._separated_minima(fine, upsampled, 0.5 * lam, count) == starts
    assert report.cost_trace[0] == exact[starts[0]]


def test_fine_pass_fits_few_candidates_at_low_sdnr(est_scene, monkeypatch):
    # a count-based cost guard: at 0 dB the window is the whole +-2 lambda
    # lattice, 25,921 cells, which the exact scan fitted one by one; the
    # fine pass fits its sub-lattice only
    obs = synthesize(with_sdnr(est_scene, 0.0), rng_seed=(6, 0))
    ncp_fits, fine_costs = estimators._ncp_fits, estimators._fine_costs
    fitted, cells = [], []

    def counted(ws, positions, *args, **kwargs):
        fitted[-1] += len(positions)
        return ncp_fits(ws, positions, *args, **kwargs)

    def fine_pass(*args):
        fitted.append(0)
        monkeypatch.setattr(estimators, "_ncp_fits", counted)
        try:
            fine, costs = fine_costs(*args)
        finally:
            monkeypatch.setattr(estimators, "_ncp_fits", ncp_fits)
        cells.append(len(fine))
        return fine, costs

    monkeypatch.setattr(estimators, "_fine_costs", fine_pass)
    rml_position_search(obs)
    assert cells == [25921]
    assert 0 < fitted[0] < 1000


def test_fine_pass_scans_exactly_across_a_wall_plane(est_scene, monkeypatch):
    # a box around the x = 0 wall puts the fine lattice across its plane,
    # where the LoS column meets the reflection's and v_0 blows up: the pass
    # scans the window exactly, and every start's cost is the coherent cost
    # of ``cp_cost_slice`` there
    obs = synthesize(with_sdnr(est_scene, 20.0), rng_seed=(6, 0))
    calls = _spy_fine_pass(monkeypatch)
    report = rml_position_search(obs, SearchConfig(box=((-0.35, 0.35), (2.5, 3.5))))
    [((ws, tie, axes, height, step), (fine, costs))] = calls
    assert axes[0][0] < 0.0 < axes[0][-1] and estimators._crosses_wall(ws, fine)
    assert costs.tobytes() == estimators._scan(ws, fine, tie(fine), coherent=True).tobytes()
    starts = estimators._separated_minima(fine, costs, 0.5 * est_scene.waveform.wavelength, 3)
    for i in starts:
        np.testing.assert_array_equal(cp_cost_slice(obs, fine[i], tie(fine[i : i + 1])[0]),
                                      costs[i : i + 1])
    assert report.cost_trace[0] == costs[starts[0]]


def test_fine_pass_scans_exactly_when_a_node_fit_is_uncertified(est_scene, noisy_obs,
                                                                monkeypatch):
    # one node fit that ``_solve_psd`` cannot certify full-rank sends the
    # whole window to the exact scan
    ws = estimators._Workspace(noisy_obs)
    tie = estimators._clock_tie(noisy_obs)
    step = est_scene.waveform.wavelength / 40.0
    axes = [c + step * np.arange(-20, 20) for c in est_scene.ue_position[:2]]
    height = est_scene.ue_position[2]
    fine, upsampled = estimators._fine_costs(ws, tie, axes, height, step)
    exact = estimators._scan(ws, fine, tie(fine), coherent=True)
    assert upsampled.tobytes() != exact.tobytes()
    solve = estimators._solve_psd

    def one_uncertified(H, rhs):
        x, v, rank, certified = solve(H, rhs)
        certified = certified.copy()
        certified.flat[-1] = False
        return x, v, rank, certified

    monkeypatch.setattr(estimators, "_solve_psd", one_uncertified)
    assert estimators._fine_costs(ws, tie, axes, height, step)[1].tobytes() == exact.tobytes()


# ---------------------------------------------------------------------------
# null-space scatterer mapping
# ---------------------------------------------------------------------------


def test_nst_kernels_annihilate_los_rp(est_scene, noisy_obs):
    kernels = nst_kernels(noisy_obs, est_scene.ue_position, est_scene.clock_offset)
    for n, K_n in enumerate(kernels):
        MK = est_scene.stripes[n].num_antennas * est_scene.waveform.K
        cols = oracle_columns(est_scene, noisy_obs, n, kinds=("los", "rp"))
        assert K_n.shape == (MK, MK - len(cols))
        np.testing.assert_allclose(
            K_n.conj().T @ K_n, np.eye(MK - len(cols)), atol=1e-10
        )
        for c in cols:
            leak = np.linalg.norm(K_n.conj().T @ c) / np.linalg.norm(c)
            assert leak < 1e-10


def test_nst_kernels_match_scipy_null_space(est_scene, noisy_obs):
    # scipy's null_space is the reference: same dimension and, since a basis
    # is unique only up to a unitary, the same orthogonal projector
    from scipy.linalg import null_space

    kernels = nst_kernels(noisy_obs, est_scene.ue_position, est_scene.clock_offset)
    for n, K_n in enumerate(kernels):
        cols = oracle_columns(est_scene, noisy_obs, n, kinds=("los", "rp"))
        want = null_space(np.column_stack(cols).conj().T)
        assert K_n.shape == want.shape
        np.testing.assert_allclose(K_n @ K_n.conj().T, want @ want.conj().T, rtol=0, atol=1e-12)
    # a repeated column leaves one singular value at rounding level, which
    # the eps * max(M, N) rule must count as zero
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    A = np.column_stack([A, A[:, 1]])
    for B in (A, A.T):
        got, want = estimators._null_space(B), null_space(B)
        assert got.shape == want.shape == (B.shape[1], B.shape[1] - 3)
        np.testing.assert_allclose(got @ got.conj().T, want @ want.conj().T, rtol=0, atol=1e-12)


def test_nst_dip_is_local_minimum_of_null_space_residual(est_scene, noisy_obs):
    """The refined scatterer minimizes the explicit null-space residual
    sum_n ||K_n^H y||^2 - |c^H K_n K_n^H y|^2 / ||K_n^H c||^2 to within 1 cm
    per axis, with K_n from nst_kernels and c built by the signal layer."""
    p, dtau = est_scene.ue_position, est_scene.clock_offset
    kernels = nst_kernels(noisy_obs, p, dtau)
    kys = [K.conj().T @ whitened_vec(noisy_obs, n) for n, K in enumerate(kernels)]

    def residual(s):
        total = 0.0
        for n, (K, ky) in enumerate(zip(kernels, kys)):
            stripe = est_scene.stripes[n]
            u, a = whitened_response_parts(
                aoa(s, stripe), path_delay(p, s, stripe.phase_center) + dtau,
                est_scene.waveform, stripe, noisy_obs.disturbances[n],
            )
            kc = K.conj().T @ np.kron(u, a)
            total += np.vdot(ky, ky).real - abs(np.vdot(kc, ky)) ** 2 / np.vdot(kc, kc).real
        return total

    (sp,) = nst_map_scatterers(noisy_obs, p, dtau, est_scene.phase_offsets[0])
    r0 = residual(sp)
    rises = [residual(sp + d) - r0 for d in np.vstack([0.01 * np.eye(3), -0.01 * np.eye(3)])]
    assert min(rises) > 0.0, rises


def test_nst_kernel_empty_when_no_null_space():
    sc = small_scene(n_stripes=1, M=1, K=3, n_sp=1)
    obs = synthesize(sc, rng_seed=5)
    # one antenna, three subcarriers: MK = 3 does not exceed L = 4 paths
    with pytest.raises(KernelEmpty):
        nst_kernels(obs, sc.ue_position, sc.clock_offset)
    with pytest.raises(KernelEmpty):
        nst_map_scatterers(obs, sc.ue_position, sc.clock_offset, 0.0)


def test_nst_single_scatterer_noise_free(est_scene, clean_obs):
    sps = nst_map_scatterers(
        clean_obs,
        est_scene.ue_position,
        est_scene.clock_offset,
        est_scene.phase_offsets[0],
    )
    assert len(sps) == 1
    err = np.linalg.norm(sps[0] - est_scene.scatterers[0].position)
    assert err < 0.25  # one grid step


def test_nst_refuses_too_few_separated_dips():
    # a 10 m step leaves one grid candidate for canonical's two scatterers
    sc = canonical_scenario()
    obs = synthesize(sc, rng_seed=0)
    with pytest.raises(SearchFailure, match="^found only 1 separated dips for 2 scatterers$"):
        nst_map_scatterers(obs, sc.ue_position, sc.clock_offset, 0.0, NstConfig(step=10.0))


def test_nst_zero_scatterers_shortcut(est_scene):
    bare = dataclasses.replace(est_scene, scatterers=())
    obs = synthesize(bare, rng_seed=0, noise_scale=0.0)
    assert nst_map_scatterers(obs, bare.ue_position, bare.clock_offset, 0.0) == []


# ---------------------------------------------------------------------------
# joint refinement and pipeline
# ---------------------------------------------------------------------------


def test_jml_refine_fixed_point_at_truth(est_scene, clean_obs):
    eta = truth_params(est_scene)
    init = EstimateReport(
        stage="JML",
        ue_position=eta.position,
        clock_offset=eta.clock_offset,
        phase_offset=eta.phase_offset,
        sp_positions=eta.sp_positions,
        amplitudes=None,
        cost=np.inf,
    )
    out = jml_refine(init, clean_obs)
    assert out.cost < 1e-12
    # the refiner may accept float-noise-level "improvements" near the exact
    # minimum; anything beyond solver jitter would be a real regression
    np.testing.assert_allclose(out.ue_position, eta.position, atol=1e-4)
    assert abs(out.clock_offset - eta.clock_offset) * SPEED_OF_LIGHT < 1e-2


def test_jml_refine_never_raises_cost(est_scene, noisy_obs):
    report = rml_position_search(noisy_obs)
    sps = nst_map_scatterers(
        noisy_obs, report.ue_position, report.clock_offset, report.phase_offset
    )
    init = EstimateReport(
        stage="JML",
        ue_position=report.ue_position,
        clock_offset=report.clock_offset,
        phase_offset=report.phase_offset,
        sp_positions=np.array(sps),
        amplitudes=None,
        cost=np.inf,
    )
    f0 = jml_cost(WantedParams(init.ue_position, init.clock_offset, init.phase_offset,
                               init.sp_positions), noisy_obs)
    out = jml_refine(init, noisy_obs, maxiter=400)
    assert out.cost <= f0 + 1e-12 * (1.0 + f0)
    assert out.cost_trace[0] >= out.cost_trace[1]
    # the start cost in the trace is the objective at the initial point
    assert abs(out.cost_trace[0] - f0) <= 1e-12 * abs(f0)


def test_jml_refine_zero_steps_returns_start(est_scene, noisy_obs):
    eta = truth_params(est_scene)
    init = EstimateReport(
        stage="NST",
        ue_position=eta.position + np.array([0.004, -0.003, 0.0]),
        clock_offset=eta.clock_offset,
        phase_offset=eta.phase_offset,
        sp_positions=eta.sp_positions + 0.05,
        amplitudes=None,
        cost=np.inf,
    )
    out = jml_refine(init, noisy_obs, maxiter=0)
    f0 = jml_cost(WantedParams(init.ue_position, init.clock_offset, init.phase_offset,
                               init.sp_positions), noisy_obs)
    assert out.cost_trace[0] == out.cost_trace[1] == out.cost == f0
    # no solver step, and one model call: the start's
    assert out.cost_trace[2:] == (0, 1)
    assert np.array_equal(out.ue_position, init.ue_position)
    assert np.array_equal(out.sp_positions, init.sp_positions)
    assert (out.clock_offset, out.phase_offset) == (init.clock_offset, init.phase_offset)


def test_lm_refine_returns_start_when_residual_raises():
    calls = []

    def residual(X):
        calls.append(X.copy())
        if len(calls) > 2:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return np.column_stack([X[:, 0] - 1.0, 2.0 * X[:, 1]])

    X0 = np.array([[0.5, 0.5], [2.0, -1.0]])
    x, f, nit, nfev, f0, jacs = estimators._lm_refine(residual, X0, np.ones(2), 50)
    assert np.array_equal(x, X0)
    assert f.tolist() == f0.tolist() == [1.25, 5.0]
    assert jacs == [None, None]
    # the starts, their Jacobians in one call, then the first step, which
    # raises; that is after the starts, so both problems end at them
    assert [len(X) for X in calls] == [2, 4, 2]
    assert nit.tolist() == [0, 0]
    assert nfev == len(calls) == 3


def test_point_fit_batch_equals_single_calls(est_scene, noisy_obs):
    # a batched refine (its Jacobians, and its stacked problems) follows
    # each problem's own path only because each row of a batched fit is the
    # single-candidate fit, byte for byte
    ws = estimators._Workspace(noisy_obs)
    rng = np.random.default_rng(4)
    B = 7
    p = est_scene.ue_position + rng.uniform(-0.01, 0.01, (B, 3)) * [1.0, 1.0, 0.0]
    dt = est_scene.clock_offset + rng.uniform(-1e-10, 1e-10, B)
    dphi = rng.uniform(-math.pi, math.pi, B)
    sps = est_scene.scatterers[0].position + rng.uniform(-0.2, 0.2, (B, 1, 3))
    cases = [
        dict(free=True), dict(free=True, strict=True), dict(), dict(dphi=dphi),
        dict(sp_positions=sps, dphi=dphi), dict(sp_positions=sps, free=True),
        dict(sp_positions=sps[0]),
    ]
    for kw in cases:
        batched = estimators._point_fit(ws, p, dt, **kw)
        for i in range(B):
            row = dict(kw)
            if "dphi" in kw:
                row["dphi"] = dphi[i]
            if kw.get("sp_positions") is sps:
                row["sp_positions"] = sps[i]
            single = estimators._point_fit(ws, p[i], dt[i], **row)
            assert batched[0][i].tobytes() == single[0][0].tobytes(), kw
            assert batched[1][i].tobytes() == single[1][0].tobytes(), kw
            assert batched[3][i].tobytes() == single[3][0].tobytes(), kw
            for g, h in zip(batched[2], single[2]):
                assert g[i].tobytes() == h[0].tobytes(), kw


def test_lm_refine_stack_equals_single_problems(est_scene, noisy_obs):
    # every problem of a batched refine follows the path it follows alone,
    # byte for byte: three RML starts and two NST dips
    ws = estimators._Workspace(noisy_obs)
    D = ws.D
    p, dt = est_scene.ue_position, est_scene.clock_offset

    def rml(X):
        return estimators._point_fit(ws, *estimators._rows(ws, X))[0]

    def dip(X):
        return estimators._point_fit(ws, np.broadcast_to(p, X.shape), np.full(len(X), dt),
                                     X[:, None, :], free=True)[0]

    rml_starts = np.column_stack([p[:D] + [[0.004, -0.003], [-0.01, 0.006], [0.02, 0.0]],
                                  dt + np.array([1e-11, -2e-11, 0.0])])
    dips = est_scene.scatterers[0].position + np.array([[0.1, -0.05, 0.08], [-0.6, 0.4, 0.3]])
    for residual, X0, steps in [(rml, rml_starts, estimators._position_steps(ws)),
                                (dip, dips, np.full(3, 0.125))]:
        x, f, nit, _, f0, jacs = estimators._lm_refine(residual, X0, steps, 200)
        assert np.all(f < f0) and np.all(nit > 2)
        for b in range(len(X0)):
            (x1,), (f1,), (nit1,), _, _, (jac1,) = estimators._lm_refine(
                residual, X0[b : b + 1], steps, 200)
            assert x[b].tobytes() == x1.tobytes()
            assert f[b].tobytes() == f1.tobytes()
            assert nit[b] == nit1
            assert jacs[b].tobytes() == jac1.tobytes()


def test_jml_refine_counts_one_call_per_jacobian(est_scene, noisy_obs):
    eta = truth_params(est_scene)
    init = EstimateReport("NST", eta.position + np.array([0.004, -0.003, 0.0]),
                          eta.clock_offset, eta.phase_offset, eta.sp_positions + 0.05,
                          None, np.inf)
    start, final, nit, nfev = jml_refine(init, noisy_obs, maxiter=400).cost_trace
    assert final < start
    # each solver step calls the model once and each accepted step's
    # Jacobian once more; the start and its Jacobian take one call each
    assert 0 < nfev <= 2 * nit + 2


_FRESH_JML = """
import sys
import numpy as np
import stripeloc
from stripeloc import estimators, scenario, signal
sc = scenario.with_sdnr(stripeloc.estimation_scenario(), 20.0)
obs = signal.synthesize(sc, rng_seed=(43, 4))
jml = estimators.run_pipeline(obs)[3]
estimators.nst_kernels(obs, jml.ue_position, jml.clock_offset)
fields = (jml.ue_position, jml.sp_positions, jml.clock_offset, jml.phase_offset, jml.cost)
print(b"".join(np.float64(v).tobytes() if np.isscalar(v) else v.tobytes()
               for v in fields).hex(), jml.cost_trace)
print(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
"""


def test_pipeline_is_reproducible_in_fresh_processes():
    # draw (43, 4) ended JML at one of two costs from process to process
    # while a compiled solver read memory it had not written; the estimators
    # must not load any part of scipy
    src = str(Path(estimators.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    outs = [subprocess.run([sys.executable, "-c", _FRESH_JML], env=env, capture_output=True,
                           text=True, timeout=300, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1] == "False"


@pytest.mark.parametrize("stage", ["position", "jml", "pipeline"])
def test_estimators_refuse_ncp_sync(est_scene, stage):
    # the estimators fit one phase offset shared by all stripes; under NCP
    # sync they must refuse rather than silently fit the wrong model
    sc = dataclasses.replace(est_scene, sync_mode=SyncMode.NCP)
    obs = synthesize(sc, rng_seed=(5, 2))
    eta = truth_params(sc)
    init = EstimateReport("NST", eta.position, eta.clock_offset, eta.phase_offset,
                          eta.sp_positions, None, np.inf)
    call = {
        "position": lambda: rml_position_search(obs),
        "jml": lambda: jml_refine(init, obs, maxiter=5),
        "pipeline": lambda: run_pipeline(obs),
    }[stage]
    with pytest.raises(SemanticError, match="one phase offset shared by all stripes"):
        call()


def test_run_pipeline_stage_contract(est_scene):
    obs = synthesize(est_scene, rng_seed=(77, 0))
    reports = run_pipeline(obs)
    assert [r.stage for r in reports] == ["RML-NCP", "RML", "NST", "JML"]
    for r in reports:
        assert -math.pi < r.phase_offset <= math.pi
        assert np.all(np.isfinite(r.ue_position))
    assert reports[0].sp_positions.shape == (0, 3)
    assert reports[2].sp_positions.shape == (1, 3)
    assert reports[3].sp_positions.shape == (1, 3)
    # at 20 dB the final position estimate lands within centimeters
    err = np.linalg.norm(reports[3].ue_position - est_scene.ue_position)
    assert err < 0.05


def test_run_pipeline_deterministic(est_scene):
    obs = synthesize(est_scene, rng_seed=(77, 1))
    first = run_pipeline(obs)
    second = run_pipeline(obs)
    for a, b in zip(first, second):
        assert np.array_equal(a.ue_position, b.ue_position)
        assert np.array_equal(a.sp_positions, b.sp_positions)
        assert a.clock_offset == b.clock_offset
        assert a.phase_offset == b.phase_offset
        assert a.cost == b.cost


@pytest.fixture(scope="module")
def pipeline_runs(est_scene):
    return [(obs, run_pipeline(obs)) for obs in
            (synthesize(est_scene, rng_seed=(1, draw)) for draw in range(3))]


def test_report_costs_are_costs_at_their_parameters(pipeline_runs):
    # a report's cost is its stage's model cost at the reported parameters;
    # NST's is JML's start cost, the cost at the NST estimate
    for obs, (ncp, rml, nst, jml) in pipeline_runs:
        at = lambda r: jml_cost(WantedParams(r.ue_position, r.clock_offset, r.phase_offset,
                                             r.sp_positions), obs)
        assert nst.cost == at(nst)
        ncp_cost = rml_ncp_amplitudes_and_cost(ncp.ue_position, ncp.clock_offset, obs)[1]
        for report, cost in [(ncp, ncp_cost), (rml, at(rml)), (jml, at(jml))]:
            assert abs(report.cost - cost) <= 1e-12 * cost, report.stage


def test_refined_stages_report_one_gain_vector_per_stripe(est_scene, pipeline_runs):
    # RML-NCP, RML and JML report each stripe's path gains, LoS first; the
    # position stages model no scatterers, and NST fits no gains
    for _, (ncp, rml, nst, jml) in pipeline_runs:
        assert nst.amplitudes is None
        for report in (ncp, rml, jml):
            assert len(report.amplitudes) == len(est_scene.stripes)
            for n, gains in enumerate(report.amplitudes):
                paths = [q for q in enumerate_paths(est_scene, n)
                         if report is jml or q.kind is not PathKind.SP]
                assert gains.shape == (len(paths),), report.stage
