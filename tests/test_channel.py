"""Channel module tests: Fresnel physics, path amplitudes, DMC covariance."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stripeloc.channel import (
    EPSILON_0,
    MU_0,
    DisturbanceCov,
    DmcParams,
    Material,
    Scatterer,
    disturbance_covariance,
    dmc_frequency_covariance,
    dmc_psd,
    fresnel_coefficients,
    path_phase,
    reflection_coefficient,
    rp_amplitude,
    sp_amplitude,
)
from stripeloc.geometry import PathGeometry, PathKind, Stripe, Wall, enumerate_paths
from stripeloc.scenario import canonical_scenario
from stripeloc.signal import BOLTZMANN, Waveform

import oracles
from conftest import toy_scene

FC = 3.5e9
LAM = oracles.LAMBDA_35GHZ


def los_path(scene):
    return enumerate_paths(scene, 0)[0]


def single_stripe_scene(ue, stripe_pos=(0.0, 0.0, 0.0), e_rs=(0, 0, 1), e_ue=(0, 0, 1)):
    wf = Waveform(fc=FC, K=4, delta_f=1e6)
    return SimpleNamespace(
        ue_position=np.asarray(ue, float),
        walls=(),
        stripes=(Stripe(stripe_pos, 0.0, 4, wf.wavelength / 2.1),),
        scatterers=(),
        materials={},
        waveform=wf,
        transmit_power=1.0,
        e_rs=np.asarray(e_rs, float),
        e_ue=np.asarray(e_ue, float),
        clock_offset=0.0,
        phase_offsets=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# Fresnel coefficients
# ---------------------------------------------------------------------------


def test_fresnel_impedance_match():
    vacuum = Material(1.0, 1.0, 0.0)
    for theta in (0.0, 0.3, 1.2):
        g_par, g_perp = fresnel_coefficients(theta, vacuum, FC)
        assert abs(g_par) < 1e-12 and abs(g_perp) < 1e-12


def test_fresnel_normal_incidence_lossless():
    g_par, g_perp = fresnel_coefficients(0.0, Material(6.0, 1.0, 0.0), FC)
    assert_allclose(g_par, oracles.GAMMA_NORMAL_EPS6, rtol=1e-12)
    assert_allclose(g_perp, oracles.GAMMA_NORMAL_EPS6, rtol=1e-12)
    assert abs(g_par.imag) < 1e-12


def test_fresnel_against_textbook_oracle():
    mat = Material(6.0, 1.0, 1e-2)
    got = fresnel_coefficients(math.radians(45.0), mat, FC)
    want = oracles.fresnel_textbook(math.radians(45.0), 6.0, 1.0, 1e-2, FC)
    assert_allclose(got[0], want[0], rtol=1e-10)
    assert_allclose(got[1], want[1], rtol=1e-10)


def test_fresnel_passive_magnitude():
    rng = np.random.default_rng(31)
    for _ in range(100):
        mat = Material(
            eps_r=rng.uniform(1.0, 10.0),
            mu_r=rng.uniform(0.5, 2.0),
            sigma=rng.uniform(0.0, 1.0),
        )
        theta = rng.uniform(0.0, math.pi / 2 * 0.999)
        g_par, g_perp = fresnel_coefficients(theta, mat, FC)
        assert abs(g_par) <= 1.0 + 1e-12
        assert abs(g_perp) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Path amplitudes
# ---------------------------------------------------------------------------


def test_los_amplitude_friis_1m():
    scene = single_stripe_scene(ue=(1.0, 0.0, 0.0))
    amp = rp_amplitude(scene, scene.stripes[0], los_path(scene))
    assert_allclose(amp, oracles.FRIIS_1M_35GHZ, rtol=1e-9)


def test_los_amplitude_polarization_null():
    scene = single_stripe_scene(ue=(1.0, 0.0, 0.0), e_rs=(0, 0, 1), e_ue=(1, 0, 0))
    assert rp_amplitude(scene, scene.stripes[0], los_path(scene)) == 0.0


def test_rp_amplitude_inverse_total_distance():
    scene = toy_scene(n_stripes=1, n_sp=0)
    stripe = scene.stripes[0]
    rp = enumerate_paths(scene, 0)[1]
    amp1 = rp_amplitude(scene, stripe, rp)
    # scale the whole scene about the stripe phase center: same angles,
    # doubled distances
    pc = stripe.phase_center
    scene2 = toy_scene(n_stripes=1, n_sp=0)
    scene2.ue_position = pc + 2.0 * (scene.ue_position - pc)
    scene2.walls = tuple(
        Wall(pc + 2.0 * (w.point - pc), w.normal, w.material_id) for w in scene.walls
    )
    rp2 = enumerate_paths(scene2, 0)[1]
    amp2 = rp_amplitude(scene2, stripe, rp2)
    assert_allclose(amp2, amp1 / 2.0, rtol=1e-12)


def test_rp_amplitude_vertical_pol_uses_perpendicular_gamma():
    # z-polarized links against vertical walls see the perpendicular Fresnel
    # coefficient only
    scene = toy_scene(n_stripes=1, n_sp=0)
    stripe = scene.stripes[0]
    rp = enumerate_paths(scene, 0)[1]
    wall = scene.walls[rp.index]
    u = (rp.via_point - stripe.phase_center)
    u = u / np.linalg.norm(u)
    theta_i = math.acos(abs(float(u @ wall.normal)))
    _, g_perp = fresnel_coefficients(theta_i, scene.materials["plaster"], FC)
    assert_allclose(reflection_coefficient(scene, stripe, rp), g_perp, rtol=1e-12)


def test_sp_amplitude_unit_reduction():
    scene = single_stripe_scene(ue=(0.0, 1.0, 0.0))
    scene.scatterers = (Scatterer((1.0 / math.sqrt(2), 1.0 / math.sqrt(2), 0.0), 1.0 / math.sqrt(math.pi)),)
    # place SP at unit distance from both stripe (origin) and UE
    sp = PathGeometry(
        PathKind.SP, 0, scene.scatterers[0].position, 0.0, 1e-9, 1e-9
    )
    d_us = np.linalg.norm(scene.ue_position - scene.scatterers[0].position)
    d_s = np.linalg.norm(scene.scatterers[0].position)
    amp = sp_amplitude(scene, scene.stripes[0], sp)
    assert_allclose(amp, LAM / (4 * math.pi) ** 1.5 / (d_us * d_s), rtol=1e-12)


def test_sp_amplitude_distance_product():
    scene = toy_scene(n_stripes=1, n_sp=1)
    stripe = scene.stripes[0]
    sp = enumerate_paths(scene, 0)[-1]
    amp1 = sp_amplitude(scene, stripe, sp)
    pc = stripe.phase_center
    scene2 = toy_scene(n_stripes=1, n_sp=1)
    # scale UE and SP by 2 about the stripe: every pairwise distance doubles
    scene2.ue_position = pc + 2.0 * (scene.ue_position - pc)
    sc = scene.scatterers[0]
    far = pc + 2.0 * (sc.position - pc)
    scene2.scatterers = (Scatterer(far, sc.radius),)
    sp2 = PathGeometry(PathKind.SP, 0, far, sp.aoa, 2 * sp.delay, 2 * sp.pseudo_delay)
    assert_allclose(sp_amplitude(scene2, stripe, sp2), amp1 / 4.0, rtol=1e-12)


def test_sp_optical_region_canonical():
    # Scatterer.rcs is the optical-region cross section pi r^2, which holds
    # for spheres large against the wavelength: 2 pi r / lambda > 10
    scatterers = canonical_scenario().scatterers
    assert scatterers
    for s in scatterers:
        assert 2 * math.pi * s.radius / LAM > 10


def test_amplitudes_translation_invariant():
    scene = toy_scene(n_stripes=2, n_sp=1)
    shift = np.array([12.0, -7.0, 3.0])
    scene2 = toy_scene(n_stripes=2, n_sp=1)
    scene2.ue_position = scene.ue_position + shift
    scene2.walls = tuple(
        Wall(w.point + shift, w.normal, w.material_id) for w in scene.walls
    )
    scene2.stripes = tuple(
        Stripe(st.phase_center + shift, st.azimuth, st.num_antennas, st.spacing, st.mounted_wall)
        for st in scene.stripes
    )
    scene2.scatterers = tuple(
        Scatterer(sc.position + shift, sc.radius) for sc in scene.scatterers
    )
    for n in range(2):
        paths1 = enumerate_paths(scene, n)
        paths2 = enumerate_paths(scene2, n)
        for q1, q2 in zip(paths1, paths2):
            if q1.kind is PathKind.SP:
                a1 = sp_amplitude(scene, scene.stripes[n], q1)
                a2 = sp_amplitude(scene2, scene2.stripes[n], q2)
            else:
                a1 = rp_amplitude(scene, scene.stripes[n], q1)
                a2 = rp_amplitude(scene2, scene2.stripes[n], q2)
            assert_allclose(a2, a1, rtol=1e-12)


# ---------------------------------------------------------------------------
# path_phase
# ---------------------------------------------------------------------------


def make_path(delay):
    return PathGeometry(PathKind.LOS, -1, np.zeros(3), 0.0, delay, delay)


def test_path_phase_full_cycle():
    assert abs(path_phase(make_path(1.0 / FC), FC)) < 1e-9


def test_path_phase_zero_delay():
    assert np.isclose(path_phase(make_path(0.0), FC, delta_phi_n=0.3), 0.3)


def test_path_phase_offset_45deg():
    assert np.isclose(path_phase(make_path(0.0), FC, delta_phi_n=math.pi / 4), math.pi / 4)


def test_path_phase_wraps():
    ph = path_phase(make_path(1.23e-9), FC, delta_phi_n=100.0)
    assert -math.pi < ph <= math.pi


# ---------------------------------------------------------------------------
# DMC covariance
# ---------------------------------------------------------------------------


def test_dmc_covariance_zero_power():
    R_f = dmc_frequency_covariance(DmcParams(0.0, 0.5, 0.1), 6)
    assert np.all(R_f == 0)


def test_dmc_covariance_dc_sample():
    dmc = DmcParams(2.0, 0.5, 0.0)
    R_f = dmc_frequency_covariance(dmc, 5)
    assert_allclose(R_f[0, 0], 2.0 / 0.5)


def test_dmc_covariance_matches_bruteforce():
    dmc = DmcParams(1.7, 0.4, 0.23)
    K = 9
    R_f = dmc_frequency_covariance(dmc, K)
    want = oracles.toeplitz_by_loop(oracles.dmc_psd_samples(1.7, 0.4, 0.23, K))
    assert_allclose(R_f, want, atol=1e-14)
    assert_allclose(R_f, R_f.conj().T, atol=1e-14)


@pytest.mark.parametrize("K", [1, 2, 20, 257])
@pytest.mark.parametrize("dmc", [DmcParams(1.7, 0.4, 0.23), DmcParams(0.3, 2.5, 0.0)])
def test_dmc_covariance_equals_scipy_toeplitz_bytes(dmc, K):
    # the numpy builder only copies values, so it must give scipy's bits
    from scipy.linalg import toeplitz

    kappa = dmc_psd(dmc, np.arange(K) / float(K))
    R_f = dmc_frequency_covariance(dmc, K)
    want = toeplitz(kappa, kappa.conj())
    assert R_f.dtype == want.dtype and R_f.shape == want.shape == (K, K)
    assert R_f.tobytes() == want.tobytes()


def test_dmc_psd_onset_phase():
    dmc = DmcParams(1.0, 0.3, 0.7)
    f = np.array([0.25])
    want = np.exp(-2j * math.pi * 0.25 * 0.7) / (0.3 + 2j * math.pi * 0.25)
    assert_allclose(dmc_psd(dmc, f)[0], want[()] if np.ndim(want) else want)


# ---------------------------------------------------------------------------
# Disturbance covariance and whitening
# ---------------------------------------------------------------------------


def test_whitening_white_noise_case():
    K, M, sigma2 = 5, 3, 2.5
    s = np.full(K, 1 / math.sqrt(K), dtype=complex)
    cov = disturbance_covariance(DmcParams(0.0, 0.5, 0.1), sigma2, s, K, M)
    y = np.arange(M * K, dtype=complex) + 1j
    assert_allclose(cov.whiten_vec(y), math.sqrt(K / sigma2) * y, rtol=1e-12)


def test_dense_covariance_matches_oracle():
    K, M = 3, 2
    s = np.full(K, 1 / math.sqrt(K), dtype=complex)
    dmc = DmcParams(0.8, 0.35, 0.12)
    sigma2 = 1.3
    cov = disturbance_covariance(dmc, sigma2, s, K, M)
    want = oracles.dense_disturbance_cov(0.8, 0.35, 0.12, sigma2, s, M)
    assert_allclose(cov.dense(), want, atol=1e-14)


def test_structured_whitener_equals_dense_inv_sqrt():
    K, M = 3, 2
    rng = np.random.default_rng(7)
    s = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    s = s / np.linalg.norm(s)
    dmc = DmcParams(1.1, 0.5, 0.3)
    sigma2 = 0.7
    cov = disturbance_covariance(dmc, sigma2, s, K, M)
    W_dense = oracles.hermitian_inv_sqrt(cov.dense())
    assert_allclose(np.kron(cov.q_isqrt, np.eye(M)), W_dense, atol=1e-10)
    y = rng.standard_normal(M * K) + 1j * rng.standard_normal(M * K)
    assert_allclose(cov.whiten_vec(y), W_dense @ y, atol=1e-10)
    Y = y.reshape(K, M).T
    assert_allclose(cov.whiten_freq(Y).T.reshape(-1), W_dense @ y, atol=1e-10)
    # a (..., K) row stack is whitened row by row, bit for bit the 1-D calls
    stack = rng.standard_normal((2, 5, K)) + 1j * rng.standard_normal((2, 5, K))
    rows = cov.whiten_freq(stack)
    assert rows.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-1]):
        np.testing.assert_array_equal(rows[idx], cov.whiten_freq(stack[idx]))


def test_whitener_inverts_covariance():
    K, M = 6, 4
    rng = np.random.default_rng(19)
    s = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    s = s / np.linalg.norm(s)
    cov = disturbance_covariance(DmcParams(2.0, 0.4, 0.6), 0.9, s, K, M)
    W = np.kron(cov.q_isqrt, np.eye(M))
    R = cov.dense()
    assert np.linalg.norm(W @ R @ W.conj().T - np.eye(M * K)) / (M * K) < 1e-8
    assert np.linalg.norm(W.conj().T @ W @ R - np.eye(M * K)) / (M * K) < 1e-8


def test_color_noise_layout():
    K, M = 4, 3
    s = np.full(K, 0.5, dtype=complex)
    cov = disturbance_covariance(DmcParams(1.0, 0.5, 0.1), 1.0, s, K, M)
    Z = np.ones((M, K), dtype=complex)
    W = cov.color_noise(Z)
    # columns mix across subcarriers only; rows (antennas) stay independent
    assert W.shape == (M, K)
    assert_allclose(W[0], W[1])


def test_validation_errors():
    with pytest.raises(ValueError):
        Material(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        Scatterer((0, 0, 0), -0.1)
    with pytest.raises(ValueError):
        DmcParams(-1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        disturbance_covariance(DmcParams(0.0, 0.5, 0.1), 1.0, np.ones(4), 4, 2)


def test_physical_constants_equal_scipy_constants_bit_for_bit():
    # the package writes out the constants it once imported from
    # scipy.constants, so that importing it does not load that module; each
    # must be that module's float, bit for bit, or every bound would move
    import scipy.constants

    for ours, theirs in [(EPSILON_0, scipy.constants.epsilon_0), (MU_0, scipy.constants.mu_0),
                         (BOLTZMANN, scipy.constants.Boltzmann)]:
        assert float(ours).hex() == float(theirs).hex()
