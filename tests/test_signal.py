"""Signal module tests: steering, responses, synthesis, SDNR."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stripeloc import estimation_scenario, signal
from stripeloc.channel import disturbance_covariance
from stripeloc.geometry import enumerate_paths
from stripeloc.signal import (
    Waveform,
    d_steering_frequency,
    d_steering_spatial,
    dump_observations,
    make_disturbances,
    noise_free_matrix,
    path_gains,
    pt_for_sdnr,
    sdnr_db,
    steering_frequency,
    steering_spatial,
    synthesize,
    whitened_response,
    whitened_response_parts,
)

import oracles
from conftest import toy_scene


# ---------------------------------------------------------------------------
# Waveform
# ---------------------------------------------------------------------------


def test_waveform_defaults():
    wf = Waveform(fc=3.5e9, K=20, delta_f=500e3)
    assert_allclose(wf.pilots, np.full(20, 1 / math.sqrt(20)))
    assert np.isclose(wf.bandwidth, 10e6)
    assert np.isclose(wf.sigma2, 1.380649e-23 * 290.0 * 10e6)
    assert np.isclose(wf.wavelength, oracles.LAMBDA_35GHZ)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(fc=3.5e9, K=0, delta_f=1e6)


# ---------------------------------------------------------------------------
# Steering vectors
# ---------------------------------------------------------------------------


def test_steering_spatial_basics():
    lam = 0.0857
    assert_allclose(steering_spatial(0.0, 5, lam / 2, lam), np.ones(5))
    a1 = steering_spatial(0.7, 5, lam / 2, lam)
    a2 = steering_spatial(math.pi - 0.7, 5, lam / 2, lam)
    assert_allclose(a1, a2, atol=1e-14)
    assert_allclose(np.abs(a1), np.ones(5))
    assert_allclose(steering_spatial(math.pi / 2, 2, lam / 2, lam), [1.0, -1.0], atol=1e-15)
    # a batch of angles gains a trailing M axis, each row bit for bit the scalar call
    thetas = np.random.default_rng(3).uniform(-math.pi, math.pi, (7, 3))
    batch = steering_spatial(thetas, 5, lam / 2, lam)
    assert batch.shape == (7, 3, 5)
    want = [[steering_spatial(float(t), 5, lam / 2, lam) for t in row] for row in thetas]
    np.testing.assert_array_equal(batch, want)


def test_steering_frequency_basics():
    assert_allclose(steering_frequency(0.0, 6, 1e6), np.ones(6))
    assert_allclose(steering_frequency(1e-6, 6, 1e6), np.ones(6), atol=1e-12)
    b1 = steering_frequency(2.3e-9, 6, 1e6)
    b2 = steering_frequency(1.1e-9, 6, 1e6)
    assert_allclose(b1 * b2, steering_frequency(3.4e-9, 6, 1e6), atol=1e-14)
    taus = np.random.default_rng(4).uniform(0.0, 2e-6, (7, 3))
    batch = steering_frequency(taus, 6, 1e6)
    assert batch.shape == (7, 3, 6)
    want = [[steering_frequency(float(t), 6, 1e6) for t in row] for row in taus]
    np.testing.assert_array_equal(batch, want)


def test_steering_derivatives_match_fd():
    lam, d, M, K, df = 0.0857, 0.04, 6, 8, 250e3
    h = 1e-7
    da = (steering_spatial(0.4 + h, M, d, lam) - steering_spatial(0.4 - h, M, d, lam)) / (2 * h)
    assert_allclose(d_steering_spatial(0.4, M, d, lam), da, atol=1e-6)
    ht = 1e-12
    db = (steering_frequency(3e-9 + ht, K, df) - steering_frequency(3e-9 - ht, K, df)) / (2 * ht)
    assert_allclose(d_steering_frequency(3e-9, K, df), db, rtol=1e-4)
    # batched angles and delays give per-element derivatives bit for bit
    rng = np.random.default_rng(5)
    thetas = rng.uniform(-1.5, 1.5, (4, 3))
    taus = rng.uniform(0.0, 80e-9, (4, 3))
    da_b = d_steering_spatial(thetas, M, d, lam)
    db_b = d_steering_frequency(taus, K, df)
    assert da_b.shape == (4, 3, M) and db_b.shape == (4, 3, K)
    for i, j in np.ndindex(thetas.shape):
        th, ta = float(thetas[i, j]), float(taus[i, j])
        np.testing.assert_array_equal(da_b[i, j], d_steering_spatial(th, M, d, lam))
        np.testing.assert_array_equal(db_b[i, j], d_steering_frequency(ta, K, df))


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


def white_noise_response(scene):
    """Map (theta, tau) -> the unwhitened response of the scene's first
    stripe: with the DMC off the whitener is sqrt(K / sigma^2) I."""
    scene.dmc = type(scene.dmc)(0.0, scene.dmc.beta_d, scene.dmc.tau_d)
    dist = make_disturbances(scene)[0]
    wf = scene.waveform
    scale = math.sqrt(wf.sigma2 / wf.K)
    return lambda theta, tau: scale * whitened_response(theta, tau, wf, scene.stripes[0], dist)


def test_response_uniform_case():
    response = white_noise_response(toy_scene(n_stripes=1, M=3, K=4))
    assert_allclose(response(0.0, 0.0), np.full(12, 1 / 2.0), rtol=1e-10)  # 1/sqrt(K), K=4


def test_response_norm_and_oracle():
    scene = toy_scene(n_stripes=1, M=5, K=7)
    wf = scene.waveform
    stripe = scene.stripes[0]
    response = white_noise_response(scene)
    rng = np.random.default_rng(2)
    for _ in range(10):
        theta = rng.uniform(-1.2, 1.2)
        tau = rng.uniform(0, 60e-9)
        c = response(theta, tau)
        assert np.isclose(np.vdot(c, c).real, stripe.num_antennas)
        want = oracles.response_by_loop(
            theta, tau, wf.pilots, stripe.num_antennas, wf.K, stripe.spacing,
            wf.wavelength, wf.delta_f,
        )
        assert_allclose(c, want, rtol=1e-10, atol=1e-13)


def test_whitened_response_parts_consistent():
    scene = toy_scene(n_stripes=1, M=4, K=6)
    dist = make_disturbances(scene)[0]
    wf = scene.waveform
    u, a = whitened_response_parts(0.5, 8e-9, wf, scene.stripes[0], dist)
    assert_allclose(np.kron(u, a), whitened_response(0.5, 8e-9, wf, scene.stripes[0], dist))
    # and equals the dense whitener applied to the raw response
    W = np.kron(dist.q_isqrt, np.eye(4))
    c = oracles.response_by_loop(0.5, 8e-9, wf.pilots, 4, wf.K, scene.stripes[0].spacing,
                                 wf.wavelength, wf.delta_f)
    assert_allclose(np.kron(u, a), W @ c, atol=1e-12)
    # batched angles and delays give per-element factors bit for bit
    rng = np.random.default_rng(6)
    thetas = rng.uniform(-1.5, 1.5, (4, 3))
    taus = rng.uniform(0.0, 80e-9, (4, 3))
    ub, ab = whitened_response_parts(thetas, taus, wf, scene.stripes[0], dist)
    assert ub.shape == (4, 3, wf.K) and ab.shape == (4, 3, 4)
    cwb = whitened_response(thetas, taus, wf, scene.stripes[0], dist)
    assert cwb.shape == (4, 3, 4 * wf.K)
    for i, j in np.ndindex(thetas.shape):
        th, ta = float(thetas[i, j]), float(taus[i, j])
        ui, ai = whitened_response_parts(th, ta, wf, scene.stripes[0], dist)
        np.testing.assert_array_equal(ub[i, j], ui)
        np.testing.assert_array_equal(ab[i, j], ai)
        np.testing.assert_array_equal(
            cwb[i, j], whitened_response(th, ta, wf, scene.stripes[0], dist)
        )
        np.testing.assert_array_equal(cwb[i, j], np.kron(ui, ai))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def test_noise_free_single_los_rank1():
    scene = toy_scene(n_stripes=1, n_sp=0, M=6, K=8)
    scene.walls = ()
    scene.stripes = (type(scene.stripes[0])(
        scene.stripes[0].phase_center, 0.0, 6, scene.stripes[0].spacing, None
    ),)
    obs = synthesize(scene, 0, noise_scale=0.0)
    sv = np.linalg.svd(obs.observations[0].Y, compute_uv=False)
    assert sv[1] / sv[0] < 1e-12


def test_noise_free_matches_path_reconstruction():
    scene = toy_scene(n_stripes=2, n_sp=2, M=4, K=8)
    for n in range(2):
        Y = noise_free_matrix(scene, n)
        paths = enumerate_paths(scene, n)
        gains = path_gains(scene, n, paths)
        wf = scene.waveform
        stripe = scene.stripes[n]
        recon = np.zeros_like(Y).reshape(-1)
        vecY = Y.T.reshape(-1)
        for g, q in zip(gains, paths):
            recon = recon + g * oracles.response_by_loop(
                q.aoa, q.pseudo_delay, wf.pilots, stripe.num_antennas, wf.K,
                stripe.spacing, wf.wavelength, wf.delta_f,
            )
        assert np.linalg.norm(vecY - recon) / np.linalg.norm(vecY) < 1e-10
        # and the batched sum has the bits of a per-path outer-product loop
        loop = np.zeros_like(Y)
        for g, q in zip(gains, paths):
            a = steering_spatial(q.aoa, stripe.num_antennas, stripe.spacing, wf.wavelength)
            b = steering_frequency(q.pseudo_delay, wf.K, wf.delta_f)
            loop += g * np.outer(a, b * wf.pilots)
        np.testing.assert_array_equal(Y, loop)


def test_synthesize_enumerates_paths_once_per_stripe(monkeypatch):
    # synthesize enumerates each stripe's paths once, and its noise-free
    # matrices have the bits of each enumerating the paths itself
    sc = estimation_scenario()
    want_Y = [noise_free_matrix(sc, n) for n in range(len(sc.stripes))]
    calls = []
    monkeypatch.setattr(signal, "enumerate_paths",
                        lambda scenario, n: calls.append(n) or enumerate_paths(scenario, n))
    obs = synthesize(sc, (3, 1), noise_scale=0.0)
    assert calls == list(range(len(sc.stripes)))
    for n in range(len(sc.stripes)):
        np.testing.assert_array_equal(obs.observations[n].Y, want_Y[n])


def test_make_disturbances_shared_per_antenna_count():
    # the disturbance statistics depend on the stripe only through M, so
    # stripes with equal M share one covariance with the bits of their own
    scene = toy_scene(n_stripes=2, M=4, K=8)
    first = dataclasses.replace(scene.stripes[0], num_antennas=6)
    scene.stripes = (first,) + tuple(scene.stripes) + (scene.stripes[1],)
    covs = make_disturbances(scene)
    assert covs[1] is covs[2] is covs[3] and covs[0] is not covs[1]
    wf = scene.waveform
    for cov, st in zip(covs, scene.stripes):
        own = disturbance_covariance(scene.dmc, wf.sigma2, wf.pilots, wf.K, st.num_antennas)
        assert cov.M == own.M
        for name in ("Q", "q_isqrt", "q_sqrt"):
            np.testing.assert_array_equal(getattr(cov, name), getattr(own, name))


def test_synthesis_deterministic():
    scene = toy_scene(n_stripes=2)
    a = synthesize(scene, 42)
    b = synthesize(scene, 42)
    c = synthesize(scene, 43)
    for n in range(2):
        assert np.array_equal(a.observations[n].Y, b.observations[n].Y)
        assert not np.array_equal(a.observations[n].Y, c.observations[n].Y)
    # stripes use independent streams
    assert not np.array_equal(
        a.observations[0].Y - noise_free_matrix(scene, 0),
        a.observations[1].Y - noise_free_matrix(scene, 1),
    )


def test_noise_sample_covariance():
    scene = toy_scene(n_stripes=1, M=2, K=3)
    dist = make_disturbances(scene)[0]
    mean = noise_free_matrix(scene, 0)
    trials = 2000
    MK = 6
    acc = np.zeros((MK, MK), dtype=complex)
    for t in range(trials):
        obs = synthesize(scene, [9, t])
        w = (obs.observations[0].Y - mean).T.reshape(-1)
        acc += np.outer(w, w.conj())
    sample = acc / trials
    R = dist.dense()
    assert np.linalg.norm(sample - R) / np.linalg.norm(R) < 0.10


def test_noise_mean_unbiased():
    scene = toy_scene(n_stripes=1, M=2, K=3)
    mean = noise_free_matrix(scene, 0)
    trials = 2000
    acc = np.zeros_like(mean)
    for t in range(trials):
        acc += synthesize(scene, [11, t]).observations[0].Y
    emp = acc / trials
    dist = make_disturbances(scene)[0]
    sigma = math.sqrt(np.real(np.trace(dist.dense())) / 6)
    assert np.abs(emp - mean).max() < 3 * sigma / math.sqrt(trials) * 3


def test_white_noise_per_subcarrier_power():
    scene = toy_scene(n_stripes=1, M=2, K=3)
    scene.dmc = type(scene.dmc)(0.0, 0.5, 0.1)
    wf = scene.waveform
    mean = noise_free_matrix(scene, 0)
    acc = 0.0
    trials = 1500
    for t in range(trials):
        w = synthesize(scene, [13, t]).observations[0].Y - mean
        acc += np.mean(np.abs(w) ** 2)
    per_entry = acc / trials
    assert abs(per_entry - wf.sigma2 / wf.K) / (wf.sigma2 / wf.K) < 0.05


# ---------------------------------------------------------------------------
# SDNR accounting
# ---------------------------------------------------------------------------


def test_sdnr_round_trip():
    scene = toy_scene(n_stripes=3)
    for target in (0.0, 10.0, -7.5):
        pt = pt_for_sdnr(target, scene)
        scene.transmit_power = pt
        assert abs(sdnr_db(scene) - target) < 1e-10


def test_pt_quadratic_in_gain():
    # halving the carrier frequency doubles every LoS propagation gain, so
    # the required transmit power drops by 4x
    hi = toy_scene(n_stripes=2, fc=3.5e9)
    lo = toy_scene(n_stripes=2, fc=1.75e9)
    # keep identical arrays so whitened-response norms match
    lo.stripes = hi.stripes
    assert_allclose(pt_for_sdnr(0.0, lo), pt_for_sdnr(0.0, hi) / 4.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------


def test_dump_csv_header(tmp_path):
    scene = toy_scene(n_stripes=1, M=2, K=2)
    obs = synthesize(scene, 5)
    out = tmp_path / "obs.csv"
    dump_observations(obs, str(out), fmt="csv")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "stripe,antenna,subcarrier,re,im"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "0"
    assert np.isclose(float(first[3]), obs.observations[0].Y[0, 0].real)
