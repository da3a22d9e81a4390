"""Steering vectors, per-path responses, observation synthesis and SDNR accounting.

Vectorization convention: an M x K observation matrix Y (antennas x
subcarriers) is vectorized antenna-fastest, y[k*M + m] = Y[m, k], matching
the Kronecker ordering of the response c = (b(tau) * s) kron a(theta).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import (
    DisturbanceCov,
    disturbance_covariance,
    path_phase,
    rp_amplitude,
    sp_amplitude,
)
from .geometry import SPEED_OF_LIGHT, PathGeometry, PathKind, Stripe, enumerate_paths

BOLTZMANN = 1.380649e-23  # J/K, exact in the SI, as scipy.constants gives it


@dataclass(frozen=True)
class Waveform:
    """OFDM pilot waveform: carrier, K subcarriers at spacing delta_f, and the
    reference temperature setting the noise floor.  Its ``pilots`` are the K
    constant-modulus symbols 1/sqrt(K), of unit norm."""

    fc: float
    K: int
    delta_f: float
    temperature: float = 290.0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.delta_f <= 0.0:
            raise ValueError("delta_f must be positive")
        object.__setattr__(self, "pilots", np.full(self.K, 1.0 / math.sqrt(self.K), dtype=complex))

    @property
    def bandwidth(self) -> float:
        return self.K * self.delta_f

    @property
    def sigma2(self) -> float:
        """Total thermal noise power over the band, k_B * T * B."""
        return BOLTZMANN * self.temperature * self.bandwidth

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.fc


# ---------------------------------------------------------------------------
# Steering vectors and responses
# ---------------------------------------------------------------------------


def steering_spatial(theta, M: int, d: float, lam: float) -> np.ndarray:
    """ULA spatial steering vectors, element 0 at the phase center.

    ``theta`` is a scalar or an array of any shape; the result gains a
    trailing M axis, each row bit-identical to the scalar call.
    """
    m = np.arange(M)
    return np.exp(2j * math.pi * d * m * np.sin(theta)[..., None] / lam)


def d_steering_spatial(theta, M: int, d: float, lam: float) -> np.ndarray:
    """Derivative of :func:`steering_spatial` with respect to theta, batched
    like it.  The coefficient stays real until the factor 1j: numpy's
    complex/float division multiplies by a reciprocal and rounds differently."""
    m = np.arange(M)
    a = steering_spatial(theta, M, d, lam)
    return 1j * np.asarray(2.0 * math.pi * d * np.cos(theta) / lam)[..., None] * m * a


def steering_frequency(tau, K: int, delta_f: float) -> np.ndarray:
    """Frequency-domain steering vectors across K subcarriers.

    ``tau`` is a scalar or an array of any shape; the result gains a
    trailing K axis, each row bit-identical to the scalar call.
    """
    k = np.arange(K)
    return np.exp(-2j * math.pi * k * delta_f * np.asarray(tau)[..., None])


def d_steering_frequency(tau, K: int, delta_f: float) -> np.ndarray:
    """Derivative of :func:`steering_frequency` with respect to tau, batched
    like it."""
    k = np.arange(K)
    return (-2j * math.pi * delta_f * k) * steering_frequency(tau, K, delta_f)


def kron_rows(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products of two factor stacks of one batch shape,
    (..., P) and (..., Q) -> (..., P*Q), second factor fastest, each row the
    bits of ``np.kron``: the one builder of explicit response columns."""
    return (u[..., :, None] * a[..., None, :]).reshape(*u.shape[:-1], -1)


def whitened_response_parts(
    theta,
    tau,
    waveform: Waveform,
    stripe: Stripe,
    disturbance: DisturbanceCov,
) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors (u, a) of the whitened response c' = u kron a.

    u = Q^{-1/2} (b(tau) * s) carries the frequency side of the whitening;
    the antenna side is untouched because the disturbance is white over
    antennas.  ``theta`` and ``tau`` are scalars or arrays of one batch
    shape; u gains a trailing K axis and a a trailing M axis.  This is the
    one whitened response model: synthesis-side SDNR accounting, the local
    FIM and every estimator fit call it.
    """
    a = steering_spatial(theta, stripe.num_antennas, stripe.spacing, waveform.wavelength)
    b = steering_frequency(tau, waveform.K, waveform.delta_f)
    u = disturbance.whiten_freq(b * waveform.pilots)
    return u, a


def whitened_response(
    theta,
    tau,
    waveform: Waveform,
    stripe: Stripe,
    disturbance: DisturbanceCov,
) -> np.ndarray:
    """Whitened angular-delay response c' = R^{-1/2} c, length M*K; batched
    like :func:`whitened_response_parts`."""
    return kron_rows(*whitened_response_parts(theta, tau, waveform, stripe, disturbance))


# ---------------------------------------------------------------------------
# Path gains and noise-free model
# ---------------------------------------------------------------------------


def path_amplitudes_and_phases(
    scenario, stripe_index: int, paths: Optional[Sequence[PathGeometry]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Real amplitudes and carrier phases of all paths at one stripe."""
    stripe = scenario.stripes[stripe_index]
    if paths is None:
        paths = enumerate_paths(scenario, stripe_index)
    dphi = float(scenario.phase_offsets[stripe_index])
    alphas = np.empty(len(paths))
    phases = np.empty(len(paths))
    for i, path in enumerate(paths):
        if path.kind is PathKind.SP:
            alphas[i] = sp_amplitude(scenario, stripe, path)
        else:
            alphas[i] = rp_amplitude(scenario, stripe, path)
        phases[i] = path_phase(path, scenario.waveform.fc, delta_phi_n=dphi)
    return alphas, phases


def path_gains(scenario, stripe_index: int, paths=None) -> np.ndarray:
    """Complex path gains gamma = alpha * exp(j*phi) for one stripe."""
    alphas, phases = path_amplitudes_and_phases(scenario, stripe_index, paths)
    return alphas * np.exp(1j * phases)


def noise_free_matrix(scenario, stripe_index: int, paths=None) -> np.ndarray:
    """Noise-free M x K observation: the sum over paths of gamma * a kron (b * s).

    ``paths`` defaults to the stripe's ``enumerate_paths``; pass them to
    reuse one enumeration."""
    stripe = scenario.stripes[stripe_index]
    wf = scenario.waveform
    if paths is None:
        paths = enumerate_paths(scenario, stripe_index)
    gains = path_gains(scenario, stripe_index, paths)
    a = steering_spatial(np.array([q.aoa for q in paths]), stripe.num_antennas,
                         stripe.spacing, wf.wavelength)
    b = steering_frequency(np.array([q.pseudo_delay for q in paths]), wf.K, wf.delta_f)
    Y = (gains[:, None] * kron_rows(a, b * wf.pilots)).sum(axis=0)
    return Y.reshape(stripe.num_antennas, wf.K)


def make_disturbances(scenario) -> list[DisturbanceCov]:
    """One disturbance covariance per stripe.  The DMC statistics are the
    same at every stripe, so stripes with equal antenna counts share one
    (read-only) object."""
    wf = scenario.waveform
    by_m = {}
    for st in scenario.stripes:
        if st.num_antennas not in by_m:
            by_m[st.num_antennas] = disturbance_covariance(
                scenario.dmc, wf.sigma2, wf.pilots, wf.K, st.num_antennas)
    return [by_m[st.num_antennas] for st in scenario.stripes]


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """One stripe's M x K spatial-frequency observation."""

    stripe_index: int
    Y: np.ndarray
    rng_seed: tuple


class ObservationSet:
    """All per-stripe observations of one snapshot plus shared channel statistics.

    Whitened observations are computed lazily and cached; estimators only
    ever consume the whitened matrices.
    """

    def __init__(self, scenario, observations: list[Observation], disturbances):
        self.scenario = scenario
        self.observations = observations
        self.disturbances = disturbances
        self._whitened: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.observations)

    def whitened(self, stripe_index: int) -> np.ndarray:
        if stripe_index not in self._whitened:
            Y = self.observations[stripe_index].Y
            self._whitened[stripe_index] = self.disturbances[stripe_index].whiten_freq(Y)
        return self._whitened[stripe_index]


def _seed_key(rng_seed, stripe_index: int) -> tuple:
    if isinstance(rng_seed, (int, np.integer)):
        return (int(rng_seed), stripe_index)
    return (*(int(x) for x in rng_seed), stripe_index)


def synthesize(scenario, rng_seed, noise_scale: float = 1.0) -> ObservationSet:
    """Draw one snapshot of observations for every stripe.

    Each stripe uses an independent random stream keyed by (rng_seed, stripe
    index), so results are reproducible and independent of evaluation order.
    ``noise_scale`` = 0 gives the noise-free model.
    """
    disturbances = make_disturbances(scenario)
    paths_all = [enumerate_paths(scenario, n) for n in range(len(scenario.stripes))]
    observations = []
    for n, stripe in enumerate(scenario.stripes):
        key = _seed_key(rng_seed, n)
        rng = np.random.default_rng(list(key))
        Y = noise_free_matrix(scenario, n, paths_all[n])
        if noise_scale != 0.0:
            shape = (stripe.num_antennas, scenario.waveform.K)
            Z = math.sqrt(0.5) * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            Y = Y + noise_scale * disturbances[n].color_noise(Z)
        observations.append(Observation(n, Y, key))
    return ObservationSet(scenario, observations, disturbances)


# ---------------------------------------------------------------------------
# SDNR accounting
# ---------------------------------------------------------------------------


def _los_signal_sum(scenario) -> float:
    """Sum over stripes of alpha_LoS^2 * ||c'_LoS||^2 (amplitudes include Pt)."""
    disturbances = make_disturbances(scenario)
    total = 0.0
    for n, stripe in enumerate(scenario.stripes):
        paths = enumerate_paths(scenario, n)
        los = paths[0]
        alpha = rp_amplitude(scenario, stripe, los)
        c = whitened_response(
            los.aoa, los.pseudo_delay, scenario.waveform, stripe, disturbances[n]
        )
        total += alpha**2 * float(np.vdot(c, c).real)
    return total


def sdnr_db(scenario) -> float:
    """Signal-to-(DMC+noise) ratio referenced to the whitened LoS responses."""
    N = len(scenario.stripes)
    linear = _los_signal_sum(scenario) / (N * scenario.waveform.K)
    return 10.0 * math.log10(linear)


def pt_for_sdnr(target_sdnr_db: float, scenario) -> float:
    """Transmit power (W) that makes :func:`sdnr_db` hit the target exactly."""
    N = len(scenario.stripes)
    K = scenario.waveform.K
    # alpha^2 scales linearly with Pt, so the per-watt signal sum is Pt-free.
    per_watt = _los_signal_sum(scenario) / float(scenario.transmit_power)
    return 10.0 ** (target_sdnr_db / 10.0) * N * K / per_watt


# ---------------------------------------------------------------------------
# Observation dumps
# ---------------------------------------------------------------------------


def dump_observations(obs_set: ObservationSet, path: str, fmt: str) -> None:
    """Write observations to disk for cross-language comparison.

    CSV format (``fmt="csv"``): long table with columns stripe, antenna,
    subcarrier, re, im.  JSON format (``fmt="json"``): a list of {"stripe",
    "re", "im"} objects, one per stripe, ``re`` and ``im`` the M x K parts as
    nested lists.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stripe", "antenna", "subcarrier", "re", "im"])
            for obs in obs_set.observations:
                M, K = obs.Y.shape
                for m in range(M):
                    for k in range(K):
                        v = obs.Y[m, k]
                        writer.writerow(
                            [obs.stripe_index, m, k, repr(float(v.real)), repr(float(v.imag))]
                        )
    elif fmt == "json":
        payload = [
            {"stripe": obs.stripe_index, "re": obs.Y.real.tolist(), "im": obs.Y.imag.tolist()}
            for obs in obs_set.observations
        ]
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        raise ValueError(f"unknown dump format: {fmt!r}")
