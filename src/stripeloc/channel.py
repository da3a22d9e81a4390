"""Per-path physics and disturbance statistics.

Reflection-path amplitudes follow a power-wave Friis law with Fresnel
reflection coefficients of the wall material; scatterer amplitudes follow the
bistatic radar equation with a fixed optical-region radar cross section.
The dense-multipath + thermal-noise disturbance covariance is Kronecker
structured over antennas, and the whitener exploits that structure.

Only |Gamma| of a reflection coefficient enters the amplitude; its phase is
absorbed into the per-path nuisance phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, NumericalFailure
from .geometry import PathGeometry, PathKind, SPEED_OF_LIGHT, Stripe, wrap_angle

# Vacuum permittivity (F/m) and permeability (H/m), CODATA 2022: the values
# scipy.constants gives, written out so that importing the package does not
# load that module
EPSILON_0 = 8.8541878188e-12
MU_0 = 1.25663706127e-06
# Intrinsic impedance of free space, ~376.73 ohm.
Z0 = math.sqrt(MU_0 / EPSILON_0)


@dataclass(frozen=True)
class Material:
    """Homogeneous wall material (relative permittivity/permeability, conductivity)."""

    eps_r: float
    mu_r: float = 1.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.eps_r < 1.0:
            raise ValueError("eps_r must be >= 1")
        if self.mu_r <= 0.0:
            raise ValueError("mu_r must be positive")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


@dataclass(frozen=True)
class Scatterer:
    """Perfectly conducting sphere acting as a point scatterer."""

    position: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "position", np.asarray(self.position, dtype=float).reshape(3)
        )
        if self.radius <= 0.0:
            raise ValueError("scatterer radius must be positive")

    def rcs(self) -> float:
        """Optical-region radar cross section pi*r^2 (m^2), isotropic."""
        return math.pi * self.radius**2


@dataclass(frozen=True)
class DmcParams:
    """Dense-multipath spectral parameters: power scale, normalized coherence
    bandwidth and normalized onset time."""

    alpha1: float
    beta_d: float
    tau_d: float

    def __post_init__(self):
        if self.alpha1 < 0.0:
            raise ValueError("alpha1 must be non-negative")
        if self.beta_d <= 0.0:
            raise ValueError("beta_d must be positive")


def fresnel_coefficients(
    angle_incidence: float, material: Material, fc: float
) -> tuple[complex, complex]:
    """Fresnel reflection coefficients (parallel, perpendicular polarization).

    Parameters
    ----------
    angle_incidence : float
        Angle between the incident ray and the wall normal, in [0, pi/2).
    material : Material
        Wall material; free space is ``Material(1.0, 1.0, 0.0)``.
    fc : float
        Carrier frequency in Hz (enters through the lossy impedance).

    Returns
    -------
    (gamma_par, gamma_perp) : complex
        Reflection coefficients for the field components parallel and
        perpendicular to the plane of incidence.
    """
    omega = 2.0 * math.pi * fc
    eps1 = material.eps_r * EPSILON_0
    mu1 = material.mu_r * MU_0
    z1 = np.sqrt(1j * omega * mu1 / (material.sigma + 1j * omega * eps1))
    # Snell's law with a real refraction angle (eps_r*mu_r >= 1).
    sin_t = math.sin(angle_incidence) / math.sqrt(material.eps_r * material.mu_r)
    cos_t = math.sqrt(max(0.0, 1.0 - sin_t**2))
    cos_i = math.cos(angle_incidence)
    gamma_par = (z1 * cos_t - Z0 * cos_i) / (z1 * cos_t + Z0 * cos_i)
    gamma_perp = (z1 * cos_i - Z0 * cos_t) / (z1 * cos_i + Z0 * cos_t)
    return complex(gamma_par), complex(gamma_perp)


def _polarization_gain(e_rs: np.ndarray, e_ue: np.ndarray) -> float:
    return abs(float(e_rs @ e_ue))


def reflection_coefficient(scenario, stripe: Stripe, path: PathGeometry) -> complex:
    """Polarization-resolved reflection coefficient for one RP path.

    The stripe polarization is split into its component along the wall normal
    (parallel to the plane of incidence for the vertical-polarization setups
    used here) and the in-plane remainder; each component reflects with its
    own Fresnel coefficient and the result is projected onto the UE
    polarization.
    """
    wall = scenario.walls[path.index]
    material = scenario.materials[wall.material_id]
    e_rs = np.asarray(scenario.e_rs, dtype=float)
    e_ue = np.asarray(scenario.e_ue, dtype=float)
    d_r = np.linalg.norm(path.via_point - stripe.phase_center)
    if d_r == 0.0:
        raise DegenerateGeometry("reflection point coincides with the stripe")
    u = (path.via_point - stripe.phase_center) / d_r
    cos_i = min(1.0, abs(float(u @ wall.normal)))
    theta_i = math.acos(cos_i)
    g_par, g_perp = fresnel_coefficients(theta_i, material, scenario.waveform.fc)
    e_par = (e_rs @ wall.normal) * wall.normal
    e_perp = e_rs - e_par
    return complex((g_par * e_par + g_perp * e_perp) @ e_ue)


def rp_amplitude(scenario, stripe: Stripe, path: PathGeometry) -> float:
    """Amplitude of a LoS or reflected path (power-wave Friis law), >= 0.

    Includes the sqrt of the transmit power; reflected paths carry the
    magnitude of the polarization-resolved reflection coefficient.
    """
    if path.kind not in (PathKind.LOS, PathKind.RP):
        raise ValueError("rp_amplitude expects a LoS or RP path")
    lam = SPEED_OF_LIGHT / scenario.waveform.fc
    sqrt_pt = math.sqrt(scenario.transmit_power)
    p = np.asarray(scenario.ue_position, dtype=float)
    if path.kind is PathKind.LOS:
        d_u = np.linalg.norm(p - stripe.phase_center)
        if d_u == 0.0:
            raise DegenerateGeometry("UE coincides with the stripe")
        gain = _polarization_gain(
            np.asarray(scenario.e_rs, float), np.asarray(scenario.e_ue, float)
        )
        return sqrt_pt * lam * gain / (4.0 * math.pi * d_u)
    d_ur = np.linalg.norm(p - path.via_point)
    d_r = np.linalg.norm(path.via_point - stripe.phase_center)
    total = d_ur + d_r
    if total == 0.0:
        raise DegenerateGeometry("zero-length reflected path")
    gamma = reflection_coefficient(scenario, stripe, path)
    return sqrt_pt * lam * abs(gamma) / (4.0 * math.pi * total)


def sp_amplitude(scenario, stripe: Stripe, path: PathGeometry) -> float:
    """Amplitude of a scattered path (bistatic radar equation), >= 0."""
    if path.kind is not PathKind.SP:
        raise ValueError("sp_amplitude expects an SP path")
    lam = SPEED_OF_LIGHT / scenario.waveform.fc
    sc = scenario.scatterers[path.index]
    p = np.asarray(scenario.ue_position, dtype=float)
    d_us = np.linalg.norm(p - sc.position)
    d_s = np.linalg.norm(sc.position - stripe.phase_center)
    if d_us == 0.0 or d_s == 0.0:
        raise DegenerateGeometry("zero-length scattered path leg")
    gain = _polarization_gain(
        np.asarray(scenario.e_rs, float), np.asarray(scenario.e_ue, float)
    )
    return (
        math.sqrt(scenario.transmit_power)
        * lam
        * math.sqrt(sc.rcs())
        * gain
        / ((4.0 * math.pi) ** 1.5 * d_us * d_s)
    )


def path_phase(path: PathGeometry, fc: float, delta_phi_n: float = 0.0) -> float:
    """Carrier phase of one path: -2*pi*fc*delay + stripe phase offset,
    wrapped to (-pi, pi].

    No reflection-induced phase is added: every synthesized path carries
    only its propagation phase and the stripe's offset.
    """
    return wrap_angle(-2.0 * math.pi * fc * path.delay + delta_phi_n)


def dmc_psd(dmc: DmcParams, f: np.ndarray) -> np.ndarray:
    """Dense-multipath power spectral density on the normalized frequency grid."""
    f = np.asarray(f, dtype=float)
    return dmc.alpha1 * np.exp(-2j * math.pi * f * dmc.tau_d) / (
        dmc.beta_d + 2j * math.pi * f
    )


def dmc_frequency_covariance(dmc: DmcParams, K: int) -> np.ndarray:
    """K x K Hermitian Toeplitz frequency covariance of the dense multipath.

    The generating sequence is the PSD sampled at normalized lags k/K,
    k = 0..K-1 (the subcarrier spacing cancels against the normalization, so
    it does not enter).  Entry (i, j) is kappa[i - j] for i >= j and
    conj(kappa[j - i]) above the diagonal.
    """
    kappa = dmc_psd(dmc, np.arange(K) / float(K))
    # vals[K - 1 + m] is entry (i, i - m): conj(kappa[-m]) for m < 0, kappa[m] else
    vals = np.concatenate((kappa[:0:-1].conj(), kappa))
    lags = np.arange(K)
    return vals[K - 1 + lags[:, None] - lags[None, :]]


class DisturbanceCov:
    """Structured disturbance covariance R = Q kron I_M.

    Q = R_f * (s s^H) + (sigma2/K) I_K is the K x K frequency-domain factor
    (elementwise product with the pilot outer product); the antenna dimension
    is white.  The whitener is the Hermitian inverse square root lifted
    through the Kronecker identity, Q^{-1/2} kron I_M, which equals the dense
    R^{-1/2} exactly while whitening an M x K observation in O(M K^2).

    Vectorized MK arguments are laid out antenna-fastest: y[k*M + m] = Y[m, k].
    """

    def __init__(self, R_f: np.ndarray, sigma2: float, pilots: np.ndarray, M: int):
        s = np.asarray(pilots, dtype=complex).reshape(-1)
        K = s.size
        if sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        Q = R_f * np.outer(s, s.conj()) + (sigma2 / K) * np.eye(K)
        Q = 0.5 * (Q + Q.conj().T)
        try:
            w, V = np.linalg.eigh(Q)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - sigma2 > 0 guards this
            raise NumericalFailure(f"covariance eigendecomposition failed: {exc}") from exc
        if w.min() <= 0.0:
            raise NumericalFailure(
                f"covariance not positive definite (min eigenvalue {w.min():.3e})"
            )
        self.Q = Q
        self.q_isqrt = (V * (1.0 / np.sqrt(w))) @ V.conj().T
        self.q_sqrt = (V * np.sqrt(w)) @ V.conj().T
        self.M = int(M)
        self.K = K

    # -- operator forms -------------------------------------------------

    def whiten_vec(self, y: np.ndarray) -> np.ndarray:
        """Apply R^{-1/2} to a length-MK vector (antenna-fastest layout)."""
        Yt = np.asarray(y).reshape(self.K, self.M)
        return (self.q_isqrt @ Yt).reshape(-1)

    def whiten_freq(self, u: np.ndarray) -> np.ndarray:
        """Apply the K-side factor Q^{-1/2} to a K-vector or to each row of a
        (..., K) stack, u Q^{-T/2}; on an M x K observation matrix this is
        R^{-1/2} applied to its antenna-fastest vectorization.

        Each row is a separate vector-matrix product, so a row gets the same
        bits in a stack as alone (one stacked matrix product rounds
        differently, and was no faster on the estimators' batches).
        """
        return (u[..., None, :] @ self.q_isqrt.T)[..., 0, :]

    def color_noise(self, Z: np.ndarray) -> np.ndarray:
        """Map an M x K iid CN(0,1) matrix to disturbance with covariance Q kron I_M."""
        return Z @ self.q_sqrt.T

    # -- dense forms for small-instance verification --------------------

    def dense(self) -> np.ndarray:
        """Dense MK x MK covariance (tests and small instances only)."""
        return np.kron(self.Q, np.eye(self.M))


def disturbance_covariance(
    dmc: DmcParams, sigma2: float, pilots: np.ndarray, K: int, M: int
) -> DisturbanceCov:
    """Build the structured DMC + noise covariance for one stripe."""
    s = np.asarray(pilots, dtype=complex).reshape(-1)
    if s.size != K:
        raise ValueError("pilot length must equal K")
    if not math.isclose(float(np.linalg.norm(s)), 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError("pilots must have unit norm")
    return DisturbanceCov(dmc_frequency_covariance(dmc, K), sigma2, s, M)
