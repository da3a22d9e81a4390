"""Fisher information: local channel FIMs, Jacobian propagation, EFIM, bounds.

Global parameter layout (frozen; all index math in ParamLayout):
position (D entries), clock offset, phase offset(s) (1 for coherent
processing, N for noncoherent), scatterer positions (3 each), then nuisance
parameters: per-stripe non-LoS path phases (stripe-major; scatterer paths
only when RP phases are treated as known), then per-stripe path amplitudes
(stripe-major, all paths).

Local channel parameters per stripe are stacked (all angles, all
pseudo-delays, all phases, all amplitudes).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGeometry, SemanticError, SingularFim
from .geometry import (
    SPEED_OF_LIGHT,
    PathKind,
    Stripe,
    d_rot_z_at_zero,
    enumerate_paths,
    mirror_ue,
    reflecting_walls,
)
from .signal import (
    Waveform,
    d_steering_frequency,
    d_steering_spatial,
    kron_rows,
    make_disturbances,
    path_amplitudes_and_phases,
    whitened_response_parts,
)


class SyncMode(Enum):
    """Phase-synchronization level: one shared phase offset (CP) or one per stripe (NCP)."""

    NCP = "ncp"
    CP = "cp"


@dataclass(frozen=True)
class FimOptions:
    sync_mode: SyncMode = SyncMode.CP
    D: int = 3
    known_rp_phases: bool = False

    def __post_init__(self):
        if self.D not in (2, 3):
            raise ValueError("D must be 2 or 3")


@dataclass(frozen=True)
class LocalChannelParams:
    """Per-stripe channel parameters for all impinging components."""

    thetas: np.ndarray
    pseudo_delays: np.ndarray
    phases: np.ndarray
    amplitudes: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate(
            [self.thetas, self.pseudo_delays, self.phases, self.amplitudes]
        )


def local_channel_params(scenario, stripe_index: int, paths=None) -> LocalChannelParams:
    """Ground-truth local channel parameters of one stripe (``paths`` defaults
    to its ``enumerate_paths``)."""
    if paths is None:
        paths = enumerate_paths(scenario, stripe_index)
    alphas, phases = path_amplitudes_and_phases(scenario, stripe_index, paths)
    return LocalChannelParams(
        thetas=np.array([q.aoa for q in paths]),
        pseudo_delays=np.array([q.pseudo_delay for q in paths]),
        phases=phases,
        amplitudes=alphas,
    )


# ---------------------------------------------------------------------------
# Local FIM
# ---------------------------------------------------------------------------


def local_fim(
    stripe: Stripe, waveform: Waveform, params: LocalChannelParams, disturbance
) -> np.ndarray:
    """4Nc x 4Nc Fisher information of the local channel parameters.

    Built as 2*Re{D^H D} from whitened model derivatives, which reproduces
    every closed-form entry (the whitened inner products factor over the
    antenna/subcarrier Kronecker structure).
    """
    th, ta = params.thetas, params.pseudo_delays
    rot = np.exp(1j * params.phases)[:, None]
    gamma = params.amplitudes[:, None] * rot
    u, a = whitened_response_parts(th, ta, waveform, stripe, disturbance)
    a_dot = d_steering_spatial(th, stripe.num_antennas, stripe.spacing, waveform.wavelength)
    b_dot = d_steering_frequency(ta, waveform.K, waveform.delta_f)
    u_dot = disturbance.whiten_freq(b_dot * waveform.pilots)
    c = kron_rows(u, a)
    # rows: angle, delay, phase and amplitude derivatives, path by path
    cols = np.ascontiguousarray(np.concatenate(
        [gamma * kron_rows(u, a_dot), gamma * kron_rows(u_dot, a), 1j * gamma * c, rot * c]
    ).T)
    J = 2.0 * np.real(cols.conj().T @ cols)
    return 0.5 * (J + J.T)


# ---------------------------------------------------------------------------
# Global parameter layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamLayout:
    """Index bookkeeping for the global parameter vector."""

    D: int
    n_phase_offsets: int
    n_sp: int
    nuis_phase_counts: tuple
    amp_counts: tuple

    @property
    def clock(self) -> int:
        return self.D

    @property
    def phase_offsets(self) -> slice:
        return slice(self.D + 1, self.D + 1 + self.n_phase_offsets)

    def phase_offset_row(self, stripe_index: int) -> int:
        if self.n_phase_offsets == 1:
            return self.D + 1
        return self.D + 1 + stripe_index

    @property
    def sp_start(self) -> int:
        return self.D + 1 + self.n_phase_offsets

    def sp_slice(self, j: int) -> slice:
        return slice(self.sp_start + 3 * j, self.sp_start + 3 * j + 3)

    @property
    def wanted_dim(self) -> int:
        return self.D + 1 + self.n_phase_offsets + 3 * self.n_sp

    def nuis_phase_row(self, stripe_index: int, k: int) -> int:
        return self.wanted_dim + sum(self.nuis_phase_counts[:stripe_index]) + k

    def amp_row(self, stripe_index: int, k: int) -> int:
        return (
            self.wanted_dim
            + sum(self.nuis_phase_counts)
            + sum(self.amp_counts[:stripe_index])
            + k
        )

    @property
    def dim(self) -> int:
        return self.wanted_dim + sum(self.nuis_phase_counts) + sum(self.amp_counts)


def make_layout(scenario, options: FimOptions) -> ParamLayout:
    N = len(scenario.stripes)
    J = len(scenario.scatterers)
    nc = [1 + len(reflecting_walls(scenario.walls, s)) + J for s in scenario.stripes]
    nuis = tuple(J if options.known_rp_phases else c - 1 for c in nc)
    return ParamLayout(
        D=options.D,
        n_phase_offsets=N if options.sync_mode is SyncMode.NCP else 1,
        n_sp=J,
        nuis_phase_counts=nuis,
        amp_counts=tuple(nc),
    )


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------


def _horizontal_norm2(r: np.ndarray) -> float:
    return float(r[0] ** 2 + r[1] ** 2)


def jacobian(scenario, stripe_index: int, options: FimOptions, layout=None,
             paths=None) -> np.ndarray:
    """Jacobian of one stripe's local channel parameters w.r.t. the global vector.

    Rows follow the global layout, columns follow the stacked local order
    of ``paths`` (default: the stripe's ``enumerate_paths``).  Reflections
    propagate position derivatives through the Householder map
    H = I - 2 n n^T of their wall; scatterer paths split delay/phase
    derivatives over the two legs.
    """
    if layout is None:
        layout = make_layout(scenario, options)
    stripe = scenario.stripes[stripe_index]
    if paths is None:
        paths = enumerate_paths(scenario, stripe_index)
    Nc = len(paths)
    lam = scenario.waveform.wavelength
    Mp = d_rot_z_at_zero()
    p = np.asarray(scenario.ue_position, float)
    p_rs = stripe.phase_center
    D = options.D

    T = np.zeros((layout.dim, 4 * Nc))
    nuis_k = 0
    for i, q in enumerate(paths):
        col_th, col_ta, col_ph, col_al = i, Nc + i, 2 * Nc + i, 3 * Nc + i
        if q.kind is PathKind.SP:
            p_sp = q.via_point
            r_us = p_sp - p
            d_us = np.linalg.norm(r_us)
            r_s = p_sp - p_rs
            d_s = np.linalg.norm(r_s)
            if d_us == 0.0 or d_s == 0.0:
                raise DegenerateGeometry("zero-length scatterer leg")
            h2 = _horizontal_norm2(r_s)
            if h2 == 0.0:
                raise DegenerateGeometry("scatterer directly above the stripe")
            # UE-position derivatives (angle is UE-independent)
            T[0:D, col_ta] = (-r_us[:D] / d_us) / SPEED_OF_LIGHT
            T[0:D, col_ph] = (2.0 * math.pi / lam) * (r_us[:D] / d_us)
            # scatterer-position derivatives
            rows = layout.sp_slice(q.index)
            T[rows, col_th] = -(Mp @ r_s) / h2
            both = r_s / d_s + r_us / d_us
            T[rows, col_ta] = both / SPEED_OF_LIGHT
            T[rows, col_ph] = -(2.0 * math.pi / lam) * both
        else:
            if q.kind is PathKind.LOS:
                H = np.eye(3)
                r_m = p - p_rs
            else:
                wall = scenario.walls[q.index]
                n = wall.normal
                H = np.eye(3) - 2.0 * np.outer(n, n)
                r_m = mirror_ue(p, wall) - p_rs
            d_m = np.linalg.norm(r_m)
            h2 = _horizontal_norm2(r_m)
            if d_m == 0.0 or h2 == 0.0:
                raise DegenerateGeometry("degenerate mirror range")
            T[0:D, col_th] = (-(H @ (Mp @ r_m)) / h2)[:D]
            Hr = H @ (r_m / d_m)
            T[0:D, col_ta] = Hr[:D] / SPEED_OF_LIGHT
            T[0:D, col_ph] = -(2.0 * math.pi / lam) * Hr[:D]
        # clock offset enters every pseudo-delay
        T[layout.clock, col_ta] = 1.0
        # the stripe's phase offset enters every phase
        T[layout.phase_offset_row(stripe_index), col_ph] = 1.0
        # nuisance reflection/scattering phase
        if q.kind is not PathKind.LOS:
            if q.kind is PathKind.SP or not options.known_rp_phases:
                T[layout.nuis_phase_row(stripe_index, nuis_k), col_ph] = 1.0
                nuis_k += 1
        # amplitude
        T[layout.amp_row(stripe_index, i), col_al] = 1.0
    return T


# ---------------------------------------------------------------------------
# Global FIM, EFIM, bounds
# ---------------------------------------------------------------------------


def global_fim(scenario, options: FimOptions):
    """Sum of per-stripe local FIMs propagated to the global parameters.

    Returns (J, layout).
    """
    layout = make_layout(scenario, options)
    disturbances = make_disturbances(scenario)
    J = np.zeros((layout.dim, layout.dim))
    for n, stripe in enumerate(scenario.stripes):
        paths = enumerate_paths(scenario, n)
        params = local_channel_params(scenario, n, paths)
        Jl = local_fim(stripe, scenario.waveform, params, disturbances[n])
        T = jacobian(scenario, n, options, layout, paths)
        J += T @ Jl @ T.T
    return 0.5 * (J + J.T), layout


def _scaled_cholesky(A: np.ndarray, name: str, first: int, singular: str):
    """Solver for ``A`` scaled to a unit diagonal, and the scale: ``solve(b)``
    applies the inverse of A / outer(scale, scale) through its Cholesky
    factor.  Raises SingularFim for a nonpositive diagonal (``name`` number
    ``first + k``) or a failed factorization (message ``singular``).

    LAPACK's potrf/potrs come from scipy.linalg, imported here so that
    importing the package does not load it: numpy's solves round differently
    and move the bounds of ill-conditioned configurations by several 1e-8
    relative.
    """
    from scipy.linalg import cho_factor, cho_solve

    dg = np.diag(A)
    if np.any(dg <= 0.0):
        raise SingularFim(f"{name} {first + int(np.argmin(dg))} carries no information")
    scale = np.sqrt(dg)
    S = A / np.outer(scale, scale)
    try:
        cf = cho_factor(S, lower=True)
    except np.linalg.LinAlgError:
        raise SingularFim(singular) from None
    return functools.partial(cho_solve, cf), scale


def efim(J: np.ndarray, layout: ParamLayout) -> np.ndarray:
    """Equivalent FIM of the wanted parameters (Schur complement over nuisance).

    Raises SingularFim when the nuisance information is singular.
    """
    w = layout.wanted_dim
    Jww = J[:w, :w]
    Jwu = J[:w, w:]
    Juu = J[w:, w:]
    if Juu.size == 0:
        return Jww.copy()
    solve, scale = _scaled_cholesky(
        Juu, "nuisance parameter", w, "nuisance information block is singular"
    )
    B = Jwu / scale[None, :]
    E = Jww - B @ solve(B.T)
    return 0.5 * (E + E.T)


@dataclass(frozen=True)
class BoundsReport:
    """Error bounds for one configuration: position (m), clock offset (s),
    phase offset(s) (rad), per-scatterer position (m)."""

    peb: float
    ceb: float
    cpeb: float
    sp_peb: np.ndarray
    efim_cond: float
    note: str = ""

    @property
    def ceb_m(self) -> float:
        return SPEED_OF_LIGHT * self.ceb


def _crb_to_report(crb: np.ndarray, layout: ParamLayout, cond: float, note: str = "") -> BoundsReport:
    D = layout.D
    dg = np.diag(crb).copy()
    dg[dg < 0.0] = 0.0  # round-off guard; CRB diagonals are nonnegative
    peb = math.sqrt(float(np.sum(dg[:D])))
    ceb = math.sqrt(float(dg[D]))
    cpeb = math.sqrt(float(np.sum(dg[layout.phase_offsets])))
    sp_peb = np.array(
        [math.sqrt(float(np.sum(dg[layout.sp_slice(j)]))) for j in range(layout.n_sp)]
    )
    return BoundsReport(peb=peb, ceb=ceb, cpeb=cpeb, sp_peb=sp_peb, efim_cond=cond, note=note)


def bounds(E: np.ndarray, layout: ParamLayout) -> BoundsReport:
    """Invert the EFIM and read off PEB/CEB/CPEB/SP-PEBs."""
    solve, scale = _scaled_cholesky(E, "wanted parameter", 0, "equivalent FIM is singular")
    Sinv = solve(np.eye(E.shape[0]))
    crb = Sinv / np.outer(scale, scale)
    return _crb_to_report(crb, layout, float(np.linalg.cond(E)))


def compute_bounds(scenario, options: FimOptions) -> BoundsReport:
    """Bounds for a scenario; singular configurations degrade to inf entries.

    When the FIM is rank deficient the report is built from the pseudo-inverse
    and every bound touched by a null direction is set to inf.
    """
    J, layout = global_fim(scenario, options)
    try:
        return bounds(efim(J, layout), layout)
    except SingularFim:
        pass
    # pseudo-inverse fallback with rank diagnostics
    d = np.sqrt(np.maximum(np.diag(J), 1e-300))
    S = J / np.outer(d, d)
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    tol = 1e-12 * w.max() if w.size else 0.0
    keep = w > tol
    Sinv = (V[:, keep] / w[keep]) @ V[:, keep].T
    crb = Sinv / np.outer(d, d)
    null = V[:, ~keep]
    affected = (np.abs(null) > 1e-8).any(axis=1)
    dgc = np.diag(crb).copy()
    dgc[affected] = np.inf
    crb = crb.copy()
    np.fill_diagonal(crb, dgc)
    rank = int(keep.sum())
    report = _crb_to_report(
        crb[: layout.wanted_dim, : layout.wanted_dim],
        layout,
        float("inf"),
        note=f"rank-deficient FIM (rank {rank}/{J.shape[0]}); pseudo-inverse bounds",
    )
    return report


# ---------------------------------------------------------------------------
# Bandwidth thresholds and heatmaps
# ---------------------------------------------------------------------------


def bw_thresholds(scenario) -> tuple[float, float]:
    """(B_low, B_high): bandwidths where path overlap resolves and where
    delay information overtakes angle information.

    B_low comes from the mean RP-vs-LoS delay gap; B_high compares the array
    and subcarrier second moments at the mean LoS delay.

    B_high is a closed-form single-array estimate, not the angle/delay
    crossover of the full bound.  It uses the uncentred subcarrier moment
    sum_k k^2 (2470 at K=20), whereas the per-stripe gain nuisance leaves
    only the centred K(K^2-1)/12 (665), and it has no cos(theta) factor on
    the array side.  On the canonical scenario (M=16) it gives 321 MHz, while
    the noncoherent LoS-only bound crosses from angle- to delay-dominated
    near 0.9 GHz.
    """
    los_delays = []
    rp_delays = []
    for n in range(len(scenario.stripes)):
        paths = enumerate_paths(scenario, n)
        los_delays.append(paths[0].delay)
        rp_delays.extend(q.delay for q in paths if q.kind is PathKind.RP)
    if not rp_delays:
        raise DegenerateGeometry("B_low needs at least one reflected path")
    d_tau = float(np.mean(rp_delays) - np.mean(los_delays))
    if d_tau <= 0.0:
        raise DegenerateGeometry("mean RP delay does not exceed mean LoS delay")
    K = scenario.waveform.K
    F = 1.0 / math.sqrt(2.0)
    b_low = K * math.acos(2.0 * F - 1.0) / (2.0 * math.pi * d_tau * (K - 1))
    stripe = scenario.stripes[0]
    M = stripe.num_antennas
    s_m = M * (M**2 - 1) / 12.0
    s_k = (2.0 * K**3 - 3.0 * K**2 + K) / 6.0
    tau_los = float(np.mean(los_delays))
    b_high = (K * stripe.spacing / (tau_los * scenario.waveform.wavelength)) * math.sqrt(
        s_m / s_k
    )
    return b_low, b_high


def peb_heatmap(scenario, xs, ys, options: FimOptions) -> np.ndarray:
    """PEB evaluated on a horizontal grid of UE positions at the scenario's
    UE height.

    Returns an array of shape (len(ys), len(xs)); degenerate geometry yields
    NaN, singular information yields inf.
    """
    z = float(np.asarray(scenario.ue_position, float)[2])
    out = np.full((len(ys), len(xs)), np.nan)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            try:
                moved = dataclasses.replace(
                    scenario, ue_position=np.array([x, y, z])
                )
                out[iy, ix] = compute_bounds(moved, options).peb
            except (DegenerateGeometry, SemanticError):
                out[iy, ix] = np.nan
    return out
