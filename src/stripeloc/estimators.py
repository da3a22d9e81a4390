"""Estimation stack: amplitude-eliminated maximum likelihood, the relaxed
three-step position/clock/phase pipeline, and null-space scatterer mapping.

Estimators consume an ObservationSet and use only the known side of the
scenario behind it -- stripe geometry, walls, waveform, disturbance
statistics, scatterer count and (in 2-D mode) the known UE height.  Ground
truth (UE position, offsets, scatterer positions, gains) is never read, so
each stage sees exactly what a receiver would.  Everything is deterministic
given the observations.

Parameterization of a candidate solution ("wanted" parameters): UE position,
clock offset, phase offset, scatterer positions.  Path amplitudes and
non-line-of-sight phases are nuisance parameters eliminated in closed form:
per stripe, the model is linear in one real line-of-sight amplitude (its
phase is pinned by the candidate position and phase offset) plus one free
complex amplitude per remaining path.  One small Hermitian solve per stripe,
the free-gain fit, compresses the likelihood onto the wanted parameters: a
Cholesky factorization certified full-rank, else a truncated
eigendecomposition where response columns (nearly) collide.  The
phase-pinned fit is a closed-form rank-one correction of it.  Every stage
ends in a batched Levenberg-Marquardt refine on the exact residual.

The whitened path responses come from the signal layer's batched
``whitened_response_parts`` and the reflections from ``geometry.mirror_ue``,
the same code the bounds and the synthesis run; only the angles of arrival
and path delays are computed here in batched form (numpy's arctan2 and
axis-wise norms round differently from the scalar ``geometry`` functions).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    KernelEmpty,
    RankDeficient,
    SearchFailure,
    SemanticError,
    ZeroAggregate,
)
from .fim import SyncMode
from .geometry import SPEED_OF_LIGHT, mirror_ue, reflecting_walls, rot_z, wrap_angle
from .signal import kron_rows, whitened_response_parts

_TWO_PI = 2.0 * math.pi
# singular values below this fraction of the largest are treated as zero
_RANK_RTOL = 1e-10
# (candidate, stripe) rows per batched fit in every scan: each row carries its
# own factors and Gram system, so a chunk bounds the memory; 1024 scores as
# fast as 2048, with the same bits, at about half the traced peak
_CHUNK = 1024
# every search grid keeps this far (m) inside the walls or the given box
_WALL_MARGIN = 0.3
# samples per narrowest noncoherent lobe (``_decimation``) of the coarse
# scan's sub-lattice, and of the fine pass's, whose slow parts are upsampled
# (``_fine_costs``): on 120 draws from 0 to 30 dB the upsampled costs chose
# the exact scan's starts at 20 and 30 per lobe, and a different losing
# start on 3 draws at 10
_COARSE_SAMPLES = 4
_FINE_SAMPLES = 30
# z extent of the 3-D position grid when no box is given
_Z_RANGE = (0.3, 2.2)
# scatterer grid: this z extent, and picked dips at least this many grid
# steps apart
_NST_Z_RANGE = (0.2, 2.6)
_NST_EXCLUSION_STEPS = 3
# Levenberg-Marquardt ftol, xtol and gtol of every refine; at 1e-10 JML
# stopped up to 6.5e-10 relative above a derivative-free search's costs
_LM_TOL = 1e-12
_LM_MU0 = 1e-6  # initial damping relative to the largest diagonal entry of J^T J
_FD_STEP = np.finfo(float).eps ** 0.5  # relative forward-difference step


# ---------------------------------------------------------------------------
# Known-side view of the scenario
# ---------------------------------------------------------------------------


def require_cp_sync(scenario) -> None:
    """Raise SemanticError unless ``sync_mode=cp``: the estimators model one
    phase offset shared by all stripes, so under ``sync_mode=ncp`` a fit
    would silently pin wrong phases."""
    if scenario.sync_mode is not SyncMode.CP:
        raise SemanticError(
            f"sync_mode={scenario.sync_mode.value}: the estimators model one phase "
            "offset shared by all stripes; run estimation with sync_mode=cp"
        )


class _Group:
    """Consecutive stripes with one antenna count, spacing, reflecting-wall
    count and disturbance, stacked on a leading axis of S so that one model
    call fits them all."""

    def __init__(self, obs, index):
        stripes = [obs.scenario.stripes[n] for n in index]
        self.index, self.stripe = np.array(index), stripes[0]
        self.disturbance = obs.disturbances[index[0]]
        # phase centres (S, 1, 1, 3), rotations (S, 1, 3, 3), reflecting walls (S, W)
        self.centers = np.array([st.phase_center for st in stripes])[:, None, None, :]
        self.rots = np.array([rot_z(st.azimuth) for st in stripes])[:, None]
        self.walls = np.array([reflecting_walls(obs.scenario.walls, st) for st in stripes], int)
        # whitened M x K observations, stacked, then viewed as K x M (S, 1, K, M):
        # each matrix has the memory layout of ``obs.whitened(n).T``
        self.zt = np.stack([obs.whitened(n) for n in index]).swapaxes(-1, -2)[:, None]
        self.ynorm2 = np.array([[float(np.sum(np.abs(z) ** 2))] for z in self.zt[:, 0]])


class _Workspace:
    """What the network knows, plus the whitened observations of one call.

    The known side is the waveform, stripes, walls, disturbance statistics,
    the dimension D and, in 2-D mode only, the UE height (known by
    assumption).  Every ground-truth field of the scenario is deliberately
    left out, so code written against this view cannot leak the answer into
    an estimator.  The stripes are stacked in ``_Group``s, one for every
    loader-built scene.
    """

    def __init__(self, obs):
        scenario = obs.scenario
        self.waveform = scenario.waveform
        self.stripes = tuple(scenario.stripes)
        self.walls = tuple(scenario.walls)
        self.D = int(scenario.D)
        self.known_height = float(scenario.ue_position[2]) if self.D == 2 else None
        kinds = [(st.num_antennas, st.spacing, len(reflecting_walls(self.walls, st)), d)
                 for st, d in zip(self.stripes, obs.disturbances)]
        self.groups = [_Group(obs, list(run))
                       for _, run in itertools.groupby(range(len(kinds)), kinds.__getitem__)]
        # (group number, row in it) of every stripe, in stripe order
        self.slots = [(i, s) for i, g in enumerate(self.groups) for s in range(len(g.index))]


def _stripe_sum(parts) -> np.ndarray:
    """Sum over stripes of per-group (S, ...) terms, with the bits of adding
    them to zeros in stripe order (a reduction would pair them up)."""
    return np.cumsum(np.concatenate([np.zeros_like(parts[0][:1])] + parts), axis=0)[-1]


# ---------------------------------------------------------------------------
# Batched geometry and response factors
# ---------------------------------------------------------------------------


def _mirror_images(ws: _Workspace, positions: np.ndarray) -> np.ndarray:
    """Mirror images (B, W, 3) of UE ``positions`` (B, 3) in every wall."""
    images = [mirror_ue(positions, wall) for wall in ws.walls]
    return np.stack(images, axis=1) if images else np.empty((len(positions), 0, 3))


def _path_geometry(g: _Group, positions: np.ndarray, images, sp_positions=None):
    """Angles of arrival and geometric delays (S, B, L) of every path to the
    group's stripes from UE ``positions`` (B, 3), through one (S, B, L, 3)
    stack of arrival points in path order: the UE (LoS), its ``images``
    (``_mirror_images``) in each wall but the stripe's own (seen from the
    stripe along the reflected ray), then the scatterers ``sp_positions``
    (J, 3) or (B, J, 3), whose delays add the UE leg.  The angles are
    ``geometry.aoa`` batched, with numpy's arctan2."""
    W = g.walls.shape[1]
    J = 0 if sp_positions is None else np.shape(sp_positions)[-2]
    rel = np.empty((len(g.index), len(positions), 1 + W + J, 3))
    rel[:, :, 0] = positions
    rel[:, :, 1 : 1 + W] = images[:, g.walls].swapaxes(0, 1)
    if J:
        rel[:, :, 1 + W :] = sp_positions
    rel -= g.centers
    dists = np.linalg.norm(rel, axis=-1)
    if J:
        dists[..., 1 + W :] += np.linalg.norm(sp_positions - positions[:, None, :], axis=-1)
    local = rel @ g.rots
    thetas = wrap_angle(0.5 * np.pi - np.arctan2(local[..., 1], local[..., 0]))
    return thetas, dists / SPEED_OF_LIGHT


def _gram_cross(u, a, zt):
    """Batched response Gram H[i,j] = c_i'^H c_j' and data cross q[l] = c_l'^H y'.

    The Kronecker structure factors every inner product into a frequency part
    and an antenna part, so the MK-long columns are never materialized.
    ``zt`` is the whitened observation as K x M.
    """
    uc, ac = u.conj(), a.conj()
    H = (uc @ np.swapaxes(u, -1, -2)) * (ac @ np.swapaxes(a, -1, -2))
    q = np.sum((uc @ zt) * ac, axis=-1)
    return H, q


def _cholesky_members(H):
    """Cholesky factors of a (B, L, L) Hermitian stack and which members
    factored.  numpy raises for the whole stack when one member is not
    positive definite, so a failing stack is halved until its failures are
    isolated; a failed member gets the identity as its factor."""
    try:
        return np.linalg.cholesky(H), np.ones(len(H), bool)
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.eye(H.shape[-1], dtype=H.dtype)[None], np.zeros(1, bool)
        half = len(H) // 2
        (C0, ok0), (C1, ok1) = _cholesky_members(H[:half]), _cholesky_members(H[half:])
        return np.concatenate([C0, C1]), np.concatenate([ok0, ok1])


def _certified_inverse_factors(H):
    """Inverse Cholesky factors L^-1 of a (B, L, L) Hermitian stack H = L L^H
    and which members are certified full-rank: factored, with
    1/||L^-1||_F^2 = 1/tr H^-1 > _RANK_RTOL tr H (see ``_solve_psd``)."""
    C, ok = _cholesky_members(H)
    Ci = np.linalg.inv(C)
    trace = np.real(np.trace(H, axis1=-2, axis2=-1))
    ok &= np.sum(np.abs(Ci) ** 2, axis=(-2, -1)) * (_RANK_RTOL * trace) < 1.0
    return Ci, ok


def _solve_psd(H, rhs):
    """Minimum-norm solve x = H^+ rhs of batched Hermitian PSD systems, and
    the column v = H^-1 e_0 (``_pinned_gains``).  Returns (x, v, rank,
    certified).

    Each member is factored H = L L^H and certified when 1/||L^-1||_F^2 >
    _RANK_RTOL tr H: since ||L^-1||_F^2 = tr H^-1, that proves its smallest
    eigenvalue exceeds _RANK_RTOL of its largest, so the truncated solve of
    ``_eigh_solve`` would drop nothing, and x = L^-H L^-1 rhs, v = L^-H L^-1
    e_0 at full rank.  Members that fail to factor or to certify, where
    response columns (nearly) collide, go through ``_eigh_solve``.
    """
    shape = H.shape
    H = H.reshape((-1,) + shape[-2:])
    rhs = rhs.reshape(H.shape[:-1])
    Ci, ok = _certified_inverse_factors(H)
    Cih = np.swapaxes(Ci.conj(), -1, -2)
    x = (Cih @ (Ci @ rhs[..., None]))[..., 0]
    v = (Cih @ Ci[..., :1])[..., 0]
    rank = np.full(len(H), shape[-1])
    fallback = ~ok
    if fallback.any():
        x[fallback], v[fallback], rank[fallback] = _eigh_solve(H[fallback], rhs[fallback])
    return (x.reshape(shape[:-1]), v.reshape(shape[:-1]), rank.reshape(shape[:-2]),
            ok.reshape(shape[:-2]))


def _eigh_solve(H, rhs):
    """``_solve_psd`` by the eigendecomposition H = V W V^H, for members that
    may be rank-deficient; v = H^-1 e_0 comes from the same decomposition
    (V^H e_0 is the conjugated first row of V).

    Eigenvalues below _RANK_RTOL of the per-matrix maximum are truncated in
    x, which keeps least-squares residuals nonnegative when response columns
    (nearly) collide.  In v they are raised to that cutoff instead, so a
    first column inside the span of the others makes v_0 huge rather than
    dropping it (see ``_pinned_gains``).  Returns (x, v, rank).
    """
    w, V = np.linalg.eigh(H)
    wmax = np.maximum(w[..., -1:], 0.0)
    keep = w > _RANK_RTOL * wmax
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    coef = np.einsum("...ij,...i->...j", V.conj(), rhs) * inv
    x = np.einsum("...ij,...j->...i", V, coef)
    v = np.einsum("...ij,...j->...i", V, V[..., 0, :].conj() / np.maximum(w, _RANK_RTOL * wmax))
    return x, v, keep.sum(axis=-1)


def _stripe_model(ws: _Workspace, g: _Group, positions, dtaus, sp_positions=None, images=None):
    """The response model of a group's stripes at batched candidates.

    ``positions`` (B, 3) with clock offsets ``dtaus`` (B,) give the path
    angles and delays (``_path_geometry``: LoS, wall reflections from the
    mirror ``images``, made here when None, then the scatterers at
    ``sp_positions`` (J, 3), or (B, J, 3) per candidate), then
    the whitened Kronecker factors u (S, B, L, K) and a (S, B, L, M) from
    the signal layer's ``whitened_response_parts``, the same model the
    bounds and the synthesis use.  Returns (u, a, tau_los) with tau_los the
    geometric LoS delay (S, B).  All S stripes' factors are held at once, so
    a scan counts its chunks in (candidate, stripe) rows (``_scan``).
    """
    if images is None:
        images = _mirror_images(ws, positions)
    thetas, delays = _path_geometry(g, positions, images, sp_positions)
    u, a = whitened_response_parts(thetas, delays + dtaus[..., None], ws.waveform,
                                   g.stripe, g.disturbance)
    return u, a, delays[..., 0]


def _require_full_rank(n: int, H, rank) -> None:
    """Raise RankDeficient when stripe ``n``'s path responses collide, read
    from the complex Gram ``H`` and its rank: the phase-pinned basis (one real
    LoS column, a (c', jc') pair per other path) is rank-deficient exactly
    when the complex columns are linearly dependent."""
    if int(rank) < H.shape[-1]:
        w = np.linalg.eigvalsh(H)
        raise RankDeficient(
            f"stripe {n}: path responses are linearly dependent "
            f"(rank {int(rank)}/{H.shape[-1]}, extreme eigenvalues "
            f"{w[0]:.3e}/{w[-1]:.3e})"
        )


def _residuals(ws: _Workspace, fits, gains) -> np.ndarray:
    """Whitened residuals y' - sum_l g_l c_l' of all stripes (per-group fits
    with factors and gains (S, B, L)) as one real vector per candidate,
    stripe-major; its squared norm is the exact cost."""
    r = []
    for g, fit, gain in zip(ws.groups, fits, gains):
        m = np.einsum("...l,...lk,...lm->...km", gain, fit.u, fit.a)
        r.append((g.zt - m).swapaxes(0, 1).reshape(m.shape[1:-2] + (-1,)))
    return (r[0] if len(r) == 1 else np.concatenate(r, axis=-1)).view(float)


# ---------------------------------------------------------------------------
# Candidate-parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WantedParams:
    """Candidate wanted-parameter set: UE position, offsets, scatterer positions."""

    position: np.ndarray
    clock_offset: float
    phase_offset: float
    sp_positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, float).reshape(3))
        object.__setattr__(
            self, "sp_positions", np.asarray(self.sp_positions, float).reshape(-1, 3)
        )


@dataclass(frozen=True)
class EstimateReport:
    """One stage's estimate of the wanted parameters plus diagnostics:
    ``cost`` is the stage's residual cost at these parameters, ``amplitudes``
    each stripe's fitted path gains, LoS first (None for NST)."""

    stage: str
    ue_position: np.ndarray
    clock_offset: float
    phase_offset: float
    sp_positions: np.ndarray
    amplitudes: Optional[tuple]
    cost: float
    cost_trace: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "ue_position", np.asarray(self.ue_position, float).reshape(3)
        )
        object.__setattr__(
            self, "sp_positions", np.asarray(self.sp_positions, float).reshape(-1, 3)
        )
        object.__setattr__(self, "phase_offset", wrap_angle(float(self.phase_offset)))


# ---------------------------------------------------------------------------
# Search configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Position-search settings.

    ``step`` defaults to a quarter wavelength; ``box`` (one (lo, hi) pair
    per searched axis) defaults to the room footprint inferred from
    axis-aligned walls (falling back to the stripe bounding box padded by a
    meter); either is shrunk by 0.3 m per side.  In 3-D mode the default
    grid gains a z axis over 0.3-2.2 m, so an explicit box is advisable
    there.

    The coherent cost oscillates on the wavelength scale with basins only a
    fraction of a wavelength wide, far narrower than any affordable full-room
    grid, so the coarse grid at ``step`` is scored by the smooth noncoherent
    cost only.  Its narrowest lobe, the smaller of the delay resolution c/B
    and a stripe's angular lobe lambda r / (M d) at the grid's closest
    approach r, sets a stride k that samples it at least 4 times: every k-th
    grid coordinate per axis is scored, then every grid point within k steps
    of that sub-grid's best cell (k = 1, the whole grid, when ``step`` is
    coarse or a stripe is near).  A Levenberg-Marquardt refinement of the
    noncoherent residual from its minimum gives the noncoherent estimate and
    its Fisher covariance (2 J^T J)^-1.  A fine grid (step lambda/40,
    lambda/12 in 3-D) around the coarse minimum, reaching at most
    ``fine_span_wavelengths`` wavelengths out per axis, is scored
    coherently: only its points within 6 standard deviations, and at
    least half a wavelength, per axis of the noncoherent estimate (whose
    error is mostly bias from the scatterers it leaves out, so the window
    cannot shrink with the noise), or all of them when the covariance is
    unusable (the refine kept its start, or 2 J^T J is singular or not
    finite).  Only the pin of the direct path's phase ripples at the
    wavelength, so the fine points' free-gain costs, direct-path gains and
    pinning terms are fitted on a sub-lattice of about 30 samples per
    narrowest lobe and upsampled, the pin computed at every point (every
    point is fitted when a wall plane meets the lattice, or a sub-lattice
    fit is not certified full-rank).  The coherent residual is then refined
    from the ``n_starts`` best fine cells at least half a wavelength apart,
    as one batch, the best of them scored exactly.  Every refine takes at
    most ``refine_maxiter`` solver steps.  A ``step`` not above zero, a
    negative span or ``refine_maxiter``, or no starts raise ValueError.
    """

    step: Optional[float] = None
    box: Optional[tuple] = None
    refine_maxiter: int = 600
    fine_span_wavelengths: float = 2.0
    n_starts: int = 3

    def __post_init__(self):
        if self.step is not None and not self.step > 0.0:
            raise ValueError("step must be positive")
        if not self.fine_span_wavelengths >= 0.0:
            raise ValueError("fine_span_wavelengths must be >= 0")
        if self.refine_maxiter < 0:
            raise ValueError("refine_maxiter must be >= 0")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass(frozen=True)
class NstConfig:
    """Scatterer-search settings.

    ``step`` is the spacing of the 3-D grid over the room footprint (shrunk
    by 0.3 m) and z in 0.2-2.6 m; dips are picked at least three steps apart
    and refined, as one batch, by at most ``refine_maxiter`` solver steps.
    A ``step`` not above zero or a negative ``refine_maxiter`` raise
    ValueError.
    """

    step: float = 0.25
    refine_maxiter: int = 200

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.refine_maxiter < 0:
            raise ValueError("refine_maxiter must be >= 0")


def _axis_aligned_box(ws: _Workspace) -> list:
    """Room footprint from axis-aligned walls, else padded stripe extent."""
    centers = np.array([s.phase_center for s in ws.stripes])
    lo = centers.min(axis=0) - 1.0
    hi = centers.max(axis=0) + 1.0
    for wall in ws.walls:
        n = wall.normal
        for ax in range(2):
            if abs(n[ax]) > 1.0 - 1e-9:
                if n[ax] > 0:
                    lo[ax] = max(lo[ax], wall.point[ax])
                else:
                    hi[ax] = min(hi[ax], wall.point[ax])
    return [(float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1]))]


def _grid_1d(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step)) + 1
    if n < 1:
        return np.empty(0)
    return lo + step * np.arange(n)


def _mesh(axes, height) -> np.ndarray:
    """Points of the grid spanned by per-axis coordinates; two axes sit at ``height``."""
    cols = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    if len(cols) == 2:
        cols.append(np.full(cols[0].size, height))
    return np.column_stack(cols)


def _box_axes(ws: _Workspace, step: float, box, z_range) -> list:
    """Per-axis coordinates at ``step`` over ``box`` shrunk by ``_WALL_MARGIN`` per side.

    A box gives one (lo, hi) pair per searched axis, D of them (ValueError
    otherwise).  Without a box the room footprint is used, plus an unshrunk
    z axis over ``z_range``; ``z_range=None`` asks for x and y only, the grid
    sitting at the known UE height.
    """
    extra = []
    if box is None:
        box = _axis_aligned_box(ws)
        if z_range is not None:
            extra = [_grid_1d(z_range[0], z_range[1], step)]
    elif len(box) != ws.D:
        raise ValueError(f"search box has {len(box)} (lo, hi) pairs; D = {ws.D} needs {ws.D}")
    axes = [_grid_1d(lo + _WALL_MARGIN, hi - _WALL_MARGIN, step) for lo, hi in box] + extra
    if any(ax.size == 0 for ax in axes):
        raise SearchFailure("empty search grid; widen the box")
    return axes


def _decimation(ws: _Workspace, axes, step: float, samples: int = _COARSE_SAMPLES) -> int:
    """Stride k of a sub-lattice over the ``step`` lattice ``axes``: the
    narrowest noncoherent lobe over the grid, the smaller of the delay
    resolution c/B and each stripe's angular lobe lambda r / (M d) at its
    closest approach r to the grid, is sampled at least ``samples`` times."""
    wf = ws.waveform
    centers = np.array([s.phase_center for s in ws.stripes])
    near = centers.copy()
    if len(axes) == 2:
        near[:, 2] = ws.known_height
    near[:, : len(axes)] = np.clip(
        centers[:, : len(axes)], [ax[0] for ax in axes], [ax[-1] for ax in axes]
    )
    apertures = np.array([s.num_antennas * s.spacing for s in ws.stripes])
    lobes = wf.wavelength * np.linalg.norm(near - centers, axis=1) / apertures
    width = min(SPEED_OF_LIGHT / wf.bandwidth, float(lobes.min()))
    return max(1, int(width // (samples * step)))


# ---------------------------------------------------------------------------
# Coarse clock offset (delay-domain peak)
# ---------------------------------------------------------------------------


def _clock_tie(obs):
    """Map from candidate positions (B, 3) to the clock offsets they imply:
    ``coarse_clock_offset`` batched, its delay peaks found once per stripe by
    a 16-times zero-padded IFFT."""
    wf = obs.scenario.waveform
    n_fft = 16 * wf.K
    taus = np.empty(len(obs))
    for n in range(len(obs)):
        spect = np.fft.ifft(obs.observations[n].Y.T, n=n_fft, axis=0)
        power = np.sum(np.abs(spect) ** 2, axis=1)
        taus[n] = int(np.argmax(power)) / (n_fft * wf.delta_f)
    period = 1.0 / wf.delta_f
    centers = np.array([s.phase_center for s in obs.scenario.stripes])

    def tie(points):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=-1)
        offsets = (taus[None, :] - dists / SPEED_OF_LIGHT) % period
        # the offsets live on a circle (the observation is exactly periodic in
        # the clock offset), so they are averaged as phases; a linear mean
        # would wreck cases where quantization scatters stripes across the wrap
        phases = np.exp(2j * np.pi * offsets / period)
        return (period / _TWO_PI) * np.angle(phases.mean(axis=-1)) % period

    return tie


def coarse_clock_offset(p, obs) -> float:
    """Clock offset from delay-domain peaks minus geometric delays at ``p``.

    Per stripe, the strongest bin of a 16-times zero-padded IFFT (power
    summed over antennas) estimates the line-of-sight pseudo-delay;
    subtracting the geometric delay to ``p`` and circularly averaging over
    stripes gives the offset in the unambiguous range [0, 1/delta_f).
    """
    return float(_clock_tie(obs)(_positions(p, one=True))[0])


# ---------------------------------------------------------------------------
# Core cost evaluations (batched)
# ---------------------------------------------------------------------------


class _StripeFit(NamedTuple):
    """The free-gain fit of one group's stripes at batched candidates
    (``_ncp_fits``), stripe axis first: Gram ``H``, cross ``q``, geometric
    LoS delay, the factors ``u``/``a`` when kept, the gains H^+ q, v = H^-1
    e_0 (``_solve_psd``), which pinning the LoS phase needs, the rank of H
    and whether its Cholesky solve was certified full-rank."""

    H: np.ndarray
    q: np.ndarray
    tau_los: np.ndarray
    u: Optional[np.ndarray]
    a: Optional[np.ndarray]
    gains: np.ndarray
    v: np.ndarray
    rank: np.ndarray
    certified: np.ndarray


def _ncp_fits(ws: _Workspace, positions, dtaus, sp_positions=None, exact: bool = False):
    """The noncoherent fit of every stripe at batched candidates.

    Per stripe, every LoS and reflected path, and every scatterer path at
    ``sp_positions`` (passed on to ``_stripe_model``), gets a free complex
    gain (``_stripe_model`` -> ``_gram_cross`` -> ``_solve_psd``, which also
    returns v = H^-1 e_0 for ``_pinned_gains``), one call each per group of
    stacked stripes, which share the walls' mirror images.  Returns one fit
    per group.  With one scatterer per candidate, the ``_ncp_cost`` of the
    fits is the NST dip metric (``_dip_costs``, which scores it from one factored
    LoS + reflected fit per stripe).  Only with ``exact`` do the fits keep
    their response factors u and a, all stripes at once, so that is meant
    for a handful of candidates, not a scan chunk.
    """
    images = _mirror_images(ws, positions)
    fits = []
    for g in ws.groups:
        u, a, tau_los = _stripe_model(ws, g, positions, dtaus, sp_positions, images)
        H, q = _gram_cross(u, a, g.zt)
        factors = (u, a) if exact else (None, None)
        fits.append(_StripeFit(H, q, tau_los, *factors, *_solve_psd(H, q)))
    return fits


def _los_sum(ws: _Workspace, g0, tau_los) -> np.ndarray:
    """Sum over stripes of the LoS gains ``g0`` derotated by their geometric
    carrier phases, from per-group (S, B) gains and LoS delays: it points
    along the common phase offset."""
    fc = ws.waveform.fc
    return _stripe_sum([g * np.exp(1j * _TWO_PI * fc * t) for g, t in zip(g0, tau_los)])


def _free_costs(ws: _Workspace, fits) -> list:
    """Each group's per-stripe free-gain costs (S, B) of ``_ncp_fits`` fits:
    ||y'||^2 minus the explained energy Re{q^H x}, not floored."""
    return [g.ynorm2 - np.real(np.einsum("...l,...l->...", f.q.conj(), f.gains))
            for g, f in zip(ws.groups, fits)]


def _ncp_cost(free) -> np.ndarray:
    """Noncoherent cost from each group's free-gain costs (``_free_costs``):
    floored at zero, summed over stripes."""
    return _stripe_sum([np.maximum(c, 0.0) for c in free])


def _pinned_gains(ws: _Workspace, fits, dphi) -> list:
    """Coherent fit: each stripe's free-gain fit with its LoS phase pinned.

    The pin psi is the geometric carrier phase plus the phase offset
    ``dphi``.  Pinning adds one real constraint, Im{e^{-j psi} g_0} = 0, to
    the free-gain least squares of ``_ncp_fits``, so the pinned fit is a
    rank-one correction of it and needs no solve: with v = H^-1 e_0 the cost
    rises by Im{e^{-j psi} g_0}^2 / v_0 (``_coherent_cost``), and the gains
    become g - j e^{j psi} Im{e^{-j psi} g_0} v / v_0.  While the LoS column
    is independent of the other paths' (anywhere off a wall plane) v_0 =
    1/h, h the LoS Schur complement, also with truncation among the other
    paths.  On a wall plane the LoS column equals that wall's reflection,
    the pin constrains nothing, and ``_solve_psd``'s v makes the rise vanish
    and moves the gains along the null direction.  Returns each group's path
    gains (S, B, L), for ``_residuals`` of the fits.
    """
    gains = []
    for fit in fits:
        pin, off = _pin(ws, fit.gains[..., 0], fit.tau_los, dphi)
        gains.append(fit.gains - (1j * pin * off / np.real(fit.v[..., 0]))[..., None] * fit.v)
    return gains


def _pin(ws: _Workspace, g0, tau_los, dphi):
    """The pin e^{j psi}, psi = ``dphi`` minus the geometric carrier phase
    2 pi f_c ``tau_los``, and the LoS gain's offset Im{e^{-j psi} g_0} from it."""
    pin = np.exp(1j * (dphi - _TWO_PI * ws.waveform.fc * tau_los))
    return pin, np.imag(g0 * pin.conj())


def _coherent_cost(ws: _Workspace, free, g0, v0, tau_los) -> np.ndarray:
    """Pinned-phase cost summed over stripes, from each group's free-gain
    parts (S, B): the free cost (``_free_costs``), LoS gain g_0, v_0 and
    geometric LoS delay.  Per stripe it is the free cost plus
    Im{e^{-j psi} g_0}^2 / v_0, floored at zero (``_pinned_gains``), at the
    closed-form phase offset, the phase of the derotated LoS sum."""
    dphi = np.angle(_los_sum(ws, g0, tau_los))
    terms = []
    for c, g, v, t in zip(free, g0, v0, tau_los):
        terms.append(np.maximum(c + _pin(ws, g, t, dphi)[1] ** 2 / v, 0.0))
    return _stripe_sum(terms)


def _point_fit(ws: _Workspace, p, delta_tau, sp_positions=None, dphi=None,
               free: bool = False, strict: bool = False):
    """The amplitude-eliminated fit at a few candidates, which every stage's
    refine minimises: ``_ncp_fits`` at positions ``p`` (B, 3) with clock
    offsets ``delta_tau`` (B,) and the scatterers ``sp_positions`` (J, 3), or
    (B, J, 3) per candidate, rank-checked when ``strict``.  With ``free``
    every path gain is free; otherwise each stripe's LoS phase is pinned
    (``_pinned_gains``) at the phase offsets ``dphi`` (B,), or when that is
    None at their closed-form estimate, the phase of the derotated LoS sum
    (``_los_sum``).  A single candidate may be given unbatched (p (3,),
    scalar offsets).  Returns per candidate: (residuals (B, R) of
    ``_residuals``, those phase offsets (B,), per-stripe gains (B, L),
    derotated LoS sums (B,))."""
    fits = _ncp_fits(ws, _positions(p), np.asarray(delta_tau, float).reshape(-1), sp_positions,
                     exact=True)
    if strict:
        for n, (i, s) in enumerate(ws.slots):
            for H, rank in zip(fits[i].H[s], fits[i].rank[s]):
                _require_full_rank(n, H, rank)
    xi_sum = _los_sum(ws, [f.gains[..., 0] for f in fits], [f.tau_los for f in fits])
    dphi = np.angle(xi_sum) if dphi is None else np.asarray(dphi, float).reshape(-1)
    gains = [fit.gains for fit in fits] if free else _pinned_gains(ws, fits, dphi)
    return _residuals(ws, fits, gains), dphi, [gains[i][s] for i, s in ws.slots], xi_sum


def _positions(p, one: bool = False) -> np.ndarray:
    """Positions (..., 3), with ``one`` exactly one, as (B, 3); ValueError
    naming any other shape, which a reshape would read as other points."""
    p = np.asarray(p, float)
    if p.shape[-1:] != (3,) or (one and p.size != 3):
        what = "one position (3,)" if one else "positions (..., 3)"
        raise ValueError(f"expected {what}, got shape {p.shape}")
    return p.reshape(-1, 3)


# ---------------------------------------------------------------------------
# Contract-level single-point estimators
# ---------------------------------------------------------------------------


def jml_amplitudes(eta_w: WantedParams, obs) -> list:
    """Closed-form per-stripe path gains at a wanted-parameter point.

    The first gain is the line-of-sight one (real amplitude rotated to the
    pinned phase); the rest follow the path order (reflections, then
    scatterers).

    Raises RankDeficient when path responses collide.
    """
    gains = _point_fit(_Workspace(obs), eta_w.position, eta_w.clock_offset, eta_w.sp_positions,
                       eta_w.phase_offset, strict=True)[2]
    return [g[0] for g in gains]


def jml_cost(eta_w: WantedParams, obs) -> float:
    """Amplitude-eliminated likelihood cost at a wanted-parameter point."""
    r = _point_fit(_Workspace(obs), eta_w.position, eta_w.clock_offset, eta_w.sp_positions,
                   eta_w.phase_offset, strict=True)[0][0]
    return float(r @ r)


def rml_ncp_amplitudes_and_cost(p, delta_tau: float, obs):
    """Per-stripe free-gain least squares over LoS + reflected paths.

    Returns (gains list, cost).  This is the noncoherent relaxation: every
    path, the line of sight included, gets an unconstrained complex gain.
    The cost is the exact residual.  Raises RankDeficient when responses collide.
    """
    r, _, gains, _ = _point_fit(_Workspace(obs), _positions(p, one=True), delta_tau, free=True,
                                strict=True)
    return [g[0] for g in gains], float(r[0] @ r[0])


def estimate_phase_offset(p, delta_tau: float, obs) -> float:
    """Phase offset from derotated line-of-sight gains, averaged coherently.

    Each stripe's estimated LoS gain is rotated back by its geometric carrier
    phase at ``p``; the complex sum then points along the common phase
    offset.

    Raises ZeroAggregate when the sum is numerically zero (undefined phase),
    RankDeficient when path responses collide.
    """
    _, dphi, _, total = _point_fit(_Workspace(obs), _positions(p, one=True), delta_tau, free=True,
                                   strict=True)
    if abs(total[0]) < 1e-12:
        raise ZeroAggregate("derotated line-of-sight gains sum to zero")
    return wrap_angle(float(dphi[0]))


# ---------------------------------------------------------------------------
# Position search (grid + local refinement)
# ---------------------------------------------------------------------------


def _lm_refine(residual, X0: np.ndarray, steps: np.ndarray, maxiter: int):
    """Levenberg-Marquardt on r(x0 + steps * s) from B starts ``X0`` (B, n)
    at once; ``residual`` maps candidates (N, n) to residuals (N, R) row by
    row, so each problem takes the path it takes alone.  Each step is one
    residual call at the live problems' trial points, each Jacobian one call
    at the forward-difference points of the problems just moved.  Damping is
    mu I in s: mu_0 = _LM_MU0 max diag(J^T J), then Nielsen's gain-ratio
    update (Madsen, Nielsen & Tingleff 2004, sec. 3.2).  A problem stops
    after ``maxiter`` steps, or when its relative cost change and the
    predicted one, every column's cosine with r, or its step relative to s
    is below _LM_TOL.  Returns (x, f = ||r||^2, steps, residual calls, f0,
    Jacobians dr/dx at x or None).  ``maxiter=0`` evaluates only the starts.
    A LinAlgError of the residual propagates at the starts, and later ends
    the live problems at their last accepted points, without Jacobians."""
    B, n = X0.shape
    nfev = 0

    def model(S, rows):
        nonlocal nfev
        nfev += 1
        return residual(X0[rows] + steps * S)

    def sq(r):  # row by row, as ``jml_cost`` takes a squared norm
        return np.array([row @ row for row in r])

    S = np.zeros((B, n))
    r = model(S, np.arange(B))
    f = sq(r)
    f0 = f.copy()
    Jt, A, g = np.zeros((B, n, r.shape[1])), np.zeros((B, n, n)), np.zeros((B, n))
    mu, nu, nit = np.zeros(B), np.full(B, 2.0), np.zeros(B, int)
    live = np.full(B, maxiter > 0)
    with_jac = live.copy()

    def jacobian(idx):  # at S[idx]; ends the problems whose gradient vanishes
        P = np.repeat(S[idx, None, :], n, axis=1)
        diag = np.arange(n)
        P[:, diag, diag] += _FD_STEP * np.maximum(1.0, np.abs(S[idx]))
        jt = model(P.reshape(-1, n), np.repeat(idx, n)).reshape(len(idx), n, -1) - r[idx, None]
        Jt[idx] = jt = jt / (P[:, diag, diag] - S[idx])[..., None]
        A[idx] = jt @ np.swapaxes(jt, 1, 2)
        g[idx] = (jt @ r[idx, :, None])[..., 0]
        scale = np.sqrt(np.diagonal(A[idx], axis1=1, axis2=2) * f[idx, None])
        live[idx] &= np.max(np.abs(g[idx]) / np.where(scale > 0.0, scale, 1.0), axis=1) > _LM_TOL

    try:
        idx = np.flatnonzero(live)
        if len(idx):
            jacobian(idx)
            mu[idx] = _LM_MU0 * np.diagonal(A[idx], axis1=1, axis2=2).max(axis=1)
        while live.any():
            idx = np.flatnonzero(live)
            h = np.linalg.solve(A[idx] + mu[idx, None, None] * np.eye(n), -g[idx, :, None])[..., 0]
            f_new = sq(r_new := model(S[idx] + h, idx))
            nit[idx] += 1
            pred = np.sum(h * (mu[idx, None] * h - g[idx]), axis=1)
            rho = (f[idx] - f_new) / pred
            stop = (nit[idx] >= maxiter) | (
                (np.abs(f[idx] - f_new) <= _LM_TOL * f[idx]) & (pred <= _LM_TOL * f[idx])
            ) | (np.linalg.norm(h, axis=1) <= _LM_TOL * (np.linalg.norm(S[idx], axis=1) + _LM_TOL))
            ok = rho > 0.0
            acc, rej = idx[ok], idx[~ok]
            S[acc] += h[ok]
            r[acc], f[acc] = r_new[ok], f_new[ok]
            mu[acc] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho[ok] - 1.0) ** 3)
            mu[rej] *= nu[rej]
            nu[acc], nu[rej] = 2.0, 2.0 * nu[rej]
            live[rej] &= ~stop[~ok]
            if len(acc):
                jacobian(acc)  # before the accepted problems can stop
                live[acc] &= ~stop[ok]
    except np.linalg.LinAlgError:
        with_jac &= ~live
    return X0 + steps * S, f, nit, nfev, f0, [J.T / steps if w else None
                                                for J, w in zip(Jt, with_jac)]


def _fisher_sigmas(jac) -> Optional[np.ndarray]:
    """Standard deviations sqrt(diag(Sigma)) of Sigma = (2 J^T J)^-1, the
    Fisher covariance of a residual with Jacobian ``jac`` (for the whitened
    residuals of ``_residuals``, 2 J^T J is the equivalent FIM of the fitted
    parameters).  The information is inverted scaled to unit diagonal; None
    when ``jac`` is None or 2 J^T J is not finite or not positive definite."""
    if jac is None:
        return None
    info = 2.0 * jac.T @ jac
    d = np.sqrt(np.diag(info))
    if not (np.all(np.isfinite(info)) and np.all(d > 0.0)):
        return None
    S = info / np.outer(d, d)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    return np.sqrt(np.diag(np.linalg.inv(S))) / d


def _separated_minima(points, costs, min_sep: float, count: int) -> list:
    """Indices of up to ``count`` lowest costs, best first, ``min_sep`` apart."""
    picked = []
    for idx in np.argsort(costs, kind="stable"):
        if all(np.linalg.norm(points[idx] - points[j]) >= min_sep for j in picked):
            picked.append(int(idx))
            if len(picked) == count:
                break
    return picked


def _chunks(ws: _Workspace, n: int):
    """Slices of ``n`` candidates into scan chunks of ``_CHUNK`` (candidate,
    stripe) rows, ``_CHUNK // N`` candidates each."""
    size = max(1, _CHUNK // len(ws.stripes))
    return [slice(start, start + size) for start in range(0, n, size)]


def _scan_parts(ws: _Workspace, positions, dtaus) -> tuple:
    """``_ncp_fits`` over many candidates in chunks of ``_CHUNK`` (candidate,
    stripe) rows: ``_CHUNK // N`` candidates, every stripe's at once.

    Candidate i is the position ``positions[i]`` with clock offset
    ``dtaus[i]``.  Returns the free-gain parts of every candidate as per-group
    lists of (S, B) arrays: the free costs (``_free_costs``), LoS gains g_0,
    v_0, geometric LoS delays, and whether each fit was certified full-rank.
    """
    parts = [[] for _ in ws.groups]
    for chunk in _chunks(ws, len(positions)):
        fits = _ncp_fits(ws, positions[chunk], dtaus[chunk])
        for part, c, f in zip(parts, _free_costs(ws, fits), fits):
            part.append((c, f.gains[..., 0], np.real(f.v[..., 0]), f.tau_los, f.certified))
        # ``fits`` lives on until the next chunk's replaces it: freeing it
        # here let the C allocator hand each chunk's memory back to the
        # system, and a trial took about 3 times the page faults
    return tuple(zip(*([np.concatenate(x, axis=1) for x in zip(*part)] for part in parts)))


def _scan(ws: _Workspace, positions, dtaus, coherent: bool = False) -> np.ndarray:
    """Each candidate's noncoherent cost (``_ncp_cost``) or, with
    ``coherent``, its pinned-phase cost (``_coherent_cost``), from the parts
    of ``_scan_parts``."""
    free, g0, v0, tau_los, _ = _scan_parts(ws, positions, dtaus)
    if coherent:
        return _coherent_cost(ws, free, g0, v0, tau_los)
    return _ncp_cost(free)


def _coarse_pick(ws: _Workspace, tie, cfg: SearchConfig):
    """Best noncoherent cell of the coarse lattice at ``cfg.step``, as
    (cost, point, clock offset), every point at the clock offset ``tie``
    assigns it.

    The noncoherent cost is smooth on the scale of its narrowest lobe, so
    the sub-lattice of every ``_decimation``-th coordinate per axis is scored
    first, then every lattice point within that stride of its best cell; the
    better of the two wins, the sub-lattice's on a tie.  Each scored point
    is a lattice point, taken from the same per-axis coordinates.
    """
    def pick(axes):
        points = _mesh(axes, ws.known_height)
        dtaus = tie(points)
        costs = _scan(ws, points, dtaus)
        i = int(np.argmin(costs))
        return (float(costs[i]), points[i], float(dtaus[i])), i

    step = cfg.step if cfg.step is not None else ws.waveform.wavelength / 4.0
    axes = _box_axes(ws, step, cfg.box, _Z_RANGE if ws.D == 3 else None)
    k = _decimation(ws, axes, step)
    sub = [ax[::k] for ax in axes]
    best, i = pick(sub)
    if k > 1:
        cell = np.unravel_index(i, [len(ax) for ax in sub])
        near = [ax[max(0, k * j - k) : k * j + k + 1] for ax, j in zip(axes, cell)]
        best = min(best, pick(near)[0], key=lambda b: b[0])
    return best


def _cubic_upsampling(n: int, k: int) -> np.ndarray:
    """Weights (n, J) that upsample values at every k-th of n lattice points,
    from one node before the first point to one at or beyond the last plus
    one more, onto the n points by Keys' (1981) cubic convolution (a = -1/2):
    node values reappear at the nodes, and quadratics are reproduced."""
    m = max(1, -(-(n - 1) // k))  # the first node at or beyond the last point
    t = np.arange(n) / k
    base = np.minimum(np.floor(t), m - 1)
    f = (t - base)[:, None]
    taps = np.hstack([((2.0 - f) * f - 1.0) * f, (3.0 * f - 5.0) * f * f + 2.0,
                      ((4.0 - 3.0 * f) * f + 1.0) * f, (f - 1.0) * f * f]) / 2.0
    W = np.zeros((n, m + 3))
    np.put_along_axis(W, base.astype(int)[:, None] + np.arange(4), taps, axis=1)
    return W


def _upsample(values, mats) -> np.ndarray:
    """Values (S, J_1, ..., J_D) on a node grid, upsampled by the per-axis
    weights ``mats`` (n_i, J_i) as matrix products, flattened to
    (S, n_1 ... n_D) in ``_mesh`` order."""
    for i, W in enumerate(mats, start=1):
        values = np.moveaxis(np.tensordot(W, values, axes=(1, i)), 0, i)
    return values.reshape(len(values), -1)


def _crosses_wall(ws: _Workspace, points) -> bool:
    """Whether a wall plane meets the bounding box of ``points`` (B, 3)."""
    corners = np.array(list(itertools.product(*zip(points.min(axis=0), points.max(axis=0)))))
    sides = [(corners - wall.point) @ wall.normal for wall in ws.walls]
    return any(s.min() <= 0.0 <= s.max() for s in sides)


def _fine_costs(ws: _Workspace, tie, axes, height, step: float):
    """Points of the fine lattice spanned by ``axes`` (at ``height`` in 2-D)
    and their coherent costs, each at the clock offset ``tie`` assigns it,
    the phase offset in closed form.  The costs choose the refine starts.

    Per stripe the coherent cost is the free-gain cost plus
    Im{e^{-j psi} g_0}^2 / v_0 (``_coherent_cost``), and only the pin psi
    varies on the wavelength scale: the free cost, the LoS gain g_0 and v_0
    vary on the scale of the noncoherent lobes.  So only the sub-lattice of
    every k-th coordinate per axis, plus one node beyond each end, is fitted
    (k from ``_decimation`` at ``_FINE_SAMPLES`` per lobe, the clocks tied
    at the nodes), those three parts are upsampled onto the lattice by
    ``_cubic_upsampling`` per axis, and the LoS delays, the closed-form
    phase offset and the pin are computed at every point.  The whole lattice
    is scanned exactly (``_scan``) instead when the sub-lattice is not
    smaller, when a wall plane meets the nodes' hull (there the LoS column
    meets a reflection's and v_0 blows up), or when a node's fit is not
    certified full-rank (``_solve_psd``).
    """
    fine = _mesh(axes, height)
    k = _decimation(ws, axes, step, _FINE_SAMPLES)
    mats = [_cubic_upsampling(len(ax), k) for ax in axes]
    nodes = _mesh([ax[0] + k * step * np.arange(-1, W.shape[1] - 1)
                   for ax, W in zip(axes, mats)], height)
    if len(nodes) < len(fine) and not _crosses_wall(ws, nodes):
        free, g0, v0, _, certified = _scan_parts(ws, nodes, tie(nodes))
        if all(c.all() for c in certified):
            grid = [W.shape[1] for W in mats]
            free, g0, v0 = ([_upsample(x.reshape(len(x), *grid), mats) for x in part]
                            for part in (free, g0, v0))
            tau_los = [np.linalg.norm(fine - g.centers[:, 0], axis=-1) / SPEED_OF_LIGHT
                       for g in ws.groups]
            return fine, _coherent_cost(ws, free, g0, v0, tau_los)
    return fine, _scan(ws, fine, tie(fine), coherent=True)


def _rows(ws: _Workspace, X):
    """``_point_fit``'s (positions (B, 3), clock offsets (B,), scatterers,
    phase offsets) of refine rows X: (p[:D], dtau) rows (B, D + 1) leave the
    scatterers and phase offsets None, (p[:D], dtau, dphi, scatterer
    coordinates) rows (B, D + 2 + 3J) give them as (B, J, 3) and (B,).  In
    2-D mode the positions sit at the known UE height."""
    D = ws.D
    positions = np.empty((len(X), 3))
    positions[:, :D] = X[:, :D]
    if D == 2:
        positions[:, 2] = ws.known_height
    if X.shape[1] == D + 1:
        return positions, X[:, D], None, None
    return positions, X[:, D], X[:, D + 2 :].reshape(len(X), -1, 3), X[:, D + 1]


def _position_steps(ws: _Workspace) -> np.ndarray:
    """Refine scales of (p[:D], dtau): an eighth of a wavelength and of the
    delay resolution 1/B."""
    return np.concatenate([np.full(ws.D, ws.waveform.wavelength / 8.0),
                           [1.0 / (8.0 * ws.waveform.bandwidth)]])


def _refine_report(stage: str, ws: _Workspace, X0, steps, maxiter: int, free: bool = False,
                   strict: bool = False, start_cost: Optional[float] = None):
    """Refine rows X0 (B, n) of the ``_rows`` layout on ``_point_fit``'s
    residual (every path gain free with ``free``) by one batched
    ``_lm_refine``; the lowest final cost wins and is refit once, rank-checked
    when ``strict``, for its phase offset and per-stripe gains.  Returns the
    stage's report, whose ``cost_trace`` is (``start_cost`` or the winner's
    start cost, final cost, its solver steps, model calls of all rows), and
    the winner's Jacobian (or None)."""
    x, f, nit, nfev, f0, jacs = _lm_refine(lambda X: _point_fit(ws, *_rows(ws, X), free=free)[0],
                                           X0, steps, maxiter)
    b = int(np.argmin(f))
    p, dtau, sps, _ = rows = _rows(ws, x[b : b + 1])
    _, dphi, gains, _ = _point_fit(ws, *rows, free=free, strict=strict)
    start = float(f0[b]) if start_cost is None else start_cost
    return EstimateReport(
        stage, p[0], float(dtau[0]), float(dphi[0]), np.empty((0, 3)) if sps is None else sps[0],
        tuple(g[0] for g in gains), float(f[b]), (start, float(f[b]), int(nit[b]), nfev),
    ), jacs[b]


def _position_stage(obs, cfg: Optional[SearchConfig]):
    """Noncoherent pick and refine, then the coherent grid and refine around
    it: the RML-NCP and RML reports."""
    require_cp_sync(obs.scenario)
    if cfg is None:
        cfg = SearchConfig()
    ws = _Workspace(obs)
    lam = ws.waveform.wavelength
    D = ws.D
    tie = _clock_tie(obs)
    _, p_coarse, dt_coarse = _coarse_pick(ws, tie, cfg)

    # noncoherent refine from the coarse cell; its Fisher covariance says how
    # far from it the coherent basin can lie
    steps = _position_steps(ws)
    ncp_report, jac = _refine_report("RML-NCP", ws, np.append(p_coarse[:D], dt_coarse)[None],
                                     steps, cfg.refine_maxiter, free=True, strict=True)

    # fine coherent pass: the coherent basins are narrower than the coarse
    # step, so resolve them before refining.  The lattice around the coarse
    # cell reaches the configured span; only its points within
    # max(6 sigma, lambda/2) per axis of the refined point are scored, all
    # of them without a usable covariance or when that window misses the
    # lattice.  The fit leaves the scatterers out, so its error is mostly a
    # bias that does not shrink with sigma: on the estimation scene about
    # lambda/6 in x, 3 sigma at 20 dB but 9 sigma at 30 dB, where a 6-sigma
    # window leaves out the lattice's best cell; the lambda/2 floor keeps
    # the bias inside at any SDNR.  The lattice is not re-centred: the
    # clock-tied coherent cost of a competing lobe can have a valley
    # narrower than the step, and a sub-step shift changes which lobe wins.
    # The window's free-gain costs, LoS gains and v_0 are fitted on a
    # sub-lattice and upsampled, the pin is computed at every point, and the
    # window is scanned exactly near a wall plane or an uncertified node fit
    # (``_fine_costs``)
    fine_step = lam / 40.0 if D == 2 else lam / 12.0
    span = cfg.fine_span_wavelengths * lam
    offsets = np.arange(-span, span + 0.5 * fine_step, fine_step)
    axes = [c + offsets for c in p_coarse[:D]]
    sigmas = _fisher_sigmas(jac)
    if sigmas is not None:
        half = np.maximum(6.0 * sigmas[:D], 0.5 * lam)
        near = [np.abs(ax - c) <= h for ax, c, h in zip(axes, ncp_report.ue_position, half)]
        axes = [ax[m] if m.any() else ax for ax, m in zip(axes, near)]
    fine, fine_cp = _fine_costs(ws, tie, axes, p_coarse[2], fine_step)

    # refinement starts: best fine cells at least half a wavelength apart,
    # guarding against the true basin being narrowly outscored by a
    # sidelobe; the best one is scored exactly, as the RML start cost
    starts = fine[_separated_minima(fine, fine_cp, 0.5 * lam, cfg.n_starts)]
    start_dtau = tie(starts)
    start_cost = float(_scan(ws, starts[:1], start_dtau[:1], coherent=True)[0])

    # coherent stage: local refinement of (p, dtau) from every start at once,
    # best wins
    rml_report, _ = _refine_report("RML", ws, np.column_stack([starts[:, :D], start_dtau]),
                                   steps, cfg.refine_maxiter, start_cost=start_cost)
    return ncp_report, rml_report


def rml_position_search(obs, config: Optional[SearchConfig] = None) -> EstimateReport:
    """Position and clock offset by grid search plus coherent refinement,
    as ``SearchConfig`` describes: the noncoherent coarse pick and refine,
    the fine coherent grid around it (the phase offset re-estimated in closed
    form per cell), then a Levenberg-Marquardt refinement of (position, clock
    offset) on the amplitude-eliminated residual from its best cells at
    once.  Every cell's clock offset is tied to it through the delay-domain
    peaks.  ``cost_trace`` is (best fine-cell cost, final cost, the best
    start's solver steps, model calls of all starts together); the result
    never ends above that cell's cost.  Raises SemanticError under
    ``sync_mode=ncp``.
    """
    return _position_stage(obs, config)[1]


def cp_cost_slice(obs, positions, delta_tau: float) -> np.ndarray:
    """Coherent cost along an arbitrary set of positions at fixed clock offset.

    Exposes the oscillatory structure of the phase-coherent cost (wavelength
    -scale lobes) for diagnostics; the phase offset is re-estimated per point
    exactly as the search does.
    """
    pts = _positions(positions)
    return _scan(_Workspace(obs), pts, np.full(len(pts), float(delta_tau)), coherent=True)


# ---------------------------------------------------------------------------
# Null-space scatterer mapping
# ---------------------------------------------------------------------------


def _require_null_space(ws: _Workspace) -> None:
    """Raise KernelEmpty when a stripe's LoS+RP paths leave no null space (MK <= L)."""
    for n, stripe in enumerate(ws.stripes):
        mk = stripe.num_antennas * ws.waveform.K
        n_paths = 1 + len(reflecting_walls(ws.walls, stripe))
        if mk <= n_paths:
            raise KernelEmpty(
                f"stripe {n}: observation dimension {mk} does not exceed "
                f"path count {n_paths}"
            )


def _dip_costs(ws: _Workspace, p_hat, delta_tau: float, cands) -> np.ndarray:
    """NST dip metric of scatterer candidates ``cands`` (B, 3) at the
    plugged-in UE position ``p_hat`` (3,) and clock offset ``delta_tau``:
    ``_ncp_cost`` of the joint free-gain fit of LoS + RP + one candidate.

    By the Frisch-Waugh-Lovell identity the residual of that joint fit is the
    null-space residual, the data and the candidate column c both projected
    off the fixed LoS + RP span C0.  So per chunk one ``_stripe_model`` call
    per group of stripes, with p_hat the single position and the
    candidates its scatterers, gives each stripe's C0 and every c; the fixed Gram
    H0 = C0^H C0 is Cholesky-factored and x0 = H0^-1 q0 solved once, and a
    candidate costs only its cross terms h = C0^H c, its energy ||c||^2, its
    data cross q_s = c^H y', w = H0^-1 h and the Schur complement
    s = ||c||^2 - Re{h^H w}.  The stripe's cost is
    max(||y'||^2 - Re{q0^H x0} - |q_s - w^H q0|^2 / s, 0).

    ``_solve_psd``'s certification of the joint Gram H is evaluated per
    candidate through tr H^-1 = tr H0^-1 + (1 + ||w||^2) / s.  A candidate
    that fails it on any stripe, and every candidate when H0 fails to factor
    or to certify on a stripe, is scored by the unfactored ``_ncp_fits``
    instead.  Chunks are ``_scan``'s, ``_CHUNK // N`` candidates each.
    """
    p = np.asarray(p_hat, float).reshape(1, 3)
    dtaus = np.array([float(delta_tau)])
    images = _mirror_images(ws, p)
    costs = []
    for chunk in _chunks(ws, len(cands)):
        sps = cands[chunk]
        terms = []
        ok = np.ones(len(sps), bool)
        for g in ws.groups:
            u, a, _ = _stripe_model(ws, g, p, dtaus, sps, images)
            (u0, uc), (a0, ac) = (np.split(f[:, 0], [-len(sps)], axis=1) for f in (u, a))
            H0, q0 = _gram_cross(u0, a0, g.zt[:, 0])
            Ci, certified = _certified_inverse_factors(H0)
            ok &= certified.all()
            H0i = np.swapaxes(Ci.conj(), -1, -2) @ Ci
            # per-candidate products as stacked (S, B, 1, .) rows, each too
            # small for BLAS to thread: a flat complex (B, K) @ (K, M) product
            # was measured at 8 ms against 0.09 ms single-threaded on a loaded
            # 2-core machine, while the stacked rows never took over 0.6 ms
            h = ((uc[:, :, None, :] @ np.swapaxes(u0.conj(), -1, -2)[:, None])
                 * (ac[:, :, None, :] @ np.swapaxes(a0.conj(), -1, -2)[:, None]))[:, :, 0]
            qs = np.sum((uc.conj()[:, :, None, :] @ g.zt)[:, :, 0] * ac.conj(), axis=-1)
            cc = np.sum(np.abs(uc) ** 2, axis=-1) * np.sum(np.abs(ac) ** 2, axis=-1)
            w = (h[:, :, None, :] @ np.swapaxes(H0i, -1, -2)[:, None])[:, :, 0]
            s = cc - np.real(np.sum(h.conj() * w, axis=-1))
            gq = qs - (w.conj()[:, :, None, :] @ q0[:, None, :, None])[:, :, 0, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                tr = np.sum(np.abs(Ci) ** 2, axis=(-2, -1))[:, None] + (
                    1.0 + np.sum(np.abs(w) ** 2, axis=-1)) / s
                trace = np.real(np.trace(H0, axis1=-2, axis2=-1))[:, None]
                ok &= np.all((s > 0.0) & (tr * (_RANK_RTOL * (trace + cc)) < 1.0), axis=0)
                x0 = H0i @ q0[..., None]
                explained = np.real(q0.conj()[:, None, :] @ x0)[:, :, 0] + np.abs(gq) ** 2 / s
            terms.append(np.maximum(g.ynorm2 - explained, 0.0))
        cost = _stripe_sum(terms)
        if not ok.all():
            fail = ~ok
            m = int(fail.sum())
            fits = _ncp_fits(ws, np.broadcast_to(p, (m, 3)), np.full(m, dtaus[0]),
                             sps[fail][:, None, :])
            cost[fail] = _ncp_cost(_free_costs(ws, fits))
        costs.append(cost)
    return np.concatenate(costs)


def nst_kernels(obs, p_hat, delta_tau_hat: float) -> list:
    """Orthonormal null-space bases of the per-stripe LoS+RP response span.

    Raises KernelEmpty when a stripe has no null space (MK <= L).
    """
    ws = _Workspace(obs)
    _require_null_space(ws)
    positions = np.asarray(p_hat, float).reshape(1, 3)
    dtaus = np.array([float(delta_tau_hat)])
    factors = [_stripe_model(ws, g, positions, dtaus)[:2] for g in ws.groups]
    return [_null_space(kron_rows(factors[i][0][s, 0], factors[i][1][s, 0]).conj())
            for i, s in ws.slots]


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``A`` from its full SVD; singular
    values at or below max(s) * eps * max(A.shape) count as zero."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(A.shape)
    return vh[int(np.sum(s > tol)):].T.conj()


def nst_map_scatterers(
    obs,
    p_hat,
    delta_tau_hat: float,
    delta_phi_hat: float = 0.0,
    config: Optional[NstConfig] = None,
) -> list:
    """Scatterer positions from dips of the null-space residual.

    Per stripe, the LoS+RP responses at the plugged-in (position, clock
    offset) are projected out of the observation, and a candidate scatterer
    response with a free gain is fitted to what remains, over a 3-D grid;
    as many well-separated dips as the scenario has scatterers (a known
    count) are returned, each locally refined, or none without a scan.  The
    grid is scored by ``_dip_costs``: the fixed LoS + RP fit is factored once
    per stripe, and each candidate is scored by its Schur complement against
    it, which by the Frisch-Waugh-Lovell identity gives the null-space
    residual.  The dips are refined together, each on the residual of the
    joint free-gain fit of LoS + RP + that candidate (``_point_fit``), by
    one batched ``_lm_refine``.  The phase offset argument
    completes the plugged-in estimate set but drops out of the dip metric
    (per-stripe scatterer gains are free complex).

    Raises KernelEmpty when the null space is empty, SearchFailure when the
    grid is empty.
    """
    if config is None:
        config = NstConfig()
    J = len(obs.scenario.scatterers)
    if J == 0:
        return []
    ws = _Workspace(obs)
    _require_null_space(ws)
    p_hat = np.asarray(p_hat, float).reshape(3)

    axes = _box_axes(ws, config.step, None, _NST_Z_RANGE)
    cands = _mesh(axes, ws.known_height)
    costs = _dip_costs(ws, p_hat, delta_tau_hat, cands)
    picked = _separated_minima(cands, costs, _NST_EXCLUSION_STEPS * config.step, J)
    if len(picked) < J:
        raise SearchFailure(
            f"found only {len(picked)} separated dips for {J} scatterers"
        )

    x = _lm_refine(lambda X: _point_fit(ws, np.broadcast_to(p_hat, X.shape),
                                        np.full(len(X), float(delta_tau_hat)),
                                        X[:, None, :], free=True)[0],
                   cands[picked], np.full(3, config.step / 2.0), config.refine_maxiter)[0]
    return list(x)


# ---------------------------------------------------------------------------
# Joint refinement and the full pipeline
# ---------------------------------------------------------------------------


def jml_refine(initial: EstimateReport, obs, maxiter: int = 2000) -> EstimateReport:
    """Joint refinement of all wanted parameters from a pipeline initialization.

    Levenberg-Marquardt on the amplitude-eliminated residual over position,
    clock and phase offsets and scatterer positions, for at most ``maxiter``
    steps; the returned cost never exceeds the initial one.  ``cost_trace``
    is (initial cost, final cost, solver steps, model calls): each step is
    one model call and each accepted step's Jacobian one more
    (``_lm_refine``).  Raises SemanticError under ``sync_mode=ncp``.
    """
    require_cp_sync(obs.scenario)
    ws = _Workspace(obs)
    x0 = np.concatenate([initial.ue_position[: ws.D], [initial.clock_offset, initial.phase_offset],
                         initial.sp_positions.ravel()])
    steps = np.concatenate([_position_steps(ws), [0.1],
                            np.full(initial.sp_positions.size, ws.waveform.wavelength / 8.0)])
    return _refine_report("JML", ws, x0[None], steps, maxiter)[0]


def run_pipeline(
    obs,
    search: Optional[SearchConfig] = None,
    nst: Optional[NstConfig] = None,
    jml_maxiter: int = 2000,
) -> tuple:
    """Full estimation chain; returns one report per stage, in running order.

    Stages: noncoherent grid pick and refinement, coherent search with
    refinement, null-space scatterer mapping at the coherent estimates, then
    joint least-squares refinement of everything from the NST report.  Each
    stage consumes only measured data and earlier outputs.  Raises
    SemanticError under ncp sync.
    """
    ncp_report, rml_report = _position_stage(obs, search)
    sps = nst_map_scatterers(
        obs,
        rml_report.ue_position,
        rml_report.clock_offset,
        rml_report.phase_offset,
        config=nst,
    )
    nst_report = dataclasses.replace(rml_report, stage="NST", amplitudes=None, cost_trace=(),
                                     sp_positions=np.array(sps).reshape(-1, 3))
    jml_report = jml_refine(nst_report, obs, maxiter=jml_maxiter)
    # JML's start is the NST estimate, so its start cost is NST's own cost
    nst_report = dataclasses.replace(nst_report, cost=jml_report.cost_trace[0])
    return ncp_report, rml_report, nst_report, jml_report
