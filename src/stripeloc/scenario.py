"""Scenario container, JSON loader, and bundled configurations.

The config format is JSON with explicit units in field names (``fc_hz``,
``height_m``); antenna spacing may be given symbolically as ``"lambda/2.1"``
and resolves against the carrier. ``sdnr_db``/``dnr_db`` targets are recorded
on the Scenario so that sweep helpers can re-solve the transmit power and
disturbance level when bandwidth or aperture change.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .channel import DmcParams, Material, Scatterer
from .errors import SchemaError, SemanticError
from .fim import SyncMode
from .geometry import Stripe, Wall
from .signal import Waveform, pt_for_sdnr


def rect_room_walls(width: float, depth: float, material_id: str = "default"):
    """Four vertical walls of a width x depth room, inward normals,
    counter-clockwise from the y=0 wall."""
    return (
        Wall((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), material_id),
        Wall((width, 0.0, 0.0), (-1.0, 0.0, 0.0), material_id),
        Wall((0.0, depth, 0.0), (0.0, -1.0, 0.0), material_id),
        Wall((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), material_id),
    )


def _stripes_along_walls(width, depth, height, num_antennas, spacing, offsets):
    """One stripe per wall of ``rect_room_walls``, the i-th ``offsets[i]``
    from its wall's start corner (walls ordered counter-clockwise),
    boresight into the room."""
    u0, u1, u2, u3 = offsets
    specs = [
        ((u0, 0.0, height), 0.0, 0),
        ((width, u1, height), math.pi / 2, 1),
        ((width - u2, depth, height), math.pi, 2),
        ((0.0, depth - u3, height), -math.pi / 2, 3),
    ]
    return tuple(
        Stripe(pc, az, num_antennas, spacing, mounted_wall=w) for pc, az, w in specs
    )


def wall_midpoint_stripes(
    width: float, depth: float, height: float, num_antennas: int, spacing: float
):
    """One stripe centered on each wall, boresight pointing into the room."""
    midpoints = (width / 2, depth / 2, width / 2, depth / 2)
    return _stripes_along_walls(width, depth, height, num_antennas, spacing, midpoints)


def pinwheel_stripes(
    width: float,
    depth: float,
    height: float,
    num_antennas: int,
    spacing: float,
    corner_offset: float,
):
    """One stripe per wall, each the same distance from its wall's start
    corner (walls ordered counter-clockwise), boresight into the room."""
    return _stripes_along_walls(width, depth, height, num_antennas, spacing, (corner_offset,) * 4)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable description of room, stripes, UE, scatterers, and radio."""

    walls: tuple
    stripes: tuple
    materials: dict
    ue_position: np.ndarray
    clock_offset: float
    phase_offsets: np.ndarray
    scatterers: tuple
    waveform: Waveform
    dmc: DmcParams
    transmit_power: float
    e_rs: np.ndarray
    e_ue: np.ndarray
    sync_mode: SyncMode = SyncMode.CP
    D: int = 3
    dnr_db: float | None = None
    sdnr_db: float | None = None
    # disturbance covariances by antenna count, filled by
    # ``signal.make_disturbances``.  A covariance depends only on the DMC
    # statistics, the waveform and the antenna count, all fixed for a
    # scenario, so one build serves every synthesis and bound of it and
    # lives as long as it (about 0.8 GB each at 4096 subcarriers, so no
    # cache outlives its scenario); ``dataclasses.replace`` starts a new one
    disturbance_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "walls", tuple(self.walls))
        object.__setattr__(self, "stripes", tuple(self.stripes))
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        object.__setattr__(
            self, "ue_position", np.asarray(self.ue_position, dtype=float)
        )
        object.__setattr__(
            self, "phase_offsets", np.asarray(self.phase_offsets, dtype=float)
        )
        object.__setattr__(self, "e_rs", np.asarray(self.e_rs, dtype=float))
        object.__setattr__(self, "e_ue", np.asarray(self.e_ue, dtype=float))
        self._validate()

    def _validate(self):
        if not self.stripes:
            raise SemanticError("scenario has no stripes")
        if self.D not in (2, 3):
            raise SemanticError("D must be 2 or 3")
        if self.ue_position.shape != (3,):
            raise SemanticError("ue_position must be a 3-vector")
        if len(self.phase_offsets) != len(self.stripes):
            raise SemanticError(
                f"phase_offsets has {len(self.phase_offsets)} entries for "
                f"{len(self.stripes)} stripes"
            )
        for name, v in (("e_rs", self.e_rs), ("e_ue", self.e_ue)):
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-6:
                raise SemanticError(f"{name} must be a unit 3-vector")
        if self.ue_position[2] <= 0.0:
            raise SemanticError("UE below floor")
        for wall in self.walls:
            if wall.material_id not in self.materials:
                raise SemanticError(f"unknown wall material {wall.material_id!r}")
            if wall.signed_distance(self.ue_position) <= 0.0:
                raise SemanticError("UE outside room hull")
        for i, stripe in enumerate(self.stripes):
            if stripe.phase_center[2] <= 0.0:
                raise SemanticError(f"stripe {i} below floor")
            if stripe.mounted_wall is not None and not (
                0 <= stripe.mounted_wall < len(self.walls)
            ):
                raise SemanticError(f"stripe {i} mounted on nonexistent wall")
            for wall in self.walls:
                if wall.signed_distance(stripe.phase_center) < -1e-9:
                    raise SemanticError(f"stripe {i} outside room hull")
        if not math.isfinite(self.clock_offset):
            raise SemanticError("clock_offset must be finite")
        if self.transmit_power <= 0.0:
            raise SemanticError("transmit_power must be positive")


# ---------------------------------------------------------------------------
# Sweep helpers
# ---------------------------------------------------------------------------


def retune(scenario: Scenario) -> Scenario:
    """Re-solve DMC power and transmit power from the recorded dB targets.

    Call after changing waveform or array size so DNR/SDNR stay at their
    configured values (noise power scales with bandwidth, the whitened LoS
    response with aperture).
    """
    out = scenario
    if out.dnr_db is not None:
        alpha1 = 10.0 ** (out.dnr_db / 10.0) * out.waveform.sigma2
        out = dataclasses.replace(out, dmc=dataclasses.replace(out.dmc, alpha1=alpha1))
    if out.sdnr_db is not None:
        out = dataclasses.replace(
            out, transmit_power=pt_for_sdnr(out.sdnr_db, out)
        )
    return out


def with_bandwidth(scenario: Scenario, bandwidth_hz: float) -> Scenario:
    """Same scenario at a different bandwidth (K fixed, subcarrier spacing
    B/K), with power levels re-solved against the recorded targets."""
    if bandwidth_hz <= 0.0:
        raise SemanticError("bandwidth must be positive")
    wf = dataclasses.replace(
        scenario.waveform, delta_f=bandwidth_hz / scenario.waveform.K
    )
    return retune(dataclasses.replace(scenario, waveform=wf))


def with_antennas(scenario: Scenario, num_antennas: int) -> Scenario:
    """Same scenario with a different per-stripe antenna count."""
    stripes = tuple(
        dataclasses.replace(s, num_antennas=num_antennas) for s in scenario.stripes
    )
    return retune(dataclasses.replace(scenario, stripes=stripes))


def with_sdnr(scenario: Scenario, sdnr_db: float) -> Scenario:
    """Same scenario with the transmit power solved for a new SDNR target."""
    return retune(dataclasses.replace(scenario, sdnr_db=float(sdnr_db)))


# ---------------------------------------------------------------------------
# JSON loader
# ---------------------------------------------------------------------------

_NUMBER = (int, float)
# a sphere's cross section is its optical-region pi r^2 (``Scatterer.rcs``)
# only when it is large against the wavelength: 2 pi r / lambda above this
_OPTICAL_KA = 10.0


def _path(parent: str, key) -> str:
    return f"{parent}.{key}" if parent else str(key)


def _get(node: dict, key: str, parent: str):
    if not isinstance(node, dict):
        raise SchemaError(f"{parent or '<root>'}: expected an object")
    if key not in node:
        raise SchemaError(f"{_path(parent, key)}: missing required field")
    return node[key]


def _finite(v, where: str) -> float:
    """``v`` as a float; SchemaError unless it is a finite number (not a bool)."""
    if isinstance(v, bool) or not isinstance(v, _NUMBER):
        raise SchemaError(f"{where}: expected a number")
    try:
        x = float(v)
    except OverflowError:  # a JSON integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{where}: expected a finite number")
    return x


def _num(node: dict, key: str, parent: str, default: float | None = None) -> float:
    """A finite numeric field (not a bool); ``default``, when given, stands
    in for a missing one."""
    if default is not None and isinstance(node, dict) and key not in node:
        return default
    return _finite(_get(node, key, parent), _path(parent, key))


def _optional(node: dict, key: str, parent: str) -> float | None:
    """A finite numeric field that may be absent (None)."""
    if not isinstance(node, dict):
        raise SchemaError(f"{parent}: expected an object")
    return _num(node, key, parent) if key in node else None


def _int(node: dict, key: str, parent: str) -> int:
    """A count field: an integer (not a bool) in [1, 4096].  The cap keeps
    the model in memory: the disturbance covariance holds four dense K x K
    complex matrices, about 1 GiB at K = 4096."""
    v = _get(node, key, parent)
    where = _path(parent, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: expected an integer")
    _finite(v, where)
    if not 1 <= v <= 4096:
        raise SchemaError(f"{where}: expected an integer in [1, 4096]")
    return v


def _vec3(node: dict, key: str, parent: str) -> np.ndarray:
    v = _get(node, key, parent)
    if (
        not isinstance(v, list)
        or len(v) != 3
        or any(isinstance(x, bool) or not isinstance(x, _NUMBER) for x in v)
    ):
        raise SchemaError(f"{_path(parent, key)}: expected a list of 3 numbers")
    return np.array([_finite(x, _path(parent, key)) for x in v])


def _built(cls, where: str, fields: dict):
    """``cls`` built from file fields {key: (argument, value)} of the object
    at ``where``; a ValueError of its checks becomes a SchemaError naming the
    field whose argument the message names."""
    try:
        return cls(**dict(fields.values()))
    except ValueError as exc:
        key = next((k for k, (arg, _) in fields.items() if arg in str(exc)), None)
        raise SchemaError(f"{where if key is None else _path(where, key)}: {exc}") from None


_LAMBDA_RE = re.compile(r"^lambda(?:\s*/\s*([0-9]*\.?[0-9]+))?$")


def _spacing(value, wavelength: float, where: str) -> float:
    """Spacing in meters, either numeric or symbolic 'lambda/<x>'."""
    if isinstance(value, _NUMBER) and not isinstance(value, bool):
        return _finite(value, where)
    if isinstance(value, str):
        m = _LAMBDA_RE.match(value.strip().lower())
        if m:
            div = float(m.group(1)) if m.group(1) else 1.0
            if div <= 0.0:
                raise SchemaError(f"{where}: zero divisor in symbolic spacing")
            return wavelength / div
    raise SchemaError(f"{where}: expected meters or 'lambda/<x>', got {value!r}")


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    return scenario_from_dict(cfg)


def scenario_from_dict(cfg: dict) -> Scenario:
    wf_node = _get(cfg, "waveform", "")
    waveform = Waveform(
        fc=_num(wf_node, "fc_hz", "waveform"),
        K=_int(wf_node, "subcarriers", "waveform"),
        delta_f=_num(wf_node, "subcarrier_spacing_hz", "waveform"),
        temperature=_num(wf_node, "temperature_k", "waveform", 290.0),
    )

    mats_node = _get(cfg, "materials", "")
    if not isinstance(mats_node, dict) or not mats_node:
        raise SchemaError("materials: expected a non-empty object")
    materials = {}
    for mid, mnode in mats_node.items():
        where = f"materials.{mid}"
        materials[mid] = _built(Material, where, {
            "eps_r": ("eps_r", _num(mnode, "eps_r", where)),
            "mu_r": ("mu_r", _num(mnode, "mu_r", where, 1.0)),
            "sigma_s_per_m": ("sigma", _num(mnode, "sigma_s_per_m", where, 0.0)),
        })

    room = _get(cfg, "room", "")
    width = _num(room, "width_m", "room")
    depth = _num(room, "depth_m", "room")
    wall_material = _get(room, "material", "room")
    if wall_material not in materials:
        raise SemanticError(f"room.material: unknown material {wall_material!r}")
    walls = rect_room_walls(width, depth, wall_material)

    st = _get(cfg, "stripes", "")
    spacing = _spacing(
        _get(st, "spacing_m", "stripes"), waveform.wavelength, "stripes.spacing_m"
    )
    height = _num(st, "height_m", "stripes")
    num_antennas = _int(st, "num_antennas", "stripes")
    placement = st.get("placement", "wall-midpoints")
    if placement == "wall-midpoints":
        stripes = wall_midpoint_stripes(width, depth, height, num_antennas, spacing)
    elif placement == "pinwheel":
        offset = _num(st, "corner_offset_m", "stripes")
        stripes = pinwheel_stripes(width, depth, height, num_antennas, spacing, offset)
    else:
        raise SchemaError(
            f"stripes.placement: expected 'wall-midpoints' or 'pinwheel', got {placement!r}"
        )

    ue = _get(cfg, "ue", "")
    ue_position = _vec3(ue, "position_m", "ue")
    clock_offset = _num(ue, "clock_offset_s", "ue")
    phi = _get(ue, "phase_offset_rad", "ue")
    if isinstance(phi, list):
        phase_offsets = np.array(
            [_finite(x, f"ue.phase_offset_rad[{i}]") for i, x in enumerate(phi)], dtype=float
        )
    elif isinstance(phi, _NUMBER) and not isinstance(phi, bool):
        phase_offsets = np.full(len(stripes), _finite(phi, "ue.phase_offset_rad"))
    else:
        raise SchemaError("ue.phase_offset_rad: expected a number or list")
    e_ue = _vec3(ue, "polarization", "ue")
    e_rs = _vec3(cfg, "rs_polarization", "")

    sc_node = cfg.get("scatterers", [])
    if not isinstance(sc_node, list):
        raise SchemaError("scatterers: expected a list")
    scatterers = []
    for j, s in enumerate(sc_node):
        where = f"scatterers[{j}]"
        scatterers.append(_built(Scatterer, where, {
            "position_m": ("position", _vec3(s, "position_m", where)),
            "radius_m": ("radius", _num(s, "radius_m", where)),
        }))
        ka = 2.0 * math.pi * scatterers[-1].radius / waveform.wavelength
        if ka <= _OPTICAL_KA:
            raise SchemaError(
                f"{where}.radius_m: {scatterers[-1].radius!r} m gives 2 pi r / lambda = "
                f"{ka:.3g}, not above {_OPTICAL_KA:g}: outside the optical region where the "
                "cross section is pi r^2"
            )

    dmc_node = _get(cfg, "dmc", "")
    dnr_db = _optional(dmc_node, "dnr_db", "dmc")
    dmc = _built(DmcParams, "dmc", {
        "power": ("alpha1", _num(dmc_node, "power", "dmc") if dnr_db is None else 0.0),
        "coherence_bandwidth": ("beta_d", _num(dmc_node, "coherence_bandwidth", "dmc")),
        "onset_time": ("tau_d", _num(dmc_node, "onset_time", "dmc")),
    })

    sync_raw = _get(cfg, "sync_mode", "")
    try:
        sync_mode = SyncMode(sync_raw)
    except ValueError:
        raise SchemaError(f"sync_mode: expected 'cp' or 'ncp', got {sync_raw!r}") from None
    dims = cfg.get("dimensions", 3)
    if type(dims) is not int or dims not in (2, 3):  # refuses bools and 2.0
        raise SchemaError("dimensions: expected 2 or 3")

    power = _get(cfg, "power", "")
    sdnr_db = _optional(power, "sdnr_db", "power")
    pt = _num(power, "transmit_power_w", "power") if sdnr_db is None else 1.0

    # beside a dB target the absolute level is a placeholder, which retune solves
    return retune(Scenario(
        walls=walls,
        stripes=stripes,
        materials=materials,
        ue_position=ue_position,
        clock_offset=clock_offset,
        phase_offsets=phase_offsets,
        scatterers=tuple(scatterers),
        waveform=waveform,
        dmc=dmc,
        transmit_power=pt,
        e_rs=e_rs,
        e_ue=e_ue,
        sync_mode=sync_mode,
        D=dims,
        dnr_db=dnr_db,
        sdnr_db=sdnr_db,
    ))


def _bundled(name: str) -> Scenario:
    ref = resources.files("stripeloc") / "data" / name
    with resources.as_file(ref) as p:
        return load_scenario(p)


def canonical_scenario() -> Scenario:
    """The bundled default scene: 4 stripes, 4 walls, 2 scatterers."""
    return _bundled("canonical.json")


def estimation_scenario() -> Scenario:
    """The bundled estimator benchmark scene: M=8, B=10 MHz, known UE
    height, one scatterer, nonzero clock and phase offsets."""
    return _bundled("estimation.json")
