"""Scenario tests: the loader's branches and refusals, and the refusals of
``Scenario`` itself."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
from importlib import resources

import pytest

from stripeloc.errors import SchemaError, SemanticError
from stripeloc.scenario import (
    estimation_scenario,
    scenario_from_dict,
    wall_midpoint_stripes,
)

_ESTIMATION = json.loads((resources.files("stripeloc") / "data" / "estimation.json").read_text())


def _estimation_with(edit) -> dict:
    """A copy of the bundled estimation scene's config changed by ``edit``."""
    cfg = copy.deepcopy(_ESTIMATION)
    edit(cfg)
    return cfg


def _stripe_fields(stripes) -> list:
    return [(s.phase_center.tobytes(), s.azimuth, s.num_antennas, s.spacing, s.mounted_wall)
            for s in stripes]


# ---------------------------------------------------------------------------
# loader branches
# ---------------------------------------------------------------------------


def test_absolute_powers_load_like_the_db_targets():
    # dmc.power and power.transmit_power_w give the absolute levels that
    # dnr_db and sdnr_db solve for; with the solved values written back the
    # scene loads to the same bits, and records no dB targets
    bundled = estimation_scenario()

    def absolute(cfg):
        del cfg["dmc"]["dnr_db"], cfg["power"]["sdnr_db"]
        cfg["dmc"]["power"] = bundled.dmc.alpha1
        cfg["power"]["transmit_power_w"] = bundled.transmit_power

    sc = scenario_from_dict(json.loads(json.dumps(_estimation_with(absolute))))
    assert sc.dmc.alpha1.hex() == bundled.dmc.alpha1.hex()
    assert sc.transmit_power.hex() == bundled.transmit_power.hex()
    assert sc.dnr_db is None and sc.sdnr_db is None
    assert (bundled.dnr_db, bundled.sdnr_db) == (0.0, 20.0)


@pytest.mark.parametrize("placement", ["wall-midpoints", None], ids=["explicit", "default"])
def test_wall_midpoint_placement(placement):
    def edit(cfg):
        del cfg["stripes"]["placement"], cfg["stripes"]["corner_offset_m"]
        if placement is not None:
            cfg["stripes"]["placement"] = placement

    sc = scenario_from_dict(_estimation_with(edit))
    room, st = _ESTIMATION["room"], _ESTIMATION["stripes"]
    want = wall_midpoint_stripes(room["width_m"], room["depth_m"], st["height_m"],
                                 st["num_antennas"], sc.waveform.wavelength / 2.1)
    assert _stripe_fields(sc.stripes) == _stripe_fields(want)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------


def _moved_stripe(**changes):
    def edit(sc):
        return {"stripes": (dataclasses.replace(sc.stripes[0], **changes),) + sc.stripes[1:]}

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda sc: {"stripes": ()}, "scenario has no stripes"),
        (lambda sc: {"D": 4}, "D must be 2 or 3"),
        (lambda sc: {"ue_position": sc.ue_position[:2]}, "ue_position must be a 3-vector"),
        (lambda sc: {"phase_offsets": sc.phase_offsets[:3]},
         "phase_offsets has 3 entries for 4 stripes"),
        (lambda sc: {"e_ue": 2.0 * sc.e_ue}, "e_ue must be a unit 3-vector"),
        (lambda sc: {"ue_position": sc.ue_position * [1.0, 1.0, 0.0]}, "UE below floor"),
        (lambda sc: {"materials": {"plaster": sc.materials["concrete"]}},
         "unknown wall material 'concrete'"),
        (_moved_stripe(phase_center=[1.0, 0.0, -0.5]), "stripe 0 below floor"),
        (_moved_stripe(mounted_wall=4), "stripe 0 mounted on nonexistent wall"),
        (_moved_stripe(phase_center=[1.0, -0.1, 2.75]), "stripe 0 outside room hull"),
        (lambda sc: {"clock_offset": math.nan}, "clock_offset must be finite"),
        (lambda sc: {"transmit_power": 0.0}, "transmit_power must be positive"),
    ],
    ids=["no-stripes", "D", "ue-shape", "phase-count", "polarization", "ue-floor",
         "wall-material", "stripe-floor", "mounted-wall", "stripe-hull", "clock", "power"],
)
def test_scenario_refusals(edit, message):
    sc = estimation_scenario()
    with pytest.raises(SemanticError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(sc, **edit(sc))


def _drop(section, key):
    return lambda cfg: cfg[section].pop(key)


def _set(section, key, value):
    return lambda cfg: (cfg[section] if section else cfg).update({key: value})


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (_drop("ue", "clock_offset_s"), SchemaError, "ue.clock_offset_s: missing required field"),
        (_set("", "room", [5.0, 4.0]), SchemaError, "room: expected an object"),
        (_set("", "dmc", 0.0), SchemaError, "dmc: expected an object"),
        (_set("", "power", 20.0), SchemaError, "power: expected an object"),
        (_set("", "materials", {}), SchemaError, "materials: expected a non-empty object"),
        (_set("room", "material", "glass"), SemanticError,
         "room.material: unknown material 'glass'"),
        (_set("stripes", "placement", "corners"), SchemaError,
         "stripes.placement: expected 'wall-midpoints' or 'pinwheel', got 'corners'"),
        (_set("", "sync_mode", "gps"), SchemaError, "sync_mode: expected 'cp' or 'ncp', got 'gps'"),
        (_set("ue", "phase_offset_rad", "0.5"), SchemaError,
         "ue.phase_offset_rad: expected a number or list"),
        (_set("", "scatterers", {"position_m": [2.5, 3.5, 1.7], "radius_m": 0.2}), SchemaError,
         "scatterers: expected a list"),
        # the constructors' own checks, named by the file's field
        (lambda cfg: cfg["materials"]["concrete"].update(eps_r=0.5), SchemaError,
         "materials.concrete.eps_r: eps_r must be >= 1"),
        (lambda cfg: cfg["scatterers"][0].update(radius_m=-0.1), SchemaError,
         "scatterers[0].radius_m: scatterer radius must be positive"),
        (lambda cfg: cfg["dmc"].update(power=-1.0) or cfg["dmc"].pop("dnr_db"), SchemaError,
         "dmc.power: alpha1 must be non-negative"),
    ],
    ids=["missing", "room-node", "dmc-node", "power-node", "materials", "room-material",
         "placement", "sync", "phase-type", "scatterers", "material-check", "scatterer-check",
         "dmc-check"],
)
def test_loader_refusals(edit, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        scenario_from_dict(_estimation_with(edit))


@pytest.mark.parametrize("radius", [0.01, 0.136])
def test_loader_refuses_scatterers_outside_optical_region(radius):
    # the cross section pi r^2 holds only for 2 pi r / lambda > 10; at
    # 3.5 GHz that is r > 0.136 m, and the bundled 0.1956 m gives 14.3
    cfg = _estimation_with(lambda cfg: cfg["scatterers"][0].update(radius_m=radius))
    with pytest.raises(SchemaError, match=rf"^scatterers\[0\]\.radius_m: {radius!r} m gives "
                                          r"2 pi r / lambda = \d"):
        scenario_from_dict(cfg)
    assert len(scenario_from_dict(_ESTIMATION).scatterers) == 1
