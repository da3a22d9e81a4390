"""Shared fixtures and scene factories for the test suite."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from stripeloc.channel import DmcParams, Material, Scatterer
from stripeloc.estimators import WantedParams
from stripeloc.fim import SyncMode
from stripeloc.geometry import Stripe
from stripeloc.scenario import Scenario, rect_room_walls, wall_midpoint_stripes
from stripeloc.signal import Waveform


def rand_cpx(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def truth_params(scenario) -> WantedParams:
    """The scenario's true wanted parameters (phase offset of stripe 0)."""
    return WantedParams(
        position=scenario.ue_position,
        clock_offset=scenario.clock_offset,
        phase_offset=float(scenario.phase_offsets[0]),
        sp_positions=np.array([s.position for s in scenario.scatterers]).reshape(-1, 3),
    )


def random_small_scenario(rng: np.random.Generator) -> Scenario:
    """Randomized small but fully valid scenario for derivative checking.

    Sizes stay tiny (N <= 3 stripes, M <= 8 antennas, K <= 8 subcarriers,
    at most 4 paths per stripe) so dense finite-difference oracles run in
    milliseconds.  Sync mode and position dimensionality are sampled too and
    recorded on the scenario.
    """
    a = float(rng.uniform(4.5, 8.0))
    b = float(rng.uniform(4.0, 7.0))
    # path mix: (number of walls kept, number of scatterers), 1 LoS always
    n_walls, n_sp = [(0, 1), (1, 1), (2, 1), (3, 0), (0, 2)][int(rng.integers(5))]
    walls = rect_room_walls(a, b, "plaster")[:n_walls]

    n_stripes = int(rng.integers(1, 4))
    wf = Waveform(
        fc=3.5e9,
        K=int(rng.integers(3, 9)),
        delta_f=float(rng.uniform(250e3, 2e6)),
    )
    stripes = []
    for i in range(n_stripes):
        mounted = 0 if (n_walls > 0 and i == 0 and rng.random() < 0.5) else None
        stripes.append(
            Stripe(
                phase_center=(
                    rng.uniform(0.4, a - 0.4),
                    rng.uniform(0.4, b - 0.4),
                    rng.uniform(1.2, 2.8),
                ),
                azimuth=float(rng.uniform(-math.pi, math.pi)),
                num_antennas=int(rng.integers(2, 9)),
                spacing=float(rng.uniform(0.3, 0.6)) * wf.wavelength,
                mounted_wall=mounted,
            )
        )
    scatterers = tuple(
        Scatterer(
            position=(rng.uniform(0.5, a - 0.5), rng.uniform(0.5, b - 0.5), rng.uniform(0.3, 2.2)),
            radius=float(rng.uniform(0.05, 0.3)),
        )
        for _ in range(n_sp)
    )
    sync = SyncMode.CP if rng.random() < 0.5 else SyncMode.NCP
    if sync is SyncMode.CP:
        phase_offsets = np.full(n_stripes, float(rng.uniform(-math.pi, math.pi)))
    else:
        phase_offsets = rng.uniform(-math.pi, math.pi, n_stripes)
    dnr_db = float(rng.uniform(-10.0, 10.0))
    return Scenario(
        walls=walls,
        stripes=tuple(stripes),
        materials={"plaster": Material(6.0, 1.0, 1e-2)},
        ue_position=np.array(
            [rng.uniform(0.5, a - 0.5), rng.uniform(0.5, b - 0.5), rng.uniform(0.5, 2.0)]
        ),
        clock_offset=float(rng.uniform(-20e-9, 20e-9)),
        phase_offsets=phase_offsets,
        scatterers=scatterers,
        waveform=wf,
        dmc=DmcParams(
            alpha1=10 ** (dnr_db / 10.0) * wf.sigma2,
            beta_d=float(rng.uniform(0.2, 1.5)),
            tau_d=float(rng.uniform(0.0, 0.3)),
        ),
        transmit_power=float(rng.uniform(1e-9, 1e-6)),
        e_rs=np.array([0.0, 0.0, 1.0]),
        e_ue=np.array([0.0, 0.0, 1.0]),
        sync_mode=sync,
        D=2 if rng.random() < 0.5 else 3,
    )


def toy_scene(
    n_stripes: int = 2,
    M: int = 4,
    K: int = 8,
    n_sp: int = 1,
    fc: float = 3.5e9,
    delta_f: float = 500e3,
    clock_offset: float = 5e-9,
    phase_offset: float = 0.0,
    dnr_db: float = 0.0,
    pt: float = 1.0,
    a: float = 6.0,
    b: float = 5.0,
    ue=(3.03, 2.87, 1.0),
):
    """Small duck-typed scene for unit tests below the Scenario layer."""
    wf = Waveform(fc=fc, K=K, delta_f=delta_f)
    walls = rect_room_walls(a, b, "plaster")
    stripes = wall_midpoint_stripes(a, b, 2.75, M, wf.wavelength / 2.1)[:n_stripes]
    scatterers = tuple(
        Scatterer((2.0 + j, 2.2, 0.5 + 0.5 * j), 0.19) for j in range(n_sp)
    )
    dmc = DmcParams(alpha1=10 ** (dnr_db / 10) * wf.sigma2, beta_d=0.5, tau_d=0.1)
    return SimpleNamespace(
        ue_position=np.array(ue, dtype=float),
        walls=walls,
        stripes=stripes,
        scatterers=scatterers,
        materials={"plaster": Material(6.0, 1.0, 1e-2)},
        waveform=wf,
        dmc=dmc,
        transmit_power=pt,
        e_rs=np.array([0.0, 0.0, 1.0]),
        e_ue=np.array([0.0, 0.0, 1.0]),
        clock_offset=clock_offset,
        phase_offsets=np.full(n_stripes, phase_offset, dtype=float),
    )
