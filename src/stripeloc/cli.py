"""Command-line front end.

Subcommands

* ``bounds``    error bounds across a bandwidth list, per sync mode and
                multipath case
* ``simulate``  synthesize one observation set and dump it to disk
* ``estimate``  run the estimation pipeline over Monte Carlo trials; emits
                per-trial stage records plus an RMSE summary
* ``sweep``     Monte Carlo RMSE summary across an SDNR list
* ``heatmap``   position error bound over a horizontal grid
* ``selftest``  quick invariant checks

Each subcommand accepts only the flags it reads.  Exit codes: 0 success,
1 configuration error (bad flags, including a flag the command does not
read, or a bad scenario file), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .channel import DmcParams, disturbance_covariance
from .errors import SchemaError, SemanticError, StripelocError
from .estimators import WantedParams, jml_cost, rml_ncp_amplitudes_and_cost
from .fim import FimOptions, SyncMode, compute_bounds
from .harness import (
    BOUNDS_COLUMNS,
    HEATMAP_COLUMNS,
    render_csv,
    render_records,
    run_bounds_sweep,
    run_heatmap,
    run_monte_carlo,
    wrapped_clock_error,
)
from .scenario import canonical_scenario, estimation_scenario, load_scenario
from .signal import dump_observations, synthesize


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are 1
        raise UsageError(f"{self.format_usage()}error: {message}")


def parse_value_list(text: str) -> np.ndarray:
    """Parse '3', '0,5,10', '1e6:1e9:log25', or '0:30:lin7' into values;
    ValueError on a malformed list or a non-finite value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or len(parts[2]) < 4:
            raise ValueError(f"bad range {text!r}; expected start:stop:log<N> or start:stop:lin<N>")
        kind, count = parts[2][:3], parts[2][3:]
        n = int(count)
        if n < 1:
            raise ValueError("range point count must be >= 1")
        lo, hi = float(parts[0]), float(parts[1])
        if not np.all(np.isfinite([lo, hi])):
            raise ValueError(f"non-finite range end in {text!r}")
        if kind == "log":
            return np.geomspace(lo, hi, n)
        if kind == "lin":
            return np.linspace(lo, hi, n)
        raise ValueError(f"unknown range kind {kind!r}; expected log or lin")
    values = np.array([float(v) for v in text.split(",")])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite value in {text!r}")
    return values


def resolve_scenario(name: str):
    if name == "canonical":
        return canonical_scenario()
    if name == "estimation":
        return estimation_scenario()
    return load_scenario(name)


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _rows_json(rows):
    # nan/inf are not valid JSON scalars; encode them as strings
    def enc(v):
        if isinstance(v, float) and not np.isfinite(v):
            return repr(v)
        return v

    return [{k: enc(v) for k, v in row.items()} for row in rows]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args):
    sc = resolve_scenario(args.scenario)
    if args.bandwidth is not None:
        values = parse_value_list(args.bandwidth)
    else:
        values = np.array([sc.waveform.bandwidth])
    modes = (SyncMode(args.sync),) if args.sync else (SyncMode.CP, SyncMode.NCP)
    rows = run_bounds_sweep(sc, "bandwidth", values, sync_modes=modes)
    if args.fmt == "json":
        return _json_text(_rows_json(rows))
    return render_csv(rows, BOUNDS_COLUMNS)


def cmd_simulate(args):
    sc = resolve_scenario(args.scenario)
    dump_observations(synthesize(sc, rng_seed=args.seed), args.out, fmt=args.fmt)
    return None


def _monte_carlo_from_args(args, default_sdnr: str):
    sc = resolve_scenario(args.scenario)
    if args.sync:
        sc = dataclasses.replace(sc, sync_mode=SyncMode(args.sync))
    sdnr = parse_value_list(args.sdnr if args.sdnr is not None else default_sdnr)
    return run_monte_carlo(
        sc,
        sdnr,
        trials=args.trials,
        master_seed=args.seed,
        threads=args.threads,
    )


def cmd_estimate(args):
    table = _monte_carlo_from_args(args, default_sdnr="20")
    if args.fmt == "json":
        return _json_text(
            {
                "records": list(table.records),
                "failures": list(table.failures),
                "summary": _rows_json(table.rows()),
            }
        )
    parts = ["# records\n", render_records(table.records)]
    if table.failures:
        parts += ["# failures\n", render_records(table.failures)]
    parts += ["# summary\n", table.to_csv()]
    return "".join(parts)


def cmd_sweep(args):
    table = _monte_carlo_from_args(args, default_sdnr="0,10,20")
    if args.fmt == "json":
        return _json_text(
            {"failures": list(table.failures), "summary": _rows_json(table.rows())}
        )
    return table.to_csv()


def cmd_heatmap(args):
    sc = resolve_scenario(args.scenario)
    options = None
    if args.sync:
        options = FimOptions(sync_mode=SyncMode(args.sync), D=sc.D)
    rows = run_heatmap(sc, nx=21, ny=21, options=options)
    if args.fmt == "json":
        return _json_text(_rows_json(rows))
    return render_csv(rows, HEATMAP_COLUMNS)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _check_whitener():
    rng = np.random.default_rng(0)
    M, K = 2, 3
    pilots = np.exp(2j * np.pi * rng.random(K)) / np.sqrt(K)
    dmc = DmcParams(alpha1=0.7, beta_d=0.4, tau_d=0.1)
    cov = disturbance_covariance(dmc, sigma2=0.3, pilots=pilots, K=K, M=M)
    w, V = np.linalg.eigh(cov.dense())
    dense = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    y = rng.standard_normal(M * K) + 1j * rng.standard_normal(M * K)
    assert np.linalg.norm(cov.whiten_vec(y) - dense @ y) < 1e-8


def _check_bounds_ordering():
    sc = canonical_scenario()
    cp = compute_bounds(sc, FimOptions(sync_mode=SyncMode.CP, D=sc.D))
    ncp = compute_bounds(sc, FimOptions(sync_mode=SyncMode.NCP, D=sc.D))
    assert np.isfinite(cp.peb) and np.isfinite(ncp.peb)
    assert cp.peb < ncp.peb


def _check_exact_recovery():
    sc = estimation_scenario()
    obs = synthesize(sc, rng_seed=0, noise_scale=0.0)
    truth = WantedParams(
        position=sc.ue_position,
        clock_offset=sc.clock_offset,
        phase_offset=float(sc.phase_offsets[0]),
        sp_positions=np.array([s.position for s in sc.scatterers]),
    )
    assert jml_cost(truth, obs) < 1e-9
    # the relaxed model has no scatterer columns, so its residual vanishes
    # only on a scatterer-free scene
    bare = dataclasses.replace(sc, scatterers=())
    obs_bare = synthesize(bare, rng_seed=0, noise_scale=0.0)
    _, cost = rml_ncp_amplitudes_and_cost(bare.ue_position, bare.clock_offset, obs_bare)
    assert cost < 1e-9


def _check_determinism():
    sc = estimation_scenario()
    a = synthesize(sc, rng_seed=7)
    b = synthesize(sc, rng_seed=7)
    assert all(
        x.Y.tobytes() == y.Y.tobytes()
        for x, y in zip(a.observations, b.observations)
    )


def _check_clock_wrap():
    assert wrapped_clock_error(2e-6 + 1e-9, 1e-9, delta_f=0.5e6) < 1e-15


_SELFTESTS = (
    ("whitener", _check_whitener),
    ("bounds-ordering", _check_bounds_ordering),
    ("exact-recovery", _check_exact_recovery),
    ("determinism", _check_determinism),
    ("clock-wrap", _check_clock_wrap),
)


def cmd_selftest(args):
    lines = []
    failed = False
    for name, check in _SELFTESTS:
        try:
            check()
        except Exception as exc:  # report every check, then fail once
            failed = True
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            lines.append(f"ok {name}")
    return "\n".join(lines) + "\n", (2 if failed else 0)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

# each flag's argparse settings; a subcommand accepts only the flags it reads
_FLAGS = {
    "scenario": dict(
        default="canonical",
        help="bundled name (canonical, estimation) or path to a scenario file",
    ),
    "seed": dict(type=int, default=0, help="master RNG seed"),
    "trials": dict(type=int, default=1, help="Monte Carlo trials"),
    "sdnr": dict(default=None, help="dB list, e.g. '0,10,20' or '0:30:lin7'"),
    "bandwidth": dict(default=None, help="Hz list, e.g. '1e7' or '1e6:1e9:log25'"),
    "sync": dict(choices=["cp", "ncp"], default=None),
    "threads": dict(type=int, default=1, help="worker threads"),
    "out": dict(default=None, help="output path (default: stdout)"),
    "format": dict(dest="fmt", choices=["csv", "json"], default="csv"),
}

_MONTE_CARLO_FLAGS = ("scenario", "seed", "trials", "sdnr", "sync", "threads", "out", "format")

# name: (handler, help, flags)
_COMMANDS = {
    "bounds": (cmd_bounds, "error bounds per sync mode and multipath case",
               ("scenario", "bandwidth", "sync", "out", "format")),
    "simulate": (cmd_simulate, "synthesize observations and dump them",
                 ("scenario", "seed", "out", "format")),
    "estimate": (cmd_estimate, "run the estimation pipeline over Monte Carlo trials",
                 _MONTE_CARLO_FLAGS),
    "sweep": (cmd_sweep, "RMSE summary across an SDNR list", _MONTE_CARLO_FLAGS),
    "heatmap": (cmd_heatmap, "position bound over a horizontal grid",
                ("scenario", "sync", "out", "format")),
    "selftest": (cmd_selftest, "run quick invariant checks", ("out",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="stripeloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            kwargs = _FLAGS[flag]
            if (name, flag) == ("simulate", "out"):  # it writes files, never stdout
                kwargs = dict(kwargs, required=True, help="output path")
            sp.add_argument(f"--{flag}", **kwargs)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        out = _COMMANDS[args.command][0](args)
    except (SchemaError, SemanticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StripelocError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if isinstance(out, tuple):
        text, code = out
    else:
        text, code = out, 0
    if text is not None:
        _emit(text, args.out)
    return code


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
