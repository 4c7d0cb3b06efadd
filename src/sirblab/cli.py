"""Command-line front end.

Four subcommands share one scenario format (see scenario module):

    sirblab steady    --config scenario.json            # states as JSON on stdout
    sirblab stability --config scenario.json --modes 32 # per-mode reports on stdout
    sirblab simulate  --config scenario.json --out DIR  # trajectory.csv + meta.json
    sirblab sweep     --config sweep.json --out DIR --jobs 4

Exit codes: 0 clean, 2 for configuration problems (the message names the
offending field, or the file or directory that cannot be used), 3 when a
run violates an invariant (negative density, solver stall, mass growth in
a regime where mass must decay).

All output files are deterministic for a fixed scenario; the wall-clock
timestamp appears only in meta.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .grid import neumann_modes
from .integrator import CGError, PositivityError, RandomInit, simulate
from .kernels import backend_name
from .scenario import (
    ConfigError,
    analysis_mode_count,
    build_sim_config,
    check_mode_products,
    check_state_products,
    diffusion_matrix,
    load_json,
    parse_coefficients,
    parse_grid,
    parse_params,
    parse_sweep,
)
from .stability import ConsistencyError, classify_state, jacobian
from .steady import EndemicBracketError, endemic_exists, solve_endemic, trivial_states
from .sweep import run_sweep

__all__ = ["main"]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Characters per write: the text layer writes an ASCII piece of at most its
# chunk size (8192) without encoding a copy of it, so a snapshot's text is
# never held twice.
_WRITE_CHUNK = 8192


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(text), _WRITE_CHUNK):
            fh.write(text[start:start + _WRITE_CHUNK])


def _meta(command: str, doc: dict, **extra) -> dict:
    meta = {
        "command": command,
        "config": doc,
        "backend": backend_name(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    meta.update(extra)
    return meta


def _collect_states(params):
    """All steady states plus endemic diagnostics; bracket failures become
    a message instead of aborting the whole report, and rates the endemic
    reduction cannot take a ConfigError at ``params``."""
    states = list(trivial_states(params))
    endemic_error = None
    try:
        endemic, diag = solve_endemic(params, diagnostics=True)
        states.extend(endemic)
    except EndemicBracketError as e:
        endemic_error = str(e)
        _, diag = endemic_exists(params, diagnostics=True)
    except ValueError as e:
        raise ConfigError("params", str(e)) from None
    return states, diag, endemic_error


def _report(payload: dict, endemic_error, out_dir, name: str) -> int:
    """Print a steady/stability payload, warning of an endemic bracket
    failure, and also write it to out_dir/name when out_dir is given."""
    if endemic_error is not None:
        payload["endemic_error"] = endemic_error
        print(f"warning: {endemic_error}", file=sys.stderr)
    if out_dir:  # an unusable directory fails before anything is printed
        os.makedirs(out_dir, exist_ok=True)
    text = _json_text(payload)
    sys.stdout.write(text)
    if out_dir:
        _write(os.path.join(out_dir, name), text)
    return 0


def cmd_steady(args) -> int:
    doc = load_json(args.config)
    params = parse_params(doc)
    states, diag, endemic_error = _collect_states(params)
    payload = {
        "params": params.to_dict(),
        "endemic": diag.to_dict(),
        "states": [st.to_dict() for st in states],
    }
    return _report(payload, endemic_error, args.out, "steady.json")


def cmd_stability(args) -> int:
    doc = load_json(args.config)
    params = parse_params(doc)
    grid = parse_grid(doc)
    coeffs = parse_coefficients(doc, grid)
    diff = diffusion_matrix(coeffs)
    count = analysis_mode_count(doc, args.modes)
    spectrum = neumann_modes(grid, count)
    check_mode_products(diff, spectrum)
    states, diag, endemic_error = _collect_states(params)
    for st in states:
        check_state_products(jacobian(st.value, params, st.tag), diff, spectrum)
    reports = [classify_state(st, params, diff, spectrum) for st in states]
    payload = {
        "params": params.to_dict(),
        "grid": grid.to_dict(),
        "diffusion": diff.to_dict(),
        "mode_count": len(spectrum),
        "lambdas": [m.lam for m in spectrum],
        "endemic": diag.to_dict(),
        "reports": [r.to_dict() for r in reports],
    }
    return _report(payload, endemic_error, args.out, "stability.json")


def cmd_simulate(args) -> int:
    doc = load_json(args.config)
    cfg = build_sim_config(doc, seed_override=args.seed)
    if args.seed is not None and not isinstance(cfg.initial, RandomInit):
        print("warning: --seed only affects 'random' initial data; ignored",
              file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    try:
        traj = simulate(cfg)
    except (PositivityError, CGError) as e:
        meta = _meta("simulate", doc, completed=False,
                     error=f"{type(e).__name__}: {e}")
        _write(os.path.join(args.out, "meta.json"), _json_text(meta))
        print(f"error: {e}", file=sys.stderr)
        return 3

    _write(os.path.join(args.out, "trajectory.csv"), traj.to_csv())
    snapshot_files = []
    for k, (time, _) in enumerate(traj.snapshots):
        fname = f"snapshot_{k:03d}.csv"
        _write(os.path.join(args.out, fname), traj.snapshot_csv(k))
        snapshot_files.append({"file": fname, "time": time})

    meta = _meta(
        "simulate", doc,
        completed=True,
        steps=traj.steps,
        final_time=traj.times[-1],
        violations=traj.violations,
        snapshots=snapshot_files,
        files=["trajectory.csv"] + [s["file"] for s in snapshot_files],
    )
    _write(os.path.join(args.out, "meta.json"), _json_text(meta))

    fatal = [v for v in traj.violations if v["kind"] == "mass_increase"]
    if fatal:
        v = fatal[0]
        print(f"error: total infected-compartment mass rose at t={v['time']} "
              f"({v['previous']} -> {v['value']}) in a regime where it must decay",
              file=sys.stderr)
        return 3
    for v in traj.violations:
        print(f"note: {v['kind']} at t={v['time']} (value {v['value']})",
              file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs", f"must be at least 1, got {args.jobs}")
    doc = load_json(args.config)
    base, axes, outputs, name = parse_sweep(doc)
    modes = analysis_mode_count(base, args.modes)
    table_path = run_sweep(base, axes, outputs, modes, args.out, jobs=args.jobs)
    npoints = 1
    for _, values in axes:
        npoints *= len(values)
    meta = _meta(
        "sweep", doc,
        completed=True,
        name=name,
        points=npoints,
        axes=[{"param": n, "values": v} for n, v in axes],
        jobs=args.jobs,
        modes=modes,
        table="sweep.csv",
    )
    _write(os.path.join(args.out, "meta.json"), _json_text(meta))
    print(f"wrote {table_path} ({npoints} points)", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirblab",
        description="Reaction-diffusion epidemic model: simulation, steady "
                    "states, and linear stability analysis.",
    )
    parser.add_argument("--version", action="version", version=f"sirblab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="solve for all constant steady states")
    p.add_argument("--config", required=True, help="scenario JSON (params block)")
    p.add_argument("--out", help="also write steady.json into this directory")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("stability", help="classify steady states mode by mode")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", help="also write stability.json into this directory")
    p.add_argument("--modes", type=int, default=None,
                   help="number of spatial modes to analyse (default 32)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("simulate", help="integrate the PDE system")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed of a 'random' initial profile")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate stability over a parameter box")
    p.add_argument("--config", required=True, help="sweep JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at most one per point and per CPU)")
    p.add_argument("--modes", type=int, default=None,
                   help="number of spatial modes per point (default 32)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (PositivityError, CGError, ConsistencyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
