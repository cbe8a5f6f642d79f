"""Command-line front end.

Subcommands: ``analyze`` (steady state, bound and existence report for one
system), ``sweep`` (parameter grids to CSV, with closed-form reference
columns for the built-in examples), ``simulate`` (trajectory CSV plus
ensemble statistics JSON), and ``verify`` (the built-in acceptance suite).

Every command is deterministic given its flags and seed; every output file
is accompanied by a manifest that records the resolved parameters needed to
reproduce it. Exit codes: 0 success, 1 verification failure, 2 usage or
spec error, 3 no steady solution.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .acceptance import run_criteria
from .bounds import theorem_bound, theorem_report
from .closedform import (
    Example1Params,
    Example2Params,
    PhaseSingularity,
    example1_det,
    example1_spec,
    example2_product,
    example2_spec,
)
from .model import (
    SpecValidationError,
    SystemSpec,
    build_derived,
    load_spec_file,
    spec_to_dict,
    validate_spec,
)
from .riccati import (
    ExistenceProbe,
    NoSteadySolution,
    RiccatiDivergence,
    integrate_riccati,
    solve_are,
)
from .sim import SimConfig, monte_carlo, simulate_trajectory

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_STEADY_SOLUTION = 3

_EXAMPLE1_KEYS = ("m", "omega", "alpha", "phi", "eta", "hbar")
_EXAMPLE2_KEYS = ("beta", "gamma", "phi", "eta", "hbar")
_FILE_KEYS = ("phi", "eta", "hbar")


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_set(arg: str | None) -> dict[str, float]:
    out: dict[str, float] = {}
    if not arg:
        return out
    for item in arg.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--set entries must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise UsageError(f"--set value for {key!r} is not a number: {value!r}") from exc
    return out


def _allowed_keys(example: int | None) -> tuple[str, ...]:
    if example == 1:
        return _EXAMPLE1_KEYS
    if example == 2:
        return _EXAMPLE2_KEYS
    return _FILE_KEYS


def _resolve_spec(args: argparse.Namespace, overrides: dict[str, float]) -> tuple[SystemSpec, dict[str, Any]]:
    """Build the spec from --example/--spec plus --set overrides.

    Returns the spec and a manifest fragment describing the source and the
    fully resolved parameters.
    """
    allowed = _allowed_keys(args.example)
    unknown = sorted(set(overrides) - set(allowed))
    if unknown:
        raise UsageError(f"unknown --set keys for this spec source: {unknown}")
    if args.example == 1:
        params = Example1Params(**overrides)
        spec = example1_spec(params)
        source: dict[str, Any] = {"example": 1, "params": {k: getattr(params, k) for k in _EXAMPLE1_KEYS}}
    elif args.example == 2:
        params = Example2Params(**overrides)
        spec = example2_spec(params)
        source = {"example": 2, "params": {k: getattr(params, k) for k in _EXAMPLE2_KEYS}}
    else:
        spec = load_spec_file(args.spec)
        merged = spec_to_dict(spec)
        merged.update(overrides)
        spec = validate_spec(merged)
        source = {"spec_file": str(args.spec), "overrides": overrides}
    return spec, source


def _manifest(command: str, source: dict[str, Any], options: dict[str, Any], outputs: list[str]) -> dict[str, Any]:
    return {
        "tool": "qkalman",
        "version": __version__,
        "command": command,
        "spec_source": source,
        "options": options,
        "outputs": outputs,
    }


def _finite_or_null(x: Any) -> Any:
    """``x`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite_or_null(v) for v in x]
    return x


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    """Strict RFC 8259 JSON: an undefined number (NaN, e.g. ``det_V_inf``
    without a steady state) is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _matrix(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def _cmd_analyze(args: argparse.Namespace) -> int:
    overrides = _parse_set(args.set)
    spec, source = _resolve_spec(args, overrides)
    model = build_derived(spec)
    try:
        steady = solve_are(model, method=args.method)
    except NoSteadySolution:
        steady = None
    probe = ExistenceProbe.of(model, steady)
    report: dict[str, Any] = {
        "spec": spec_to_dict(spec),
        "derived": {
            "Cr": _matrix(model.Cr),
            "Ci": _matrix(model.Ci),
            "A": _matrix(model.A),
            "Aprime": _matrix(model.Aprime),
            "D": _matrix(model.D),
            "kappa": model.kappa,
            "M": _matrix(model.M),
            "R": model.R,
            "S": _matrix(model.S),
            "Q": _matrix(model.Q),
        },
        "existence": {
            "hamiltonian_eigenvalues": [
                {"re": float(z.real), "im": float(z.imag)} for z in probe.hamiltonian_eigenvalues
            ],
            "axis_distance": probe.axis_distance,
            "exists": probe.exists,
            "detail": probe.detail,
        },
        "theorem": theorem_report(model, steady).to_dict(),
    }
    exit_code = EXIT_OK
    if steady is not None:
        report["steady_state"] = {
            "V_inf": _matrix(steady.V_inf),
            "det": float(np.linalg.det(steady.V_inf)),
            "residual": steady.residual,
            "method": steady.method,
            "closed_loop_stable": steady.closed_loop_stable,
        }
    else:
        report["steady_state"] = None
        exit_code = EXIT_NO_STEADY_SOLUTION

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(
        "analyze", source, {"method": args.method}, ["report.json"]
    )
    report["manifest"] = manifest
    _write_json(out / "report.json", report)
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'report.json'}")
    return exit_code


_SWEEP_PARAMS = ("phi", "eta", "alpha", "beta", "gamma", "m", "omega")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEP_PARAMS:
        raise UsageError(f"unknown sweep param {args.param!r} (choose from {_SWEEP_PARAMS})")
    allowed = _allowed_keys(args.example)
    if args.param not in allowed:
        raise UsageError(f"param {args.param!r} does not apply to this spec source")
    overrides = _parse_set(args.set)
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if args.log:
        if args.min <= 0 or args.max <= 0:
            raise UsageError("--log needs positive --min/--max")
        grid = np.logspace(np.log10(args.min), np.log10(args.max), args.steps)
    else:
        grid = np.linspace(args.min, args.max, args.steps)

    rows = []
    for value in grid:
        point = dict(overrides)
        point[args.param] = float(value)
        spec, _ = _resolve_spec(args, point)
        model = build_derived(spec)
        bound = theorem_bound(model)
        try:
            V = solve_are(model).V_inf
            det = float(np.linalg.det(V))
            product = float(V[0, 0] * V[1, 1])
        except NoSteadySolution:
            det = product = float("nan")
        closed = float("nan")
        diff = float("nan")
        if args.example == 1:
            try:
                closed = example1_det(Example1Params(**point))
                diff = abs(det - closed)
            except PhaseSingularity:
                pass
        elif args.example == 2:
            p2 = Example2Params(**point)
            if p2.phi == 0.0:
                closed = example2_product(p2)
                diff = abs(product - closed)
        rows.append((float(value), model.kappa, det, product, bound, closed, diff))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("param,value,kappa,det,product,bound,closed_form,abs_diff\n")
        for row in rows:
            fh.write(args.param + "," + ",".join(_fmt(x) for x in row) + "\n")
    source = {"example": args.example} if args.example else {"spec_file": str(args.spec)}
    source["overrides"] = overrides
    manifest = _manifest(
        "sweep",
        source,
        {
            "param": args.param,
            "min": args.min,
            "max": args.max,
            "steps": args.steps,
            "log": bool(args.log),
        },
        ["sweep.csv"],
    )
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    overrides = _parse_set(args.set)
    spec, source = _resolve_spec(args, overrides)
    cfg = SimConfig(dt=args.dt, t_final=args.t_final, seed=args.seed, ensemble=args.ensemble)
    model = build_derived(spec)
    try:
        flow = integrate_riccati(model, 0.5 * spec.hbar * np.eye(2), cfg.t_final, cfg.dt)
    except RiccatiDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STEADY_SOLUTION

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = ["trajectory.csv"]
    traj = simulate_trajectory(spec, cfg, flow)
    traj.write_csv(str(out / "trajectory.csv"))

    stats_payload = None
    if cfg.ensemble >= 2:
        stats = monte_carlo(spec, cfg, flow)
        stats_payload = stats.to_dict()
        outputs.append("stats.json")
    else:
        print("notice: ensemble=1, statistics omitted")

    manifest = _manifest(
        "simulate",
        source,
        {"dt": cfg.dt, "t_final": cfg.t_final, "seed": cfg.seed, "ensemble": cfg.ensemble},
        outputs,
    )
    if stats_payload is not None:
        _write_json(out / "stats.json", {"manifest": manifest, "stats": stats_payload})
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'trajectory.csv'}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        results = run_criteria(names=args.filter or None, fault=args.fault)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkalman",
        description="Steady-state analysis, bounds and simulation of a continuously monitored linear quantum mode.",
    )
    parser.add_argument("--version", action="version", version=f"qkalman {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_source(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", help="path to a system spec JSON file")
        group.add_argument("--example", type=int, choices=(1, 2), help="built-in example system")
        p.add_argument("--set", help="comma-separated key=value parameter overrides")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    p_analyze = sub.add_parser("analyze", help="derived model, steady state, bound and existence report")
    add_spec_source(p_analyze)
    p_analyze.add_argument(
        "--method", choices=("hamiltonian", "ode"), default="hamiltonian", help="steady-state solver route"
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV with closed-form reference columns")
    add_spec_source(p_sweep)
    p_sweep.add_argument("--param", required=True, help=f"one of {_SWEEP_PARAMS}")
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="log-spaced grid")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="simulate trajectories and ensemble statistics")
    add_spec_source(p_sim)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--t-final", type=float, default=5.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--ensemble", type=int, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the built-in acceptance suite")
    p_verify.add_argument(
        "--filter", action="append", help="run only criteria whose name contains this substring"
    )
    p_verify.add_argument("--fault", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecValidationError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoSteadySolution as exc:
        print(f"no steady solution: {exc}", file=sys.stderr)
        return EXIT_NO_STEADY_SOLUTION


if __name__ == "__main__":
    raise SystemExit(main())
