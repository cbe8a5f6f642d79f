"""In-memory span tracing of the qkalman layers, installed from outside.

The tracer wraps the public functions of each package module and rebinds
every name under which the package imported them (``cli`` imports
``solve_are`` from ``riccati``, ``bounds`` and ``sim`` import
``build_derived`` from ``model``, and so on), so calls between layers pass
through the wrappers without any edit to the package. The ``cli`` layer is
traced at its command handlers, which the argument parser looks up in the
module when ``main`` runs.

A span records its name, its parent span, the request (benchmark
operation) it belongs to, start and end, and its self time: its duration
minus the time covered by its child spans. Spans stay in memory until the
worker writes them out when its run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

#: Package modules, one layer each, in dependency order.
LAYERS = ("model", "riccati", "bounds", "closedform", "sim", "acceptance", "cli")

#: ``cli`` command handlers and the span names they are traced under.
CLI_HANDLERS = {
    "_cmd_analyze": "cli.analyze",
    "_cmd_sweep": "cli.sweep",
    "_cmd_simulate": "cli.simulate",
    "_cmd_verify": "cli.verify",
}


def _solve_are_attrs(args, kwargs, result) -> dict[str, Any]:
    method = kwargs.get("method", args[1] if len(args) > 1 else "hamiltonian")
    attrs = {"method": method}
    if result is not None:
        attrs["route"] = result.method
    return attrs


def _flow_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"steps": len(result) - 1} if result is not None else {}


def _ensemble_attrs(args, kwargs, result) -> dict[str, Any]:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"traj_steps": cfg.ensemble * cfg.n_steps}


def _trajectory_attrs(args, kwargs, result) -> dict[str, Any]:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"steps": cfg.n_steps}


def _sweep_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"points": args[0].steps}


#: Span attributes read from a call's arguments and result.
ATTRS: dict[str, Callable[[tuple, dict, Any], dict[str, Any]]] = {
    "riccati.solve_are": _solve_are_attrs,
    "riccati.integrate_riccati": _flow_attrs,
    "sim.monte_carlo": _ensemble_attrs,
    "sim.simulate_trajectory": _trajectory_attrs,
    "cli.sweep": _sweep_attrs,
}


class Tracer:
    """Records spans while ``enabled``; otherwise the wrappers only forward."""

    def __init__(self) -> None:
        self.enabled = False
        self.request = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _enter(self) -> list:
        frame = [next(self._ids), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, attrs: dict[str, Any]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append(
            (frame[0], parent, self.request, name, frame[1], end, duration - frame[2], attrs)
        )

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """A span opened by the benchmark itself (one per operation)."""
        if not self.enabled:
            yield
            return
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name, attrs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter()
            result = None
            attrs: dict[str, Any] = {}
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                if attrs_of is not None:
                    attrs.update(attrs_of(args, kwargs, result))
                self._exit(frame, name, attrs)

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        import qkalman  # noqa: F401  (loads every layer)

        originals: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"qkalman.{layer}"]
            if layer == "cli":
                names = dict(CLI_HANDLERS)
            else:
                names = {
                    attr: f"{layer}.{attr}"
                    for attr in getattr(mod, "__all__", ())
                    if inspect.isfunction(getattr(mod, attr))
                    and getattr(mod, attr).__module__ == mod.__name__
                }
            for attr, span in names.items():
                fn = getattr(mod, attr)
                originals[id(fn)] = (fn, self.wrap(span, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qkalman" or mod_name.startswith("qkalman.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end, self_s, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(spans: list[tuple], scale: dict[int, float] | None = None) -> dict[str, Any]:
    """Per-span-name totals and the per-layer figures the benchmark reports.

    ``scale`` maps a request to the factor its span times are multiplied by
    (the speed normalization of the operation). Every ratio is returned
    together with its base count.
    """
    scale = scale or {}
    spans = [
        (sid, parent, req, name, start, start + (end - start) * scale.get(req, 1.0), self_s * scale.get(req, 1.0), attrs)
        for sid, parent, req, name, start, end, self_s, attrs in spans
    ]
    by_id = {s[0]: s for s in spans}
    names: dict[str, dict[str, float]] = {}
    for _, _, _, name, start, end, self_s, _ in spans:
        row = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += end - start

    def row(name: str) -> dict[str, float]:
        return names.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def command_of(span: tuple) -> str | None:
        parent = span[1]
        while parent is not None:
            up = by_id[parent]
            if up[3].startswith("cli."):
                return up[3]
            parent = up[1]
        return None

    solve = {"hamiltonian": [0, 0.0], "ode": [0, 0.0]}
    fallbacks = failed = 0
    solves_under = {"cli.analyze": 0, "cli.sweep": 0}
    traj_steps = flow_steps = mc_steps = 0
    points = 0
    for span in spans:
        name, self_s, attrs = span[3], span[6], span[7]
        if name == "riccati.solve_are":
            entry = solve.setdefault(attrs.get("method", "hamiltonian"), [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
            if attrs.get("method") == "hamiltonian" and attrs.get("route") == "ode_limit":
                fallbacks += 1
            if attrs.get("error") == "NoSteadySolution":
                failed += 1
        if name in ("riccati.solve_are", "riccati.are_existence_probe"):
            command = command_of(span)
            if command in solves_under:
                solves_under[command] += 1
        if name == "riccati.integrate_riccati":
            flow_steps += attrs.get("steps", 0)
        elif name == "sim.monte_carlo":
            mc_steps += attrs.get("traj_steps", 0)
        elif name == "sim.simulate_trajectory":
            traj_steps += attrs.get("steps", 0)
        elif name == "cli.sweep":
            points += attrs.get("points", 0)

    op_wall = sum(s[5] - s[4] for s in spans if s[1] is None)
    layer_self = {
        layer: sum(r["self_s"] for n, r in names.items() if n.startswith(layer + "."))
        for layer in LAYERS
    }
    analyze_calls = row("cli.analyze")["calls"]
    hamiltonian_calls = solve["hamiltonian"][0]
    out: dict[str, float] = {
        "riccati.solve_are.calls": row("riccati.solve_are")["calls"],
        "riccati.solve_are.self_s": row("riccati.solve_are")["self_s"],
        "riccati.solve_are.self_share": _ratio(row("riccati.solve_are")["self_s"], op_wall),
        "riccati.solve_are.hamiltonian.calls": hamiltonian_calls,
        "riccati.solve_are.hamiltonian.self_s": solve["hamiltonian"][1],
        "riccati.solve_are.ode.calls": solve["ode"][0],
        "riccati.solve_are.ode.self_s": solve["ode"][1],
        "riccati.solve_are.fallback_frac": _ratio(fallbacks, hamiltonian_calls),
        "riccati.solve_are.failed": failed,
        "riccati.are_existence_probe.calls": row("riccati.are_existence_probe")["calls"],
        "riccati.are_existence_probe.self_s": row("riccati.are_existence_probe")["self_s"],
        "riccati.integrate_riccati.steps": flow_steps,
        "riccati.integrate_riccati.us_per_step": 1e6
        * _ratio(row("riccati.integrate_riccati")["self_s"], flow_steps),
        "cli.analyze.calls": analyze_calls,
        "cli.analyze.solves": solves_under["cli.analyze"],
        "cli.analyze.solves_per_call": _ratio(solves_under["cli.analyze"], analyze_calls),
        "cli.sweep.points": points,
        "cli.sweep.solves": solves_under["cli.sweep"],
        "cli.sweep.solves_per_point": _ratio(solves_under["cli.sweep"], points),
        "cli.analyze.self_s": row("cli.analyze")["self_s"],
        "cli.sweep.self_s": row("cli.sweep")["self_s"],
        "cli.simulate.self_s": row("cli.simulate")["self_s"],
        "sim.monte_carlo.self_s": row("sim.monte_carlo")["self_s"],
        "sim.monte_carlo.self_share": _ratio(row("sim.monte_carlo")["self_s"], op_wall),
        "sim.monte_carlo.traj_steps": mc_steps,
        "sim.monte_carlo.traj_steps_per_s": _ratio(mc_steps, row("sim.monte_carlo")["self_s"]),
        "sim.simulate_trajectory.steps": traj_steps,
        "sim.simulate_trajectory.us_per_step": 1e6
        * _ratio(row("sim.simulate_trajectory")["self_s"], traj_steps),
        "model.build_derived.calls": row("model.build_derived")["calls"],
        "model.build_derived.self_s": row("model.build_derived")["self_s"],
        "bounds.verify_theorem.calls": row("bounds.verify_theorem")["calls"],
        "bounds.verify_theorem.self_s": row("bounds.verify_theorem")["self_s"],
        "bounds.det_quotient_identity.self_s": row("bounds.det_quotient_identity")["self_s"],
        "bounds.classify_stability.self_s": row("bounds.classify_stability")["self_s"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.self_share"] = _ratio(layer_self[layer], op_wall)
    return {"metrics": out, "by_name": names, "op_wall_s": op_wall}
