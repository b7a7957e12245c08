"""Per-layer metrics of the traced run.

:func:`install` wraps the public call each layer exposes, at the name the
caller looks it up by (a function imported into another module is
wrapped where that module binds it).  :func:`layer_metrics` turns the
recorded spans plus the run's own counters into the per-layer numbers
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from tracing import Tracer, layer_totals, nested_calls

FRAME = "serve.scheduler.frame"
REPLAY = "serve.scheduler.replay"
SUBMIT = "serve.scheduler.submit"
DEGRADED = "serve.scheduler.degraded"


def install(tracer: Tracer) -> None:
    from repro.core import exploration
    from repro.core import flow as core_flow
    from repro.fleet import router as router_mod
    from repro.pnr.placer import GlobalPlacer
    from repro.power.analysis import PowerAnalyzer
    from repro.serve import scheduler as scheduler_mod
    from repro.serve import table as table_mod
    from repro.serve.recal import RecalibrationLoop
    from repro.sta.lattice import LatticeStaEngine

    wrap = tracer.wrap
    wrap(core_flow, "select_clock_for", "core.flow.clock")
    wrap(core_flow, "implement_with_domains", "core.flow")
    wrap(GlobalPlacer, "run", "pnr.placer")
    wrap(core_flow, "insert_domains", "pnr.grid")
    wrap(core_flow, "incremental_place", "pnr.grid")
    wrap(core_flow, "extract_parasitics", "pnr.parasitics")
    wrap(core_flow, "timing_fix", "pnr.sizing")
    wrap(core_flow, "power_recovery", "pnr.sizing")
    wrap(exploration.ExhaustiveExplorer, "__init__", "core.exploration.init")
    wrap(exploration.ExhaustiveExplorer, "run", "core.exploration")
    wrap(exploration, "dvas_case", "sta.caseanalysis")
    wrap(exploration, "measure_activity", "sim.activity")
    wrap(LatticeStaEngine, "analyze_ladder", "sta.lattice")
    wrap(PowerAnalyzer, "total_batch", "power")
    wrap(table_mod, "compile_mode_table", "serve.table.compile")
    wrap(table_mod, "compile_margins", "serve.table.margins")
    scheduler = scheduler_mod.ModeScheduler
    wrap(scheduler, "submit_batch", FRAME, count=lambda self, reqs, *a, **k: len(reqs))
    wrap(
        scheduler,
        "submit_batch_arrays",
        FRAME,
        count=lambda self, ops, bits, *a, **k: len(bits),
    )
    wrap(scheduler_mod, "replay_trace", REPLAY, count=lambda t, work, *a, **k: len(work))
    wrap(scheduler, "submit", SUBMIT)
    wrap(scheduler, "submit_degraded", DEGRADED)
    wrap(RecalibrationLoop, "recalibrate", "serve.recal")
    wrap(
        router_mod.FleetRouter,
        "submit_many",
        "fleet.router",
        count=lambda self, reqs: len(reqs),
    )
    wrap(router_mod, "connection_wait", "fleet.router.wait")
    wrap(router_mod, "encode_batch", "fleet.frame")


def _in_groups(cols, tracer: Tracer, prefix: str) -> np.ndarray:
    names = np.array(tracer.groups, dtype=object)[cols["group"]]
    return np.array([n.startswith(prefix) for n in names], dtype=bool)


def _subset(cols, mask):
    """Spans under *mask*, parent links re-indexed (outside -> -1)."""
    index = np.full(len(mask), -1, dtype=np.int64)
    index[mask] = np.arange(int(mask.sum()))
    sub = {key: col[mask] for key, col in cols.items()}
    parent = sub["parent"]
    sub["parent"] = np.where(parent >= 0, index[np.maximum(parent, 0)], -1)
    return sub


def _fast_path_frac(cols, frame_name: str) -> float:
    totals = layer_totals(cols)
    requests = totals.get(frame_name, {}).get("requests", 0)
    if requests == 0:
        return 0.0
    return 1.0 - nested_calls(cols, SUBMIT, {frame_name}) / requests


def layer_metrics(tracer: Tracer, bench) -> Dict[str, float]:
    cols = tracer.columns()
    totals = layer_totals(cols)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    m: Dict[str, float] = {}
    # Implement (core.flow + pnr).
    m["core.flow.clock.busy_s"] = get("core.flow.clock", "busy_s")
    m["core.flow.clock.self_s"] = get("core.flow.clock", "self_s")
    m["core.flow.busy_s"] = get("core.flow", "busy_s")
    m["core.flow.self_s"] = get("core.flow", "self_s")
    m["pnr.placer.busy_s"] = get("pnr.placer", "busy_s")
    m["pnr.grid.busy_s"] = get("pnr.grid", "busy_s")
    for layer in ("pnr.parasitics", "pnr.sizing"):
        m[f"{layer}.busy_s"] = get(layer, "busy_s")
        m[f"{layer}.calls"] = get(layer, "calls")
    # Exploration and the layers under it.
    m["core.exploration.init_s"] = get("core.exploration.init", "busy_s")
    m["core.exploration.busy_s"] = get("core.exploration", "busy_s")
    m["core.exploration.self_s"] = get("core.exploration", "self_s")
    evaluated = bench.points_evaluated
    feasible = bench.points_feasible
    m["core.exploration.points_evaluated"] = evaluated
    m["core.exploration.points_feasible"] = feasible
    m["core.exploration.feasible_frac"] = feasible / evaluated
    for layer in ("sta.caseanalysis", "sim.activity", "sta.lattice", "power"):
        m[f"{layer}.busy_s"] = get(layer, "busy_s")
        m[f"{layer}.calls"] = get(layer, "calls")
    # Table compilation and lowering (set-up).
    m["serve.table.compile_s"] = get("serve.table.compile", "busy_s")
    m["serve.table.compile.self_s"] = get("serve.table.compile", "self_s")
    m["serve.table.margins_s"] = get("serve.table.margins", "busy_s")
    m["serve.compiled.lower_s"] = get("serve.compiled.lower", "busy_s")

    # Scheduler kernel: replay frames, and the server's frames.
    server = _subset(cols, _in_groups(cols, tracer, "server#"))
    replay = _subset(cols, _in_groups(cols, tracer, "replay#"))
    s_tot = layer_totals(server)
    r_tot = layer_totals(replay)

    def both(key: str, server_name: str, replay_name: str) -> float:
        return s_tot.get(server_name, {}).get(key, 0) + r_tot.get(
            replay_name, {}
        ).get(key, 0)

    frames = both("calls", FRAME, REPLAY)
    requests = both("requests", FRAME, REPLAY)
    m["serve.scheduler.frames"] = frames
    m["serve.scheduler.frame_requests"] = requests
    m["serve.scheduler.mean_frame"] = requests / frames if frames else 0.0
    m["serve.scheduler.frame_busy_s"] = both("busy_s", FRAME, REPLAY)
    m["serve.scheduler.frame_self_s"] = both("self_s", FRAME, REPLAY)
    m["serve.scheduler.scalar_requests"] = both("calls", SUBMIT, SUBMIT)
    m["serve.scheduler.scalar_busy_s"] = both("busy_s", SUBMIT, SUBMIT)
    m["serve.scheduler.fast_path_frac"] = _fast_path_frac(server, FRAME)
    m["serve.scheduler.replay_fast_path_frac"] = _fast_path_frac(replay, REPLAY)

    # Server front end: scheduler calls made directly by the server
    # stage versus the stage's wall time (one thread, no overlap).
    stage = server["name"] == "stage.server"
    wall = float((server["end"] - server["start"])[stage].sum())
    top = np.isin(server["parent"], np.flatnonzero(stage)) & np.isin(
        server["name"], [FRAME, SUBMIT, DEGRADED]
    )
    busy = float((server["end"] - server["start"])[top].sum())
    m["serve.server.kernel_frac"] = busy / wall
    m["serve.server.overhead_s"] = wall - busy
    m["serve.server.degraded"] = s_tot.get(DEGRADED, {}).get("calls", 0)
    m["serve.server.latency_samples"] = bench.latency_stats["samples"]
    m["serve.server.beyond_p50"] = bench.latency_stats["beyond_p50"]
    m["serve.server.beyond_p99"] = bench.latency_stats["beyond_p99"]

    # Guard and recalibration (in-process scheduler telemetry, summed
    # over the run's serving stacks).
    counters = bench.server_counters
    m["serve.guard.margin_fallbacks"] = counters["margin_fallbacks"]
    m["serve.recal.probes"] = counters["recal_probes"]
    m["serve.recal.demotions"] = counters["recal_demotions"]
    m["serve.recal.readvances"] = counters["recal_readvances"]
    m["serve.recal.busy_s"] = get("serve.recal", "busy_s")

    # Fleet router and its worker.
    m["fleet.router.busy_s"] = get("fleet.router", "busy_s")
    m["fleet.router.wait_s"] = get("fleet.router.wait", "busy_s")
    m["fleet.router.self_s"] = get("fleet.router", "self_s")
    m["fleet.frames"] = get("fleet.frame", "calls")
    m["fleet.failovers"] = bench.fleet_failovers
    for key in ("requests", "mode_switches", "margin_fallbacks", "recal_probes", "degraded"):
        m[f"fleet.worker.{key}"] = bench.fleet_counters[key]
    m["trace.spans"] = len(cols["start"])
    return m
