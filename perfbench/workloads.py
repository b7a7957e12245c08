"""The benchmark's workloads: set-up, timed stages and output checks.

Both workloads run the same stages so that every run reports every
end-to-end metric.  A run is ``ROUNDS`` rounds.  Each round is

* one set-up repetition: a fresh interpreter importing what the
  benchmark imports, library, netlists, clock selection, then the
  serving flow -- booth16 on a 2x4 grid implemented, explored and
  compiled into a mode table -- and a fresh serving stack over it
  (scheduler, in-process ``AccuracyServer``, 1-worker ``FleetRouter``),
  with every lazy one-time cost paid;
* a replay chunk, a closed-loop server chunk and a fleet chunk on that
  stack, each fixed work.

Every timed interval is converted to seconds at reference host speed by
probes around it (:mod:`hostspeed`).  ``setup_s`` is the median
repetition, and on ``serve-guarded`` ``flow_s`` is the median serving
flow inside them (see :meth:`Run.rounds`).  Set-up and chunks
alternate, so host drift lands on every metric alike.  ``design-flow``
adds the flow stage: booth16 2x6 after the first set-up and fir30 3x3
after a middle one, each through implement -> explore -> compile.

Every set-up repetition and flow-stage design starts with an empty
activity memo, so each pays the simulation a fresh ``repro explore``
process pays.  Each also starts from a fresh heap (:func:`_fresh_heap`),
outside the timed interval: what the previous one left behind is not
what a user's process holds, and how much of it was still mapped moved
peak RSS by up to 10% between runs.

Work is serial in one process plus the single fleet worker.  Every
generated input derives from the run's seed.
"""

from __future__ import annotations

import asyncio
import ctypes
import ctypes.util
import gc
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import exploration
from repro.core import flow as core_flow
from repro.core.config import ExplorationSettings
from repro.core.runtime import WorkloadPhase
from repro.faults import SiliconEnvironment, recovery_schedule
from repro.faults.environment import TEMP_SLOWDOWN_PER_C
from repro.fleet.router import FleetRouter
from repro.operators import booth_multiplier, fir_filter
from repro.operators.fir import FirParameters
from repro.pnr.grid import GridPartition
from repro.serve import scheduler as scheduler_mod
from repro.serve import table as table_mod
from repro.serve.guard import MarginGuard
from repro.serve.policy import make_policy
from repro.serve.recal import RecalibrationLoop
from repro.serve.server import AccuracyServer
from repro.sim.activity import clear_activity_cache
from repro.sta.caseanalysis import dvas_case
from repro.sta.engine import StaEngine
from repro.techlib.library import Library
from repro.traces import TRACE_FAMILIES, generate_suite, generate_trace

from hostspeed import HostMeter
from report import Ledger, median, percentile

#: Seed whose design-flow frontiers are pinned by the stored golden.
DEFAULT_SEED = 2017
ROUNDS = 6
WIDTH = 16
TAPS = 30
SERVE_DESIGN = ("booth16", (2, 4))
#: One server frame's worth (its drain window is 32).  With 64 callers
#: the latency had two modes, one and two frames long, and the p50 sat
#: between them: it moved by up to 40% between runs while the rate
#: moved by 15%.
CALLERS = 32
OPERATORS = 8
#: Above CALLERS, so the closed loop never overflows the server queue.
MAX_PENDING = 2 * CALLERS
CALLER_STREAM = 2048
#: Requests per caller in the deterministic block energy is read from:
#: each caller's whole stream.  At half of it the seed-to-seed spread of
#: energy per request was 0.021; at the whole stream, 0.005-0.009.
ENERGY_BLOCK = CALLER_STREAM
TRACE_LENGTH = 10_000
FLEET_LIST = 512
FLEET_LISTS = 8
MEAN_CYCLES = 2000
#: Requests per caller in one closed-loop slice between two host-speed
#: probes: 128 frames of 32, about 0.12 s at reference speed.
SERVER_SLICE = 128

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_design_flow.json")
#: A fresh interpreter importing what the benchmark imports before its
#: first timed call: the import cost each set-up repetition pays.
IMPORT_CMD = [
    sys.executable,
    "-c",
    "import sys; sys.path[:0] = sys.argv[1:]; import workloads",
    HERE,
    os.path.join(os.path.dirname(HERE), "src"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Designs timed in the flow stage; empty means flow_s is timed on
    #: the serving flow inside each set-up repetition.
    flow_designs: Tuple[Tuple[str, Tuple[int, int]], ...]
    guarded: bool
    replay_policy: str
    #: Items per second of each serve stage at reference host speed,
    #: measured; they size the stages' fixed work (see Run.slices).
    reference_rps: Dict[str, float]


WORKLOADS = {
    "design-flow": Workload(
        "design-flow",
        (("booth16", (2, 6)), ("fir30", (3, 3))),
        False,
        "greedy",
        {"replay": 460_000.0, "server": 36_000.0, "fleet": 27_000.0},
    ),
    "serve-guarded": Workload(
        "serve-guarded",
        (),
        True,
        "lookahead",
        {"replay": 280_000.0, "server": 28_000.0, "fleet": 26_000.0},
    ),
}


def _stream(index: int, seed: int, levels: List[int], length: int):
    """Request stream *index*: (required bits, cycles) lists drawn from
    the repository's trace families in turn."""
    family = TRACE_FAMILIES[index % len(TRACE_FAMILIES)]
    trace = generate_trace(
        family, seed=seed, length=length, bits_levels=levels, mean_cycles=MEAN_CYCLES
    )
    bits, cycles = zip(*trace.to_phases())
    return list(bits), list(cycles)


class Inputs:
    """Every generated input of a run, made once from its seed."""

    def __init__(self, table, workload: Workload, seed: int):
        levels = list(table.bitwidths)
        # Each caller stream and fleet list has its own seed derived from
        # the run's, apart from the replay suite's (seed + family index).
        seeds = np.random.SeedSequence([seed, 1]).generate_state(CALLERS + FLEET_LISTS)
        self.streams = [
            _stream(c, int(seeds[c]), levels, CALLER_STREAM) for c in range(CALLERS)
        ]
        self.cursor = [0] * CALLERS
        self.fleet_lists = []
        for k in range(FLEET_LISTS):
            bits, cycles = _stream(k, int(seeds[CALLERS + k]), levels, FLEET_LIST)
            self.fleet_lists.append(
                [(f"fleet{i % OPERATORS}", bits[i], cycles[i]) for i in range(FLEET_LIST)]
            )
        self.traces = [
            (family, [WorkloadPhase(b, c) for b, c in trace.to_phases()])
            for family, trace in generate_suite(
                seed=seed,
                length=TRACE_LENGTH,
                bits_levels=levels,
                mean_cycles=MEAN_CYCLES,
            ).items()
        ]
        self.schedule = None
        self.recal_interval_ns = 0.0
        if workload.guarded:
            # Horizon = virtual span of the energy block on its busiest
            # operator, so the excursion and relapse land inside it.
            per_op = [0] * OPERATORS
            for c, (_, cycles) in enumerate(self.streams):
                per_op[c % OPERATORS] += sum(cycles[:ENERGY_BLOCK])
            horizon_ns = max(per_op) / table.fclk_ghz
            period_ps = 1e3 / table.fclk_ghz
            widest = max(m.guarded_slack_ps for m in table.margins.values())
            self.schedule = recovery_schedule(
                horizon_ns,
                magnitude=1.5 * widest / (TEMP_SLOWDOWN_PER_C * period_ps),
                relapse=True,
                seed=seed,
            )
            self.recal_interval_ns = horizon_ns / 32.0


class Serving:
    """The serving stack of one set-up repetition."""

    def __init__(self, table, inputs: Inputs, seed: int, tracer, meter: HostMeter):
        self.table = table
        self.ops = [f"op{k}" for k in range(OPERATORS)]
        guard = recal = None
        schedules = None
        if inputs.schedule is not None:
            guard = MarginGuard(table, SiliconEnvironment(inputs.schedule))
            recal = RecalibrationLoop(guard, inputs.recal_interval_ns, seed=seed)
            schedules = {0: inputs.schedule.to_dict()}
        self.recal = recal
        self.scheduler = scheduler_mod.ModeScheduler(
            table, num_generators=2, policy="greedy", guard=guard, recal=recal
        )
        for op in self.ops:
            self.scheduler.register(op)
        with tracer.span("serve.compiled.lower") if tracer else nullcontext():
            compiled = self.scheduler.compiled_for(table)
        compiled.decision_table(make_policy("greedy", table))

        self.loop = asyncio.new_event_loop()
        self.server = AccuracyServer(self.scheduler, max_pending=MAX_PENDING)
        self.loop.run_until_complete(self.server.start())
        self.router = FleetRouter(
            table,
            workers=1,
            num_generators=2,
            policy="greedy",
            guard=guard is not None,
            schedules=schedules,
            recal_interval_ns=inputs.recal_interval_ns,
            recal_seed=seed,
        )
        self.router.start()
        for child in multiprocessing.active_children():
            meter.pin_worker(child.pid)
        # Worker-side lowering and decision tables happen on first use.
        self.router.submit_many([("warmup", table.max_bits, MEAN_CYCLES)])

    def close(self, ledger: Ledger):
        """Check telemetry, stop the stack; return (counters, fleet stats,
        KiB private to the fleet worker)."""
        counters = self.scheduler.telemetry.snapshot()["counters"]
        ledger.record(
            "server.telemetry",
            counters["accuracy_violations"] == 0,
            f"{counters['accuracy_violations']} accuracy violations",
        )
        fleet = self.router.stats()
        ledger.record(
            "fleet.telemetry",
            fleet["counters"].get("accuracy_violations", 0) == 0
            and fleet["failovers"] == 0,
            f"fleet stats {fleet['counters']}, {fleet['failovers']} failovers",
        )
        # A forked worker shares the parent's pages until it writes them,
        # so its share of the tree's footprint is its private pages, read
        # before it stops.
        private_kb = sum(
            _private_kb(child.pid) for child in multiprocessing.active_children()
        )
        self.stop()
        return counters, fleet, private_kb

    def stop(self) -> None:
        """Stop the fleet worker (joined) and the server, unchecked."""
        self.router.stop()
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.ledger = Ledger()
        self.settings = ExplorationSettings(seed=seed)
        self.points_evaluated = 0
        self.points_feasible = 0
        self.values: Dict[str, float] = {}
        self.notes: List[str] = []
        self.import_s: List[float] = []
        self.meter = HostMeter()
        #: Per serve stage: [items, wall seconds, reference seconds].
        self.stages = {key: [0, 0.0, 0.0] for key in ("replay", "server", "fleet")}
        #: Every timed server request's latency at reference speed, and
        #: each closed-loop slice's p99 with the count beyond it.
        self.server_latencies = array("d")
        self.slice_p99: List[Tuple[float, int]] = []
        self.design_ctx = None
        self.inputs: Optional[Inputs] = None
        self.serving: Optional[Serving] = None
        self.replay_reports: Dict[str, object] = {}
        self.frontiers: Dict[str, list] = {}
        self.server_counters: Counter = Counter()
        self.fleet_counters: Counter = Counter()
        self.fleet_failovers = 0
        self.worker_kb = 0

    def _span(self, name: str, group: Optional[str] = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, group)

    # -- set-up --------------------------------------------------------------

    def _explore(self, factory, library, grid, clock):
        clear_activity_cache()
        design = core_flow.implement_with_domains(
            factory, library, GridPartition(*grid), constraint=clock
        )
        result = exploration.ExhaustiveExplorer(design).run(self.settings)
        self.points_evaluated += result.points_evaluated
        self.points_feasible += result.points_feasible
        return design, result

    def _step(self, fn, *args, fleet: bool = False):
        """Run one timed step of set-up; returns (its result, wall
        seconds, seconds at reference speed).  A probe ends it."""
        start = time.perf_counter()
        out = fn(*args)
        wall_s = time.perf_counter() - start
        return out, wall_s, wall_s * self.meter.scale(fleet)

    def _design_context(self):
        library = Library()
        factories = {
            "booth16": lambda: booth_multiplier(library, WIDTH, name="booth16"),
            "fir30": lambda: fir_filter(
                library, FirParameters(taps=TAPS, width=WIDTH), name="fir30"
            ),
        }
        names = {SERVE_DESIGN[0]} | {d for d, _ in self.workload.flow_designs}
        clocks = {
            name: core_flow.select_clock_for(factories[name], library)
            for name in sorted(names)
        }
        return library, factories, clocks

    def setup(self, rep: int) -> Dict[str, float]:
        """One set-up repetition, a fresh interpreter's imports included,
        timed in steps with a probe between each; returns the wall and
        reference seconds of set-up and of its serving flow.

        The previous stack is closed and the inputs are generated (first
        repetition only) outside the timed intervals.
        """
        if self.serving is not None:
            self._close_serving()
        _fresh_heap()
        self.meter.mark()
        steps = []
        with self._span("stage.setup", f"setup#{rep}"):
            steps.append(self._step(subprocess.run, IMPORT_CMD))
            steps.append(self._step(self._design_context))
            library, factories, clocks = self.design_ctx = steps[-1][0]
            name, grid = SERVE_DESIGN
            steps.append(
                self._step(self._explore, factories[name], library, grid, clocks[name])
            )
            design, result = steps[-1][0]
            steps.append(
                self._step(
                    lambda: table_mod.compile_mode_table(
                        design, result, with_margins=self.workload.guarded
                    )
                )
            )
            table = steps[-1][0]
            if self.inputs is None:
                self.inputs = Inputs(table, self.workload, self.seed)
                self.meter.mark()
            steps.append(
                self._step(
                    Serving, table, self.inputs, self.seed, self.tracer, self.meter,
                    fleet=True,
                )
            )
            self.serving = steps[-1][0]
        steps[0][0].check_returncode()
        self.import_s.append(steps[0][1])
        flow = steps[2:4]
        return {
            "setup_wall": sum(step[1] for step in steps),
            "setup": sum(step[2] for step in steps),
            "flow_wall": sum(step[1] for step in flow),
            "flow": sum(step[2] for step in flow),
        }

    def _close_serving(self) -> None:
        counters, fleet, private_kb = self.serving.close(self.ledger)
        self.server_counters.update(counters)
        self.fleet_counters.update(fleet["counters"])
        self.fleet_failovers += fleet["failovers"]
        self.worker_kb = max(self.worker_kb, private_kb)
        self.serving = None

    # -- flow stage ----------------------------------------------------------

    def flow_design(self, name: str, grid: Tuple[int, int]) -> Tuple[float, float]:
        """One design through the flow stage; returns its (wall seconds,
        seconds at reference speed)."""
        library, factories, clocks = self.design_ctx
        _fresh_heap()
        self.meter.mark()
        with self._span("stage.flow", f"flow#{name}"):
            (design, result), explore_wall, explore_ref = self._step(
                self._explore, factories[name], library, grid, clocks[name]
            )
            _, compile_wall, compile_ref = self._step(
                table_mod.compile_mode_table, design, result
            )
        self._check_frontier(name, design, result)
        return explore_wall + compile_wall, explore_ref + compile_ref

    def _check_frontier(self, name, design, result) -> None:
        """Re-time every frontier point with the pointwise engine."""
        with self._span("stage.check"):
            sta = StaEngine(design.timing_graph(), design.netlist.library)
            frontier = []
            for point in result.pareto():
                fbb = np.asarray(point.bb_config, dtype=bool)[design.domains]
                report = sta.analyze(
                    design.constraint,
                    point.vdd,
                    fbb,
                    case=dvas_case(design.netlist, point.active_bits),
                    compute_required=False,
                )
                slack = report.worst_slack_ps
                self.ledger.record(
                    "flow.frontier",
                    slack >= 0.0 and slack == point.worst_slack_ps,
                    f"{name} {point.active_bits} bits: pointwise slack "
                    f"{slack!r} vs explored {point.worst_slack_ps!r}",
                )
                frontier.append(
                    [
                        point.active_bits,
                        point.vdd,
                        [int(b) for b in point.bb_config],
                        point.total_power_w,
                        point.worst_slack_ps,
                    ]
                )
            self.ledger.record(
                "flow.frontier_size",
                len(frontier) == len(self.settings.bitwidths),
                f"{name}: {len(frontier)} frontier points",
            )
            self.frontiers.setdefault(name, frontier)

    def check_golden(self) -> None:
        if not self.frontiers or self.seed != DEFAULT_SEED:
            return
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        for name, frontier in self.frontiers.items():
            self.ledger.record(
                "flow.golden",
                golden.get(name) == frontier,
                f"{name} frontier differs from the stored golden",
            )

    # -- rounds --------------------------------------------------------------

    def rounds(self) -> None:
        """Set-up repetitions alternating with chunks of every serve
        stage.

        Every timed interval is converted to seconds at reference host
        speed (see :mod:`hostspeed`): each set-up repetition and
        flow-stage design between two probes, and each serve chunk as
        slices with a probe after each.  ``setup_s`` is the median
        repetition; ``flow_s`` is the flow stage's designs summed or, on
        serve-guarded, the median serving flow.  Each rate is the
        stage's items over its reference seconds.  Each timed server
        request's latency is scaled by its slice's factor;
        ``serve_p50_ms`` is their median and ``serve_p99_ms`` the median
        of the slices' p99s.  The wall-clock figures are printed beside
        them.
        """
        results = {key: [] for key in ("setup", "flow", "setup_wall", "flow_wall")}
        # The flow stage's designs go to rounds spread over the run.
        designs = self.workload.flow_designs
        at_round = {i * ROUNDS // len(designs): d for i, d in enumerate(designs)}
        flow_stage = []
        for r in range(ROUNDS):
            for key, value in self.setup(r).items():
                results[key].append(value)
            if r in at_round:
                flow_stage.append(self.flow_design(*at_round[r]))
            self._replay_chunk(r)
            self._server_chunk(r)
            self._fleet_chunk(r)
        self.values["setup_s"] = median(results["setup"])
        if designs:
            self.values["flow_s"] = sum(ref for _, ref in flow_stage)
            self.notes.append(
                "flow stage: "
                + ", ".join(f"{wall:.3f} s wall, {ref:.3f} s" for wall, ref in flow_stage)
            )
        else:
            self.values["flow_s"] = median(results["flow"])
        results["imports_wall"] = self.import_s
        for key in ("setup", "setup_wall", "imports_wall", "flow", "flow_wall"):
            self.notes.append(
                f"{key}: " + ", ".join(f"{v:.6g}" for v in results[key]) + " s"
            )
        for key, metric in (
            ("replay", "replay_rps"), ("server", "serve_rps"), ("fleet", "fleet_rps")
        ):
            items, wall_s, ref_s = self.stages[key]
            self.values[metric] = items / ref_s
            self.notes.append(
                f"{key}: {items} in {wall_s:.4f} s wall, {items / wall_s:.6g} /s wall"
            )
        latencies = self.server_latencies
        p50, beyond50 = percentile(latencies, 50)
        self.values["serve_p50_ms"] = p50 * 1e3
        # A typical slice's tail: one probe pair cannot follow a state
        # switch inside its slice, and the p99 of all requests took every
        # such slice's excess.
        self.values["serve_p99_ms"] = median(p for p, _ in self.slice_p99) * 1e3
        beyond99 = sum(beyond for _, beyond in self.slice_p99)
        self.latency_stats = {
            "samples": len(latencies),
            "beyond_p50": beyond50,
            "beyond_p99": beyond99,
        }
        self.notes.append(
            f"server latency: {len(latencies)} samples, {beyond50} beyond p50; "
            f"p99 of each of {len(self.slice_p99)} slices, {beyond99} beyond them"
        )
        self.notes += self.meter.describe()

    def _book(self, stage: str, items: int, wall_s: float) -> float:
        """Book one timed slice of a serve stage, probing the host after
        it; returns the slice's scale factor."""
        factor = self.meter.scale(fleet=stage == "fleet")
        totals = self.stages[stage]
        totals[0] += items
        totals[1] += wall_s
        totals[2] += wall_s * factor
        return factor

    def slices(self, stage: str, items: int) -> int:
        """Slices of *items* each in one chunk of *stage*.

        Every chunk does fixed work, so that every run serves the same
        requests whatever the host's speed: in serve-guarded the cost of
        a request depends on where in the fault schedule it falls.  The
        work is sized so that the three stages of a round take
        ``--seconds`` / ``ROUNDS`` at the reference rates.  Each rate
        rests on all of its stage's chunks, a third of ``--seconds``.
        """
        chunk_s = self.seconds / (3 * ROUNDS)
        return max(1, round(chunk_s * self.workload.reference_rps[stage] / items))

    def _replay_chunk(self, r: int) -> None:
        """Passes over the traces, a slice each."""
        table = self.serving.table
        policy = self.workload.replay_policy
        clock = time.perf_counter
        per_pass = sum(len(workload) for _, workload in self.inputs.traces)
        self.meter.mark()
        for _ in range(self.slices("replay", per_pass)):
            with self._span("stage.replay", f"replay#{r}"):
                phases = 0
                start = clock()
                for family, workload in self.inputs.traces:
                    report = scheduler_mod.replay_trace(table, workload, policy=policy)
                    self.ledger.record(
                        "replay",
                        report.phases == len(workload),
                        f"{family}: {report.phases} of {len(workload)} phases",
                    )
                    self.replay_reports.setdefault(family, report)
                    phases += len(workload)
                elapsed = clock() - start
            self._book("replay", phases, elapsed)

    def _server_chunk(self, r: int) -> None:
        """The closed loop in slices of ``SERVER_SLICE`` requests per
        caller.  The first round starts with the energy block, a slice
        of its own."""
        serving = self.serving
        inputs = self.inputs
        server = serving.server
        clock = time.perf_counter

        async def caller(c: int, block: int, latencies):
            op = serving.ops[c % OPERATORS]
            bits_l, cycles_l = inputs.streams[c]
            size = len(bits_l)
            j = inputs.cursor[c]
            done = bad = 0
            energy_j = 0.0
            while done < block:
                bits = bits_l[j % size]
                cycles = cycles_l[j % size]
                j += 1
                sent = clock()
                phase = await server.request(op, bits, cycles)
                latencies.append(clock() - sent)
                done += 1
                if phase.served_bits < bits:
                    bad += 1
                energy_j += phase.compute_energy_j + phase.transition_energy_j
            inputs.cursor[c] = j
            return done, bad, energy_j

        async def callers(block: int, latencies):
            return await asyncio.gather(
                *(caller(c, block, latencies) for c in range(CALLERS))
            )

        def closed_loop(block: int):
            """One slice; returns the callers' results."""
            # Compact, so peak RSS does not grow with the requests served.
            latencies = array("d")
            with self._span("stage.server", f"server#{r}"):
                start = clock()
                results = serving.loop.run_until_complete(callers(block, latencies))
                elapsed = clock() - start
            count = sum(res[0] for res in results)
            self.ledger.record_many("server", count, sum(res[1] for res in results))
            factor = self._book("server", count, elapsed)
            scaled = np.frombuffer(latencies) * factor
            self.server_latencies.frombytes(scaled.tobytes())
            self.slice_p99.append(percentile(scaled.tolist(), 99))
            return results

        self.meter.mark()
        if r == 0:
            recal = serving.recal
            probe_before = recal.probe_energy_j if recal else 0.0
            results = closed_loop(ENERGY_BLOCK)
            probe_j = (recal.probe_energy_j if recal else 0.0) - probe_before
            count = sum(res[0] for res in results)
            energy_j = sum(res[2] for res in results) + probe_j
            self.values["energy_pj_per_req"] = energy_j * 1e12 / count
        for _ in range(self.slices("server", CALLERS * SERVER_SLICE)):
            closed_loop(SERVER_SLICE)

    def _fleet_chunk(self, r: int) -> None:
        """Passes over the request lists, a slice each."""
        router = self.serving.router
        clock = time.perf_counter
        self.meter.mark()
        for _ in range(self.slices("fleet", FLEET_LISTS * FLEET_LIST)):
            with self._span("stage.fleet", f"fleet#{r}"):
                served = 0
                start = clock()
                for requests in self.inputs.fleet_lists:
                    replies = router.submit_many(requests)
                    bad = sum(
                        1
                        for (_, bits, _), reply in zip(requests, replies)
                        if reply is None or reply.served_bits < bits
                    )
                    self.ledger.record_many("fleet", len(requests), bad)
                    served += len(requests)
                elapsed = clock() - start
            self._book("fleet", served, elapsed)

    # -- closing checks ------------------------------------------------------

    def finish(self) -> None:
        table = self.serving.table
        self._close_serving()
        # The batch kernel must replay each trace exactly as the scalar
        # reference loop does.
        with self._span("stage.check", "check"):
            for family, workload in self.inputs.traces:
                scalar = scheduler_mod.replay_trace(
                    table,
                    workload,
                    policy=self.workload.replay_policy,
                    engine="scalar",
                )
                self.ledger.record(
                    "replay.scalar_identity",
                    scalar == self.replay_reports[family],
                    f"{family}: batch and scalar replay reports differ",
                )
        self.check_golden()
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.values["peak_rss_mb"] = (self_kb + self.worker_kb) / 1024.0
        self.notes.append(
            f"peak rss: {self_kb / 1024:.1f} MB self + "
            f"{self.worker_kb / 1024:.1f} MB private to the fleet worker"
        )


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def _fresh_heap() -> None:
    """Collect garbage and hand free heap pages back to the OS, so the
    next stage starts from a heap like a fresh process's: what earlier
    stages freed no longer decides where its peak RSS lands."""
    gc.collect()
    _LIBC.malloc_trim(0)


def _private_kb(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        return sum(
            int(line.split()[1])
            for line in handle
            if line.startswith(("Private_Clean:", "Private_Dirty:"))
        )


def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process that the fleet's shared
    table segment started, so the run leaves no process behind.  Left to
    itself the tracker outlives the run until it reads end-of-file."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run(name: str, seed: int, seconds: float, tracer=None) -> Run:
    bench = Run(WORKLOADS[name], seed, seconds, tracer)
    try:
        bench.rounds()
        bench.finish()
    finally:
        # On every way out.  The fleet worker goes before the tracker,
        # which reads end-of-file only once no process holds its pipe.
        try:
            if bench.serving is not None:
                bench.serving.stop()
                bench.serving = None
        finally:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join()
            _stop_resource_tracker()
    return bench
