"""Whole-lattice batched STA: every BB combination in one tensor pass.

The exploration phase evaluates all 2^NMAX back-bias assignments of a
domain-partitioned design per (bitwidth, VDD) knob point and discards the
timing-infeasible ones (the paper reports ~75 % rejected).  The timing
graph is the *same* for every assignment -- only per-cell delay factors
``f(VDD, Vth[domain])`` change -- so the whole lattice can share one
levelized sweep: arrival and required times become ``(combos, nets)``
matrices with the BB combination stacked on a leading axis, the per-arc
delay broadcasts as a ``(combos, arcs-in-level)`` block, and the
infeasibility filter collapses to one masked reduction per knob point.

Unlike the float32 throughput engine in :mod:`repro.sta.batch`, this
kernel computes in float64 with exactly the scalar engine's operations
(same multiplies, same exact max/min reductions, same POS_INF masking),
so its per-combo WNS, feasibility mask and critical-endpoint ids are
**bit-identical** to looping :meth:`repro.sta.engine.StaEngine.analyze`
over the combinations -- the differential and hypothesis suites hold it
to that.  It also runs the backward (required-time) sweep on the same
lattice axis, which no previous batched path offered.

Engine selection mirrors the simulation engines of PR 3: exploration
callers pass ``"auto"`` / ``"lattice"`` / ``"pointwise"`` (settings
field, ``--sta-engine`` flag, or ``$REPRO_STA_ENGINE``), where
``pointwise`` is the per-combination scalar reference loop and ``auto``
resolves to the lattice kernel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.sta.caseanalysis import CaseAnalysis, UNKNOWN
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import NEG_INF, POS_INF, StaEngine
from repro.sta.graph import TimingGraph
from repro.sta.sweep import LevelizedSchedule, schedule_for
from repro.techlib.library import Library

#: Environment variable selecting the default STA engine.
STA_ENGINE_ENV_VAR = "REPRO_STA_ENGINE"

#: Valid engine requests.  ``pointwise`` loops the scalar engine over the
#: BB combinations (the reference semantics); ``lattice`` sweeps them all
#: in one tensor pass; ``auto`` resolves to ``lattice``.
STA_ENGINES = ("auto", "lattice", "pointwise")

#: Bump when the lattice kernel's numerics or result schema change; the
#: shard-cache fingerprint embeds it so stale entries miss instead of
#: being served to a differently-shaped run.
LATTICE_SCHEMA = 1


def resolve_sta_engine(engine: Optional[str]) -> str:
    """Normalize an engine request (None -> ``$REPRO_STA_ENGINE`` -> auto).

    Returns the engine that will actually run (``"lattice"`` or
    ``"pointwise"``) -- cache fingerprints key on this resolved value, so
    an explicit ``--sta-engine lattice`` and a defaulted ``auto`` share
    shard entries while lattice and pointwise runs never do.
    """
    from repro.core.config import resolve_env_choice

    requested = resolve_env_choice(
        engine, STA_ENGINE_ENV_VAR, STA_ENGINES, what="STA engine"
    )
    return "pointwise" if requested == "pointwise" else "lattice"


# -- lattice-layout sweep kernels -------------------------------------------


@dataclass
class _PaddedLevel:
    """One level of a sweep, compiled for rectangular segment reduction.

    ``ufunc.reduceat`` over ragged segments is the right tool for the
    scalar sweep's 1-D arrays but is slow on 2-D lattice blocks, so the
    lattice precompiles each level into a *padded* index matrix:
    segment *s*'s j-th arc sits at padded slot ``s * fanin + j``, with
    short segments padded by repeating their last arc.  ``max``/``min``
    are exact and idempotent, so the duplicates and the changed
    reduction order cannot move a single bit relative to the ragged
    left-fold.

    ``endpoint_pad`` is ``arc_from`` (forward) / ``arc_to`` (backward)
    of the level's padded arcs -- the gather side precomputed once, a
    flat ``(segments * fanin,)`` array so the sweep can add into one
    preallocated 2-D scratch block.  ``lo:hi`` are the level's rows of
    its sweep's padded arc axis (:class:`_PaddedSweep`).
    """

    endpoint_pad: np.ndarray
    segments: int
    fanin: int
    nets: np.ndarray
    lo: int
    hi: int


@dataclass
class _PaddedSweep:
    """Every level of one sweep direction, padded and laid end to end.

    ``arc_pad`` concatenates the levels' padded arcs, so one gather and
    one multiply per pass give each level its arc delays as a contiguous
    row block (:meth:`LatticeStaEngine._padded_delays`), and only arcs
    the case analysis left active are ever scaled.  ``slots`` is the
    largest ``segments * fanin`` -- the candidate rows a level needs.
    """

    levels: List[_PaddedLevel]
    arc_pad: np.ndarray
    arc_delay_ps: np.ndarray
    arc_cell: np.ndarray
    slots: int


def _pad_sweep(levels, endpoint_of: np.ndarray, graph) -> _PaddedSweep:
    """Pad every level of a sweep at once (see :class:`_PaddedLevel`)."""
    if not levels:
        empty = np.empty(0, dtype=np.intp)
        return _PaddedSweep([], empty, np.empty(0), empty, 0)
    arcs = np.concatenate([level.arcs for level in levels])
    seg_counts = np.array([len(level.starts) for level in levels])
    level_base = np.cumsum([0] + [len(level.arcs) for level in levels[:-1]])
    # Segment starts on the concatenated arc axis; each level's last
    # segment ends where the next level's first begins.
    starts = np.concatenate([level.starts for level in levels]) + np.repeat(
        level_base, seg_counts
    )
    lengths = np.diff(np.append(starts, len(arcs)))
    seg_first = np.cumsum(np.concatenate(([0], seg_counts[:-1])))
    fanins = np.maximum.reduceat(lengths, seg_first)
    seg_fanin = np.repeat(fanins, seg_counts)
    seg_of_slot = np.repeat(np.arange(len(starts)), seg_fanin)
    slot_base = np.cumsum(seg_fanin) - seg_fanin
    within = np.arange(len(seg_of_slot)) - slot_base[seg_of_slot]
    arc_pad = arcs[
        starts[seg_of_slot] + np.minimum(within, lengths[seg_of_slot] - 1)
    ]
    endpoint_pad = endpoint_of[arc_pad]
    sizes = seg_counts * fanins
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    compiled = [
        _PaddedLevel(
            endpoint_pad=endpoint_pad[bounds[i]:bounds[i + 1]],
            segments=int(seg_counts[i]),
            fanin=int(fanins[i]),
            nets=level.nets,
            lo=int(bounds[i]),
            hi=int(bounds[i + 1]),
        )
        for i, level in enumerate(levels)
    ]
    return _PaddedSweep(
        levels=compiled,
        arc_pad=arc_pad,
        arc_delay_ps=graph.arc_delay_ps[arc_pad],
        arc_cell=graph.arc_cell[arc_pad],
        slots=int(sizes.max()),
    )


def lattice_sweep_forward(
    levels,
    arc_delay: np.ndarray,
    arrival: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Levelized arrival propagation over a ``(nets, combos)`` matrix.

    The batched twin of :func:`repro.sta.sweep.sweep_forward`: *levels*
    is the padded compilation of ``schedule.forward`` (see
    :class:`_PaddedLevel`), *arc_delay* the ``(padded arcs, combos)``
    delay matrix of its :class:`_PaddedSweep`.  Each level gathers whole
    C-contiguous combo rows into a ``(segments, fanin, combos)`` block
    and max-reduces the middle axis.  ``max`` is exact, so each combo's
    column computes the very bits the scalar sweep would.  *scratch* is
    the flat candidate buffer (at least ``max(segments * fanin) *
    combos`` elements), sparing one large allocation per level.
    """
    combos = arrival.shape[1]
    for level in levels:
        candidate = scratch[: (level.hi - level.lo) * combos].reshape(
            level.hi - level.lo, combos
        )
        np.add(
            arrival[level.endpoint_pad],
            arc_delay[level.lo:level.hi],
            out=candidate,
        )
        best = np.maximum.reduce(
            candidate.reshape(level.segments, level.fanin, combos), axis=1
        )
        np.maximum(arrival[level.nets], best, out=best)
        arrival[level.nets] = best


def lattice_sweep_backward(
    levels,
    arc_delay: np.ndarray,
    required: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Levelized required-time propagation (min) over ``(nets, combos)``.

    *levels* is the padded compilation of ``schedule.backward``, walked
    sink-to-source; *arc_delay* is laid out on its padded arc axis.
    """
    combos = required.shape[1]
    for level in reversed(levels):
        candidate = scratch[: (level.hi - level.lo) * combos].reshape(
            level.hi - level.lo, combos
        )
        np.subtract(
            required[level.endpoint_pad],
            arc_delay[level.lo:level.hi],
            out=candidate,
        )
        best = np.minimum.reduce(
            candidate.reshape(level.segments, level.fanin, combos), axis=1
        )
        np.minimum(required[level.nets], best, out=best)
        required[level.nets] = best


# -- results ----------------------------------------------------------------


@dataclass
class LatticeTimingResult:
    """One knob point's full BB lattice, from a single tensor pass.

    ``configs`` is the evaluated (combos, num_domains) assignment matrix;
    every other array is indexed by the same leading combo axis.
    ``critical_endpoint_net[k]`` is the net id of combo *k*'s worst-slack
    active endpoint (first one in endpoint order on ties, matching
    ``np.argmin``), or -1 when the case analysis deactivated every
    endpoint.  ``arrival_ps`` / ``required_ps`` are the ``(combos,
    nets)`` matrices, retained only when the engine was asked to keep
    them (they are the memory-heavy part of the pass).
    """

    constraint: ClockConstraint
    vdd: float
    configs: np.ndarray
    worst_slack_ps: np.ndarray
    critical_endpoint_net: np.ndarray
    arrival_ps: Optional[np.ndarray] = None
    required_ps: Optional[np.ndarray] = None

    @property
    def feasible(self) -> np.ndarray:
        """Boolean feasibility mask over the combo axis (WNS >= 0)."""
        return self.worst_slack_ps >= 0.0

    @property
    def num_feasible(self) -> int:
        return int(np.count_nonzero(self.feasible))

    @property
    def filtered_fraction(self) -> float:
        """Fraction of combinations the STA filter rejected."""
        if len(self.configs) == 0:
            return 0.0
        return 1.0 - self.num_feasible / len(self.configs)


class LatticeStaEngine:
    """Sweeps the whole BB lattice of a partitioned design in one pass."""

    def __init__(
        self,
        graph: TimingGraph,
        library: Library,
        domains: np.ndarray,
        num_domains: int,
    ):
        domains = np.asarray(domains, dtype=np.int64)
        if domains.shape != (graph.num_cells,):
            raise ValueError(
                f"domains shape {domains.shape} != ({graph.num_cells},)"
            )
        if num_domains < 0:
            raise ValueError("num_domains must be >= 0")
        if num_domains == 0:
            if len(domains) and domains.max() >= 0 and np.any(domains != 0):
                raise ValueError("domain ids out of range for 0 domains")
        elif len(domains) and domains.max() >= num_domains:
            raise ValueError("domain ids out of range")
        self.graph = graph
        self.library = library
        self.domains = domains
        self.num_domains = num_domains
        # Padded level compilations per sweep direction, keyed by
        # levelized-schedule identity.
        # Case-filtered schedules are transient (they live on the
        # CaseAnalysis), so each entry pins its schedule: a freed
        # schedule's id could otherwise be recycled by a new one and be
        # served a stale compilation.
        self._padded_cache = {}
        # Reusable flat work buffers, grown to the widest pass seen and
        # handed out as leading views reshaped to each pass: repeated
        # analyze calls (one per knob point during exploration) would
        # otherwise mmap/munmap multi-MB temporaries every pass, and
        # pruned explorations time many different combo counts.
        self._scratch = {
            "arrival": np.empty(0),
            "cell_factors": np.empty(0),
            "arc_delay": np.empty(0),
            "candidate": np.empty(0),
        }
        # Supply-dominance precondition (see rung_dominators): with no
        # negative arc, launch or setup delay, scaling every cell factor
        # up can only lower every slack.
        self.delays_nonnegative = bool(
            np.all(graph.arc_delay_ps >= 0.0)
            and np.all(graph.launch_delay_ps >= 0.0)
            and np.all(graph.endpoint_setup_ps >= 0.0)
        )
        # Graph-fixed launch/endpoint index plumbing.
        self._launch_clip = np.maximum(graph.launch_cell, 0)
        self._launch_external = (graph.launch_cell < 0)[:, None]
        self._endpoint_clip = np.maximum(graph.endpoint_cell, 0)
        self._endpoint_external = (graph.endpoint_cell < 0)[:, None]

    def _padded_sweep(
        self, schedule: LevelizedSchedule, backward: bool
    ) -> _PaddedSweep:
        """One direction's padded compilation of *schedule*, memoized.

        Each direction compiles on first use: exploration only ever runs
        the forward sweep, so it never pays for the backward padding.
        """
        entry = self._padded_cache.get(id(schedule))
        if entry is None or entry[0] is not schedule:
            entry = (schedule, {})
            self._padded_cache[id(schedule)] = entry
        compiled = entry[1].get(backward)
        if compiled is None:
            graph = self.graph
            compiled = entry[1][backward] = _pad_sweep(
                schedule.backward if backward else schedule.forward,
                graph.arc_to if backward else graph.arc_from,
                graph,
            )
        return compiled

    def _scratch_for(self, num_combos: int, delay_rows: int, slots: int):
        """Work buffers for one pass: leading views of the shared set.

        ``arrival``, ``cell_factors`` and ``arc_delay`` come back as
        nets-major ``(rows, num_combos)`` matrices, ``candidate`` flat.
        A buffer is reallocated only when a pass outgrows it, so the
        engine holds one set sized to its widest pass whatever the mix
        of pass widths.
        """
        shapes = {
            "arrival": (self.graph.num_nets, num_combos),
            "cell_factors": (self.graph.num_cells, num_combos),
            "arc_delay": (delay_rows, num_combos),
            "candidate": (slots * num_combos,),
        }
        views = {}
        for name, shape in shapes.items():
            size = math.prod(shape)
            if self._scratch[name].size < size:
                self._scratch[name] = np.empty(size)
            views[name] = self._scratch[name][:size].reshape(shape)
        return views

    def _padded_delays(
        self, sweep: _PaddedSweep, cell_factors: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``(padded arcs, combos)`` arc delays of one sweep direction.

        The same float64 product the scalar engine forms as
        ``arc_delay_ps * factors[arc_cell]``, per combo, for the sweep's
        padded arcs only; written into the leading rows of *out*.
        """
        delays = out[: len(sweep.arc_pad)]
        np.multiply(
            sweep.arc_delay_ps[:, None],
            cell_factors[sweep.arc_cell],
            out=delays,
        )
        return delays

    # -- corner factors -----------------------------------------------------

    def _corner_factors(self, vdd: float):
        """The (NoBB, FBB) delay factors of supply *vdd*, as floats."""
        library = self.library
        return (
            float(library.delay_factor(library.nobb_corner(vdd))),
            float(library.delay_factor(library.fbb_corner(vdd))),
        )

    def _fill_factors(
        self, out: np.ndarray, vdd: float, configs: np.ndarray
    ) -> None:
        """Write the ``(cells, combos)`` delay factors of *configs* to *out*.

        Column *k* equals ``StaEngine.cell_delay_factors(vdd, fbb_cells)``
        for combination *k* exactly (the same two scalars, picked per
        cell), which is the root of the engine's bit-identity.
        """
        f_nobb, f_fbb = self._corner_factors(vdd)
        out.fill(f_nobb)
        # With NMAX = 0 there are no bias domains: every cell stays NoBB.
        if self.num_domains:
            np.copyto(out, f_fbb, where=configs[:, self.domains].transpose())

    # -- dominance ----------------------------------------------------------

    def case_nests(self, inner: CaseAnalysis, outer: CaseAnalysis) -> bool:
        """Whether every timing path *inner* leaves active, *outer* does too.

        Three subset checks: active arcs, live launch nets and active
        endpoints.  When they hold, each net's arrival under *outer* is
        the max over a superset of the very same candidates (``max`` and
        ``+`` are exact-monotone in float64), and the worst slack is the
        min over a superset of endpoints -- so, combo by combo and rung by
        rung, slack under *outer* <= slack under *inner*, and a combo
        infeasible under *inner* is infeasible under *outer*.
        """
        graph = self.graph
        pairs = (
            (inner.active_arc_mask(graph), outer.active_arc_mask(graph)),
            (
                inner.values[graph.launch_nets] == UNKNOWN,
                outer.values[graph.launch_nets] == UNKNOWN,
            ),
            (
                inner.active_endpoint_mask(graph.endpoint_nets),
                outer.active_endpoint_mask(graph.endpoint_nets),
            ),
        )
        return all(not np.any(sub & ~sup) for sub, sup in pairs)

    def rung_dominators(self, vdds) -> list:
        """Per VDD rung, the rungs whose slacks bound its slacks from above.

        Rung *u* dominates rung *v* when both its corner factors are no
        larger: ``f_nobb(u) <= f_nobb(v)`` and ``f_fbb(u) <= f_fbb(v)``.
        Every per-cell factor of every combo is then no larger at *u*,
        and with non-negative arc, launch and setup delays (checked once
        per graph, :attr:`delays_nonnegative`) correctly rounded ``*``,
        ``+``, ``-`` and ``max``/``min`` carry that to slack(v) <= slack(u)
        exactly.  Equal factor pairs are ordered by rung index so the
        relation stays acyclic.  Returns one list of rung indices per
        rung; all lists are empty when the precondition fails.
        """
        vdds = list(vdds)
        if not self.delays_nonnegative:
            return [[] for _ in vdds]
        corners = [self._corner_factors(vdd) for vdd in vdds]

        def dominates(u: int, v: int) -> bool:
            (nobb_u, fbb_u), (nobb_v, fbb_v) = corners[u], corners[v]
            if not (nobb_u <= nobb_v and fbb_u <= fbb_v):
                return False
            return corners[u] != corners[v] or u < v

        return [
            [u for u in range(len(vdds)) if u != v and dominates(u, v)]
            for v in range(len(vdds))
        ]

    # -- analysis -----------------------------------------------------------

    def analyze(
        self,
        constraint: ClockConstraint,
        vdd: float,
        configs: Optional[np.ndarray] = None,
        case: Optional[CaseAnalysis] = None,
        compute_required: bool = False,
        keep_arrays: bool = False,
    ) -> LatticeTimingResult:
        """Evaluate every BB combination in *configs* in one tensor pass.

        *configs* is a (combos, num_domains) boolean matrix, True = FBB
        (default: the full 2^NMAX lattice).  ``compute_required`` also
        runs the backward sweep, yielding the ``(combos, nets)`` required
        matrix; ``keep_arrays`` retains arrival/required on the result.
        """
        from repro.sta.batch import all_bb_configs

        if configs is None:
            configs = all_bb_configs(self.num_domains)
        configs = np.asarray(configs, dtype=bool)
        if configs.ndim != 2 or configs.shape[1] != self.num_domains:
            raise ValueError(
                f"configs shape {configs.shape} incompatible with "
                f"{self.num_domains} domains"
            )
        return self._sweep(
            constraint,
            lambda factors: self._fill_factors(factors, vdd, configs),
            vdd=vdd,
            configs=configs,
            case=case,
            compute_required=compute_required,
            keep_arrays=keep_arrays,
        )

    def analyze_factors(
        self,
        constraint: ClockConstraint,
        factors: np.ndarray,
        vdd: float = float("nan"),
        configs: Optional[np.ndarray] = None,
        case: Optional[CaseAnalysis] = None,
        compute_required: bool = False,
        keep_arrays: bool = False,
    ) -> LatticeTimingResult:
        """Lattice sweep under explicit per-(combo, cell) delay factors.

        The generalized entry point: *factors* may encode any per-domain
        Vth deltas (multi-state bias, Monte-Carlo variation, the property
        suite's random lattices), not just the binary {NoBB, FBB} corner
        pair.  Shape (combos, num_cells), float64.
        """
        graph = self.graph
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 2 or factors.shape[1] != graph.num_cells:
            raise ValueError(
                f"factors shape {factors.shape} != (combos, {graph.num_cells})"
            )
        num_combos = factors.shape[0]
        if configs is None:
            configs = np.zeros((num_combos, self.num_domains), dtype=bool)
        return self._sweep(
            constraint,
            lambda cell_factors: np.copyto(cell_factors, factors.transpose()),
            vdd=vdd,
            configs=configs,
            case=case,
            compute_required=compute_required,
            keep_arrays=keep_arrays,
        )

    def _sweep(
        self,
        constraint: ClockConstraint,
        fill_factors,
        vdd: float,
        configs: np.ndarray,
        case: Optional[CaseAnalysis],
        compute_required: bool = False,
        keep_arrays: bool = False,
    ) -> LatticeTimingResult:
        """The lattice pass over one column per row of *configs*.

        ``fill_factors(cell_factors)`` writes the pass's ``(cells,
        combos)`` delay factors into the engine's scratch block.
        """
        graph = self.graph
        num_combos = configs.shape[0]
        schedule = schedule_for(graph, case)
        sweeps = [self._padded_sweep(schedule, backward=False)]
        if compute_required:
            sweeps.append(self._padded_sweep(schedule, backward=True))
        period = constraint.effective_period_ps
        buffers = self._scratch_for(
            num_combos,
            max(len(sweep.arc_pad) for sweep in sweeps),
            max(sweep.slots for sweep in sweeps),
        )

        # All internal matrices are nets-major (nets, combos): one net's
        # combo row is then C-contiguous, so the per-level arc gathers
        # are whole-row copies rather than strided column picks.  The
        # public result arrays stay combo-major.
        cell_factors = buffers["cell_factors"]
        fill_factors(cell_factors)

        # Launch seeding, broadcast over the combo axis.  External
        # launches (primary inputs) are unscaled by the local corner.
        launch_factor = cell_factors[self._launch_clip]
        np.copyto(launch_factor, 1.0, where=self._launch_external)
        launch_arrival = graph.launch_delay_ps[:, None] * launch_factor

        if keep_arrays:
            arrival = np.full((graph.num_nets, num_combos), NEG_INF)
        else:
            arrival = buffers["arrival"]
            arrival.fill(NEG_INF)
        if case is None:
            arrival[graph.launch_nets] = launch_arrival
        else:
            live = case.values[graph.launch_nets] == UNKNOWN
            arrival[graph.launch_nets[live]] = launch_arrival[live]

        # Delays are formed once per pass, in the sweep's padded layout,
        # and the backward sweep re-forms its own into the same buffer.
        lattice_sweep_forward(
            sweeps[0].levels,
            self._padded_delays(sweeps[0], cell_factors, buffers["arc_delay"]),
            arrival,
            buffers["candidate"],
        )

        # Endpoint bookkeeping: (endpoints, combos) blocks throughout.
        endpoint_factor = cell_factors[self._endpoint_clip]
        np.copyto(endpoint_factor, 1.0, where=self._endpoint_external)
        endpoint_required = (
            period - graph.endpoint_setup_ps[:, None] * endpoint_factor
        )
        endpoint_arrival = arrival[graph.endpoint_nets]
        endpoint_slack = endpoint_required - endpoint_arrival

        if case is None:
            endpoint_active = endpoint_arrival > NEG_INF / 2
        else:
            endpoint_active = (
                case.active_endpoint_mask(graph.endpoint_nets)[:, None]
                & (endpoint_arrival > NEG_INF / 2)
            )

        masked_slack = np.where(endpoint_active, endpoint_slack, POS_INF)
        if masked_slack.shape[0]:
            worst = masked_slack.min(axis=0)
            critical = np.argmin(masked_slack, axis=0)
            critical_net = np.where(
                endpoint_active.any(axis=0),
                graph.endpoint_nets[critical],
                -1,
            ).astype(np.int64)
            # A combo whose every endpoint is inactive has no finite
            # slack; report the scalar engine's "unconstrained" sentinel.
            worst = np.where(endpoint_active.any(axis=0), worst, POS_INF)
        else:
            worst = np.full(num_combos, POS_INF)
            critical_net = np.full(num_combos, -1, dtype=np.int64)

        required = None
        if compute_required:
            required = np.full((graph.num_nets, num_combos), POS_INF)
            # Endpoint seeding stays a scatter (endpoints are few and may
            # repeat a net), with whole combo rows as the scatter payload
            # -- exactly the scalar engine's per-combo minimum.at.
            seed = np.where(endpoint_active, endpoint_required, POS_INF)
            np.minimum.at(required, graph.endpoint_nets, seed)
            lattice_sweep_backward(
                sweeps[1].levels,
                self._padded_delays(
                    sweeps[1], cell_factors, buffers["arc_delay"]
                ),
                required,
                buffers["candidate"],
            )

        return LatticeTimingResult(
            constraint=constraint,
            vdd=vdd,
            configs=configs,
            worst_slack_ps=worst,
            critical_endpoint_net=critical_net,
            arrival_ps=arrival.transpose() if keep_arrays else None,
            required_ps=(
                required.transpose()
                if keep_arrays and required is not None
                else None
            ),
        )

    def analyze_ladder(
        self,
        constraint: ClockConstraint,
        vdds,
        configs: Optional[np.ndarray] = None,
        case: Optional[CaseAnalysis] = None,
        rung_configs: Optional[Sequence[np.ndarray]] = None,
    ) -> list:
        """Sweep the whole (VDD, BB combination) ladder in one pass.

        VDD only enters the analysis through the per-cell delay factors,
        so the VDD rungs stack on the same leading axis as the BB
        combinations: one ``(sum of rung combos, nets)`` sweep replaces
        ``len(vdds)`` per-rung passes, amortizing the per-level kernel
        overhead across the ladder.  Max/min reductions are exact, so
        each rung's slice is bit-identical to its standalone
        :meth:`analyze` -- the differential wall holds it to that.

        Every rung times *configs* (default: the full lattice) unless
        *rung_configs* gives each rung its own config matrix, as a
        pruned exploration does.  Returns one :class:`LatticeTimingResult`
        per VDD, in order.
        """
        from repro.sta.batch import all_bb_configs

        vdds = list(vdds)
        if rung_configs is None:
            if configs is None:
                configs = all_bb_configs(self.num_domains)
            rung_configs = [configs] * len(vdds)
        elif configs is not None:
            raise ValueError("pass configs or rung_configs, not both")
        elif len(rung_configs) != len(vdds):
            raise ValueError(
                f"{len(rung_configs)} rung config matrices for "
                f"{len(vdds)} VDD rungs"
            )
        rung_configs = [np.asarray(c, dtype=bool) for c in rung_configs]
        bounds = np.cumsum([0] + [len(c) for c in rung_configs])
        if bounds[-1] == 0:
            return [
                LatticeTimingResult(
                    constraint=constraint,
                    vdd=vdd,
                    configs=rung,
                    worst_slack_ps=np.empty(0),
                    critical_endpoint_net=np.empty(0, dtype=np.int64),
                )
                for vdd, rung in zip(vdds, rung_configs)
            ]

        def fill_factors(cell_factors):
            for i, (vdd, rung) in enumerate(zip(vdds, rung_configs)):
                if len(rung):
                    self._fill_factors(
                        cell_factors[:, bounds[i]:bounds[i + 1]], vdd, rung
                    )

        stacked = self._sweep(
            constraint,
            fill_factors,
            vdd=float("nan"),
            configs=np.concatenate(rung_configs, axis=0),
            case=case,
        )
        results = []
        for i, (vdd, rung) in enumerate(zip(vdds, rung_configs)):
            span = slice(bounds[i], bounds[i + 1])
            results.append(
                LatticeTimingResult(
                    constraint=constraint,
                    vdd=vdd,
                    configs=rung,
                    worst_slack_ps=stacked.worst_slack_ps[span],
                    critical_endpoint_net=stacked.critical_endpoint_net[span],
                )
            )
        return results

    # -- reference loop -----------------------------------------------------

    def analyze_pointwise(
        self,
        constraint: ClockConstraint,
        vdd: float,
        configs: Optional[np.ndarray] = None,
        case: Optional[CaseAnalysis] = None,
    ) -> LatticeTimingResult:
        """The per-combination scalar reference loop (``pointwise``).

        One :meth:`StaEngine.analyze` call per BB combination -- the
        semantics the lattice pass is differential-tested against, and
        the ``--sta-engine pointwise`` execution path.
        """
        from repro.sta.batch import all_bb_configs

        if configs is None:
            configs = all_bb_configs(self.num_domains)
        configs = np.asarray(configs, dtype=bool)
        scalar = StaEngine(self.graph, self.library)
        worst = np.empty(len(configs))
        critical = np.empty(len(configs), dtype=np.int64)
        for k, config in enumerate(configs):
            if self.num_domains == 0:
                fbb_cells = np.zeros(self.graph.num_cells, dtype=bool)
            else:
                fbb_cells = config[self.domains]
            report = scalar.analyze(
                constraint, vdd, fbb_cells, case=case, compute_required=False
            )
            worst[k] = report.worst_slack_ps
            critical[k] = report.critical_endpoint_net
        return LatticeTimingResult(
            constraint=constraint,
            vdd=vdd,
            configs=configs,
            worst_slack_ps=worst,
            critical_endpoint_net=critical,
        )
