"""The optimization phase: exhaustive knob exploration (Fig. 4, blue part).

For every accuracy mode (bitwidth) of interest the explorer

1. runs case analysis (zeroed LSBs -> deactivated paths),
2. annotates switching activity by simulating the netlist in that mode,
3. for every supply voltage, filters *all* 2^NMAX back-bias assignments
   by timing feasibility (the paper reports ~75 % of points rejected
   here) -- timing in batched STA sweeps only the assignments that an
   easier knob point (fewer active bits, or a faster supply) left
   feasible, which is exact because feasibility is monotone in both,
4. ranks the feasible points by total (leakage + dynamic) power,

and reports the minimum-power configuration per bitwidth: the data behind
the paper's Fig. 5 Pareto curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExplorationSettings, OperatingPoint
from repro.core.flow import ImplementedDesign
from repro.power.analysis import PowerAnalyzer
from repro.sim.activity import ActivityReport, measure_activity
from repro.sta.batch import all_bb_configs
from repro.sta.caseanalysis import dvas_case
from repro.sta.lattice import LatticeStaEngine, resolve_sta_engine


@dataclass(frozen=True)
class KnobCellResult:
    """Outcome of one slice of the (bitwidth, VDD, BB-combo) tensor.

    The unit of work the sharded engine distributes and caches; the
    serial explorer produces the same records, so merging a list of them
    (:func:`merge_cell_results`) is bit-identical either way.
    ``combo_lo`` is the cell's offset on the BB-combination axis -- a
    cell covers combos ``[combo_lo, combo_lo + evaluated)`` of the full
    configuration matrix, and the merge folds the slices of one
    (bitwidth, VDD) point back together in ascending combo order.
    """

    bits: int
    vdd: float
    evaluated: int
    feasible_count: int
    best: Optional[OperatingPoint]
    combo_lo: int = 0
    # Combos actually timed; the rest were proven infeasible by an easier
    # knob point (dominance pruning).  None means all of them.
    timed: Optional[int] = None

    def __post_init__(self):
        if self.timed is None:
            object.__setattr__(self, "timed", self.evaluated)

    @property
    def combo_hi(self) -> int:
        """One past the last combo index this cell covers."""
        return self.combo_lo + self.evaluated

    def to_dict(self) -> Dict[str, object]:
        return {
            "bits": self.bits,
            "vdd": self.vdd,
            "evaluated": self.evaluated,
            "feasible_count": self.feasible_count,
            "best": self.best.to_dict() if self.best is not None else None,
            "combo_lo": self.combo_lo,
            "timed": self.timed,
        }

    @staticmethod
    def from_dict(data: Dict) -> "KnobCellResult":
        best = data["best"]
        return KnobCellResult(
            bits=int(data["bits"]),
            vdd=float(data["vdd"]),
            evaluated=int(data["evaluated"]),
            feasible_count=int(data["feasible_count"]),
            best=OperatingPoint.from_dict(best) if best is not None else None,
            combo_lo=int(data.get("combo_lo", 0)),
            timed=int(data.get("timed", data["evaluated"])),
        )


@dataclass
class ExplorationResult:
    """Everything the optimization phase produced."""

    design_name: str
    settings: ExplorationSettings
    num_domains: int
    best_per_bitwidth: Dict[int, OperatingPoint]
    points_evaluated: int
    points_feasible: int
    runtime_s: float
    # Per (bitwidth, vdd): number of feasible BB assignments.
    feasible_counts: Dict[Tuple[int, float], int] = field(default_factory=dict)
    # Per (bitwidth, vdd): the minimum-power feasible point, when any.
    best_per_knob_point: Dict[Tuple[int, float], OperatingPoint] = field(
        default_factory=dict
    )
    # Persistent-cache statistics of the run (None on the legacy path).
    cache_stats: Optional[object] = None
    # Resilience statistics (crashes/retries survived; None on the
    # legacy path, a repro.parallel.engine.ResilienceStats otherwise).
    fault_stats: Optional[object] = None
    # Lattice columns (BB combos at one knob point) actually timed; the
    # other points_evaluated - points_timed were pruned as dominated.
    # None means every point was timed.
    points_timed: Optional[int] = None

    def __post_init__(self):
        if self.points_timed is None:
            self.points_timed = self.points_evaluated

    @property
    def filtered_fraction(self) -> float:
        """Fraction of design points the STA filter rejected (paper: ~75%)."""
        if self.points_evaluated == 0:
            return 0.0
        return 1.0 - self.points_feasible / self.points_evaluated

    def pareto(self) -> List[OperatingPoint]:
        """Best operating point per bitwidth, sorted by bitwidth."""
        return [self.best_per_bitwidth[b] for b in sorted(self.best_per_bitwidth)]

    def power_at(self, bits: int) -> float:
        return self.best_per_bitwidth[bits].total_power_w

    def best_at(self, bits: int, vdd: float) -> Optional[OperatingPoint]:
        """Cheapest feasible point at one (bitwidth, VDD), or None.

        Lets system-level composition (several operators sharing one
        supply) pick per-operator BB configurations at a common VDD.
        """
        return self.best_per_knob_point.get((bits, vdd))


class ExhaustiveExplorer:
    """Runs the optimization phase on one implemented design."""

    def __init__(self, design: ImplementedDesign):
        self.design = design
        self.graph = design.timing_graph()
        self.library = design.netlist.library
        self.lattice_engine = LatticeStaEngine(
            self.graph, self.library, design.domains, design.num_domains
        )
        self.power = PowerAnalyzer(design.netlist, design.parasitics)

    def _activity(
        self, bits: int, settings: ExplorationSettings
    ) -> ActivityReport:
        return measure_activity(
            self.design.netlist,
            bits,
            cycles=settings.activity_cycles,
            batch=settings.activity_batch,
            seed=settings.seed,
            engine=settings.sim_engine,
        )

    def _time_rungs(
        self,
        vdd_values: Sequence[float],
        configs: np.ndarray,
        candidates: Sequence[np.ndarray],
        case,
        sta_engine: str,
    ) -> List[np.ndarray]:
        """Per-combo worst setup slack per VDD rung, timing only candidates.

        *candidates* holds one boolean mask over the rows of *configs*
        per rung.  ``lattice`` sweeps every rung's candidates in one
        nets-major tensor pass; ``pointwise`` loops the scalar engine per
        (VDD, candidate).  Both return the same float64 bits -- the
        differential wall holds them to it.  Combos left out of a rung
        come back at -inf: an easier knob point already proved them
        infeasible.
        """
        rows = [np.flatnonzero(mask) for mask in candidates]
        rung_configs = [configs[r] for r in rows]
        engine = self.lattice_engine
        constraint = self.design.constraint
        if sta_engine == "lattice":
            ladder = engine.analyze_ladder(
                constraint, vdd_values, case=case, rung_configs=rung_configs
            )
        else:
            ladder = [
                engine.analyze_pointwise(
                    constraint, vdd, configs=rung, case=case
                )
                for vdd, rung in zip(vdd_values, rung_configs)
            ]
        slacks = []
        for r, result in zip(rows, ladder):
            slack = np.full(len(configs), -np.inf)
            slack[r] = result.worst_slack_ps
            slacks.append(slack)
        return slacks

    def _supply_waves(
        self, vdd_values: Sequence[float]
    ) -> Tuple[List[List[int]], List[List[int]]]:
        """Rung timing order for the supply rule, fastest first.

        Returns ``(waves, dominators)``: ``dominators[v]`` are the rungs
        whose feasible sets bound rung *v*'s (see
        :meth:`LatticeStaEngine.rung_dominators`), and each wave is a
        group of rungs whose dominators all sit in earlier waves, timed
        together in one ladder pass.  A fully ordered VDD ladder gives
        one rung per wave; an unprunable one (no dominance, or the
        precondition fails) gives a single wave of every rung.
        """
        dominators = self.lattice_engine.rung_dominators(vdd_values)
        # Dominance is a strict partial order, so a dominator always has
        # fewer dominators of its own: this order is topological.
        rungs = range(len(vdd_values))
        depth = [0] * len(rungs)
        for v in sorted(rungs, key=lambda v: len(dominators[v])):
            depth[v] = 1 + max(
                (depth[u] for u in dominators[v]), default=-1
            )
        waves = [
            [v for v in rungs if depth[v] == level]
            for level in range(max(depth, default=-1) + 1)
        ]
        return waves, dominators

    def _time_supply_pruned(
        self,
        vdd_values: Sequence[float],
        configs: np.ndarray,
        case,
        sta_engine: str,
        waves: List[List[int]],
        dominators: List[List[int]],
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Supply rule: time each rung only on its dominators' feasible set.

        Returns ``(candidates, slacks)`` per rung, in *vdd_values* order.
        """
        candidates: List[Optional[np.ndarray]] = [None] * len(vdd_values)
        slacks: List[Optional[np.ndarray]] = [None] * len(vdd_values)
        for wave in waves:
            for v in wave:
                mask = np.ones(len(configs), dtype=bool)
                for u in dominators[v]:
                    mask &= slacks[u] >= 0.0
                candidates[v] = mask
            timed = self._time_rungs(
                [vdd_values[v] for v in wave],
                configs,
                [candidates[v] for v in wave],
                case,
                sta_engine,
            )
            for v, slack in zip(wave, timed):
                slacks[v] = slack
        return candidates, slacks

    def evaluate_cells(
        self,
        bitwidths: Sequence[int],
        vdd_values: Sequence[float],
        settings: ExplorationSettings,
        configs: np.ndarray,
        combo_lo: int = 0,
    ) -> List[KnobCellResult]:
        """Evaluate one rectangular slice of the knob/combo tensor.

        One case analysis + activity simulation per bitwidth, then the
        timing-feasibility scan of *configs* at every VDD.  *configs* may
        be any contiguous slice of the full configuration matrix, with
        *combo_lo* recording its offset on the combo axis.

        The scan times a combo at a knob point only when no easier point
        has already proven it infeasible (feasibility is monotone in both
        knobs, exactly in float64); pruned combos count as infeasible, so
        the cells are bit-identical to timing everything:

        * accuracy rule -- when the previous bitwidth's case analysis
          nests in this one's (:meth:`LatticeStaEngine.case_nests`),
          rung *v* times only the previous bitwidth's feasible set at
          *v*, all rungs in one ladder pass;
        * supply rule -- otherwise (first bitwidth included), rungs are
          timed fastest first and each times only the combos feasible at
          every rung that dominates it.

        This is the single implementation both the serial sweep and
        every shard of the parallel engine execute, which is what makes
        their merged results bit-identical.
        """
        design = self.design
        sta_engine = resolve_sta_engine(settings.sta_engine)
        configs = np.asarray(configs, dtype=bool)
        vdd_values = list(vdd_values)
        waves, dominators = self._supply_waves(vdd_values)
        cells: List[KnobCellResult] = []
        # (case, per-rung feasible masks) of the last bitwidth evaluated.
        previous = None
        for bits in bitwidths:
            case = dvas_case(design.netlist, bits)
            activity = self._activity(bits, settings)
            if previous is not None and self.lattice_engine.case_nests(
                previous[0], case
            ):
                candidates = previous[1]
                slacks = self._time_rungs(
                    vdd_values, configs, candidates, case, sta_engine
                )
            else:
                candidates, slacks = self._time_supply_pruned(
                    vdd_values, configs, case, sta_engine, waves, dominators
                )
            feasible_masks = [worst_slack >= 0.0 for worst_slack in slacks]
            for vdd, worst_slack, feasible, timed in zip(
                vdd_values, slacks, feasible_masks, candidates
            ):
                count = int(np.count_nonzero(feasible))
                point: Optional[OperatingPoint] = None
                if count:
                    powers = self.power.total_batch(
                        activity,
                        vdd,
                        design.fclk_ghz,
                        design.domains,
                        configs,
                    )
                    powers = np.where(feasible, powers, np.inf)
                    winner = int(np.argmin(powers))
                    dynamic = self.power.dynamic.total(
                        activity, vdd, design.fclk_ghz
                    )
                    point = OperatingPoint(
                        active_bits=bits,
                        vdd=vdd,
                        bb_config=tuple(bool(x) for x in configs[winner]),
                        total_power_w=float(powers[winner]),
                        dynamic_power_w=dynamic,
                        leakage_power_w=float(powers[winner]) - dynamic,
                        worst_slack_ps=float(worst_slack[winner]),
                    )
                cells.append(
                    KnobCellResult(
                        bits=bits,
                        vdd=vdd,
                        evaluated=len(configs),
                        feasible_count=count,
                        best=point,
                        combo_lo=combo_lo,
                        timed=int(np.count_nonzero(timed)),
                    )
                )
            previous = (case, feasible_masks)
        return cells

    def run(
        self,
        settings: Optional[ExplorationSettings] = None,
        configs: Optional[np.ndarray] = None,
    ) -> ExplorationResult:
        """Explore every (BB assignment, bitwidth, VDD) combination.

        *configs* restricts the BB assignments (used by the DVAS baseline
        and by ablations); by default all 2^NMAX assignments are explored.
        When *settings* selects workers or the persistent cache, the sweep
        is delegated to the sharded engine in :mod:`repro.parallel`.
        """
        if settings is None:
            settings = ExplorationSettings()
        if settings.uses_parallel_engine:
            from repro.parallel.engine import ParallelExplorer

            return ParallelExplorer(self.design, explorer=self).run(
                settings, configs=configs
            )
        start = time.perf_counter()
        design = self.design
        if configs is None:
            configs = all_bb_configs(design.num_domains)
        cells = self.evaluate_cells(
            settings.bitwidths, settings.vdd_values, settings, configs
        )
        return merge_cell_results(
            design, settings, cells, time.perf_counter() - start
        )


def _fold_combo_slices(
    bits: int,
    vdd: float,
    slices: Dict[int, KnobCellResult],
) -> KnobCellResult:
    """Fold the combo-axis slices of one (bitwidth, VDD) point.

    Slices must tile ``[0, total)`` contiguously (the shard planner
    guarantees it; a cache serving a stale plan would not, and is caught
    here).  Feasible counts add; the best point folds with a strict
    minimum in ascending combo order, matching the unsplit ``argmin``.
    """
    ordered = [slices[lo] for lo in sorted(slices)]
    if len(ordered) == 1 and ordered[0].combo_lo == 0:
        return ordered[0]
    cursor = 0
    evaluated = 0
    timed = 0
    feasible = 0
    best: Optional[OperatingPoint] = None
    for cell in ordered:
        if cell.combo_lo != cursor:
            raise ValueError(
                f"combo slices of ({bits} bits, {vdd} V) do not tile: "
                f"expected offset {cursor}, got {cell.combo_lo}"
            )
        cursor = cell.combo_hi
        evaluated += cell.evaluated
        timed += cell.timed
        feasible += cell.feasible_count
        if cell.best is not None and (
            best is None or cell.best.total_power_w < best.total_power_w
        ):
            best = cell.best
    return KnobCellResult(
        bits=bits,
        vdd=vdd,
        evaluated=evaluated,
        feasible_count=feasible,
        best=best,
        combo_lo=0,
        timed=timed,
    )


def merge_cell_results(
    design: ImplementedDesign,
    settings: ExplorationSettings,
    cells: Sequence[KnobCellResult],
    runtime_s: float,
) -> ExplorationResult:
    """Fold per-cell records into an :class:`ExplorationResult`.

    Cells are consumed in canonical knob order (``settings.bitwidths``
    major, ``settings.vdd_values`` minor) regardless of the order they
    were computed in, so ties in the per-bitwidth minimum resolve exactly
    as the serial loop resolves them (first VDD in settings order wins).
    A knob point split along the BB-combination axis (combo-tensor
    shards) folds back in ascending ``combo_lo`` order with a strict
    minimum, reproducing ``np.argmin`` over the unsplit power vector
    exactly -- ties resolve to the lowest combo index either way.
    """
    by_knob: Dict[Tuple[int, float], Dict[int, KnobCellResult]] = {}
    for cell in cells:
        by_knob.setdefault((cell.bits, cell.vdd), {})[cell.combo_lo] = cell
    best: Dict[int, OperatingPoint] = {}
    best_per_knob: Dict[Tuple[int, float], OperatingPoint] = {}
    feasible_counts: Dict[Tuple[int, float], int] = {}
    evaluated = 0
    timed = 0
    feasible_total = 0
    for bits in settings.bitwidths:
        for vdd in settings.vdd_values:
            slices = by_knob.get((bits, vdd))
            if not slices:
                raise ValueError(
                    f"missing knob cell ({bits} bits, {vdd} V) in merge"
                )
            cell = _fold_combo_slices(bits, vdd, slices)
            evaluated += cell.evaluated
            timed += cell.timed
            feasible_counts[(bits, vdd)] = cell.feasible_count
            feasible_total += cell.feasible_count
            point = cell.best
            if point is None:
                continue
            best_per_knob[(bits, vdd)] = point
            incumbent = best.get(bits)
            if incumbent is None or point.total_power_w < incumbent.total_power_w:
                best[bits] = point
    return ExplorationResult(
        design_name=design.netlist.name,
        settings=settings,
        num_domains=design.num_domains,
        best_per_bitwidth=best,
        points_evaluated=evaluated,
        points_feasible=feasible_total,
        runtime_s=runtime_s,
        feasible_counts=feasible_counts,
        best_per_knob_point=best_per_knob,
        points_timed=timed,
    )
