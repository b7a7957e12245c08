"""Differential wall for dominance pruning of the exploration lattice.

``ExhaustiveExplorer.evaluate_cells`` times a BB combination at a
(bitwidth, VDD) point only when no easier point -- fewer active bits
(accuracy rule) or a faster supply (supply rule) -- already proved it
infeasible.  The contract: the pruned sweep's ``ExplorationResult`` is
field-for-field equal to timing every combination.  The exhaustive
oracle lives here, not on the production surface: one
``analyze_ladder`` over the full config matrix per bitwidth, folded the
way ``evaluate_cells`` folded it before pruning.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import exploration
from repro.core.config import ExplorationSettings, OperatingPoint
from repro.core.exploration import (
    ExhaustiveExplorer,
    KnobCellResult,
    merge_cell_results,
)
from repro.core.flow import implement_with_domains
from repro.operators import array_multiplier, booth_multiplier, fir_filter
from repro.operators.fir import FirParameters
from repro.pnr.grid import GridPartition
from repro.sim.activity import measure_activity
from repro.sta.batch import all_bb_configs
from repro.sta.caseanalysis import dvas_case
from repro.sta.lattice import LatticeStaEngine

SETTINGS = ExplorationSettings(activity_cycles=8, activity_batch=8)


def exhaustive_oracle(design, settings, configs=None):
    """Time every combination at every knob point; fold as before pruning.

    Case analysis goes through ``repro.core.exploration.dvas_case`` so a
    test that patches it there patches the oracle too.
    """
    engine = LatticeStaEngine(
        design.timing_graph(),
        design.netlist.library,
        design.domains,
        design.num_domains,
    )
    power = ExhaustiveExplorer(design).power
    if configs is None:
        configs = all_bb_configs(design.num_domains)
    cells = []
    for bits in settings.bitwidths:
        case = exploration.dvas_case(design.netlist, bits)
        activity = measure_activity(
            design.netlist,
            bits,
            cycles=settings.activity_cycles,
            batch=settings.activity_batch,
            seed=settings.seed,
            engine=settings.sim_engine,
        )
        ladder = engine.analyze_ladder(
            design.constraint, settings.vdd_values, configs=configs, case=case
        )
        for vdd, rung in zip(settings.vdd_values, ladder):
            feasible = rung.worst_slack_ps >= 0.0
            count = int(np.count_nonzero(feasible))
            point = None
            if count:
                powers = power.total_batch(
                    activity, vdd, design.fclk_ghz, design.domains, configs
                )
                powers = np.where(feasible, powers, np.inf)
                winner = int(np.argmin(powers))
                dynamic = power.dynamic.total(activity, vdd, design.fclk_ghz)
                point = OperatingPoint(
                    active_bits=bits,
                    vdd=vdd,
                    bb_config=tuple(bool(x) for x in configs[winner]),
                    total_power_w=float(powers[winner]),
                    dynamic_power_w=dynamic,
                    leakage_power_w=float(powers[winner]) - dynamic,
                    worst_slack_ps=float(rung.worst_slack_ps[winner]),
                )
            cells.append(
                KnobCellResult(
                    bits=bits,
                    vdd=vdd,
                    evaluated=len(configs),
                    feasible_count=count,
                    best=point,
                )
            )
    return merge_cell_results(design, settings, cells, 0.0)


def assert_matches_oracle(result, oracle):
    assert result.best_per_bitwidth == oracle.best_per_bitwidth
    assert result.best_per_knob_point == oracle.best_per_knob_point
    assert result.feasible_counts == oracle.feasible_counts
    assert result.points_feasible == oracle.points_feasible
    assert result.points_evaluated == oracle.points_evaluated
    assert oracle.points_timed == oracle.points_evaluated
    assert 0 < result.points_timed <= result.points_evaluated


@pytest.fixture(scope="module")
def designs(library, booth8_domained):
    def build(factory, grid):
        return implement_with_domains(factory, library, GridPartition(*grid))

    return {
        "booth8": booth8_domained,
        "booth16": build(
            lambda: booth_multiplier(library, width=16, name="prune_b16"),
            (2, 4),
        ),
        "fir": build(
            lambda: fir_filter(
                library, FirParameters(taps=4, width=6), name="prune_fir"
            ),
            (2, 2),
        ),
        "array": build(
            lambda: array_multiplier(library, 6, name="prune_arr"), (2, 2)
        ),
    }


def _settings(design, **changes):
    width = max(bus.width for bus in design.netlist.input_buses.values())
    changes.setdefault("bitwidths", tuple(range(1, width + 1)))
    return dataclasses.replace(SETTINGS, **changes)


@pytest.fixture(scope="module")
def oracles(designs):
    return {
        name: exhaustive_oracle(design, _settings(design))
        for name, design in designs.items()
    }


@pytest.mark.parametrize("name", ["booth8", "booth16", "fir", "array"])
def test_pruned_sweep_equals_exhaustive(name, designs, oracles):
    design = designs[name]
    result = ExhaustiveExplorer(design).run(_settings(design))
    assert_matches_oracle(result, oracles[name])
    # Both rules must bite on every design of the wall.
    assert result.points_timed < result.points_evaluated


def test_booth16_prunes_most_columns(designs, oracles):
    """The serving design (booth16 2x4): exhaustive search times 20,480
    columns; pruning must time at most a fifth of them."""
    result = ExhaustiveExplorer(designs["booth16"]).run(
        _settings(designs["booth16"])
    )
    assert result.points_evaluated == 16 * 5 * 2 ** 8
    assert result.points_evaluated >= 5 * result.points_timed


@pytest.mark.parametrize("name", ["booth8", "fir"])
def test_knob_order_irrelevant(name, designs):
    """Shuffled VDDs and descending bitwidths: the accuracy rule cannot
    apply (a wider mode never nests in a narrower one), the supply rule
    must still find its dominators out of order."""
    design = designs[name]
    base = _settings(design)
    settings = dataclasses.replace(
        base,
        bitwidths=tuple(reversed(base.bitwidths)),
        vdd_values=(0.8, 0.6, 1.0, 0.7, 0.9),
    )
    result = ExhaustiveExplorer(design).run(settings)
    assert_matches_oracle(result, exhaustive_oracle(design, settings))
    assert result.points_timed < result.points_evaluated


def test_config_subset_dvas_baseline(designs):
    """A ``configs=`` subset (the DVAS all-NoBB / all-FBB baselines)."""
    design = designs["booth8"]
    settings = _settings(design)
    for fbb in (False, True):
        configs = np.full((1, design.num_domains), fbb, dtype=bool)
        result = ExhaustiveExplorer(design).run(settings, configs=configs)
        assert_matches_oracle(
            result, exhaustive_oracle(design, settings, configs)
        )


@pytest.mark.parametrize(
    "changes",
    [
        {"workers": 1, "max_combos_per_shard": 5},
        {"workers": 2},
    ],
    ids=["combo-sliced", "workers-2"],
)
def test_sharded_runs_equal_oracle(changes, designs, oracles):
    """Shards carry one bitwidth (supply rule only) and may slice the
    combo axis; the merge must still equal the exhaustive oracle."""
    from repro.parallel.engine import ParallelExplorer

    design = designs["booth8"]
    changes = dict(changes)
    combos = changes.pop("max_combos_per_shard", None)
    settings = _settings(design, **changes)
    result = ParallelExplorer(design).run(
        settings, max_combos_per_shard=combos
    )
    assert_matches_oracle(result, oracles["booth8"])
    serial = ExhaustiveExplorer(design).run(_settings(design))
    # No cross-bitwidth pruning inside shards: never fewer columns timed.
    assert result.points_timed >= serial.points_timed


def test_non_nesting_cases_skip_accuracy_rule(designs, monkeypatch):
    """A case analysis whose masks do not nest across bitwidths: gating
    one input bus at the narrow mode and the other at the wide mode.
    The accuracy rule's precondition must reject the pair, the sweep
    must still equal the oracle, and the wide mode must time exactly
    what the supply rule alone times."""
    design = designs["booth8"]
    netlist = design.netlist
    names = sorted(netlist.input_buses)
    assert len(names) >= 2

    def crossed_case(nl, bits, buses=None):
        gated = names[0] if bits == 3 else names[1]
        return dvas_case(nl, bits, buses={
            name: (bits if name == gated else nl.input_buses[name].width)
            for name in names
        })

    monkeypatch.setattr(exploration, "dvas_case", crossed_case)
    explorer = ExhaustiveExplorer(design)
    assert not explorer.lattice_engine.case_nests(
        crossed_case(netlist, 3), crossed_case(netlist, 6)
    )
    settings = _settings(design, bitwidths=(3, 6))
    result = explorer.run(settings)
    assert_matches_oracle(result, exhaustive_oracle(design, settings))

    configs = all_bb_configs(design.num_domains)
    vdds = settings.vdd_values
    pair = explorer.evaluate_cells((3, 6), vdds, settings, configs)
    alone = explorer.evaluate_cells((6,), vdds, settings, configs)
    assert [c.timed for c in pair[len(vdds):]] == [
        c.timed for c in alone
    ]


def test_nesting_holds_for_adjacent_dvas_modes(designs):
    """The accuracy rule's precondition holds for every adjacent pair of
    DVAS modes of the wall's designs (it is what makes the rule pay)."""
    for design in designs.values():
        engine = ExhaustiveExplorer(design).lattice_engine
        width = max(b.width for b in design.netlist.input_buses.values())
        cases = [dvas_case(design.netlist, b) for b in range(1, width + 1)]
        assert all(
            engine.case_nests(narrow, wide)
            for narrow, wide in zip(cases, cases[1:])
        )


def test_case_nests_checks_each_mask(designs):
    """Each of the three subset checks rejects on its own: a wider mode
    whose arcs nest but whose live launch nets or active endpoints do
    not is not a superset."""
    from repro.sta.caseanalysis import ZERO, CaseAnalysis, UNKNOWN

    design = designs["booth8"]
    engine = ExhaustiveExplorer(design).lattice_engine
    graph = engine.graph
    inner = dvas_case(design.netlist, 8)
    assert engine.case_nests(inner, inner)

    def clone(values):
        outer = CaseAnalysis(
            netlist=inner.netlist,
            values=values,
            forced=inner.forced,
            sweeps=inner.sweeps,
        )
        # Same arcs as inner, whatever the values say.
        outer.active_arc_mask = inner.active_arc_mask
        return outer

    values = inner.values.copy()
    live = graph.launch_nets[values[graph.launch_nets] == UNKNOWN]
    values[live[0]] = ZERO
    assert not engine.case_nests(inner, clone(values))

    outer = clone(inner.values.copy())
    outer.active_endpoint_mask = lambda nets: np.zeros(len(nets), bool)
    assert not engine.case_nests(inner, outer)
    assert engine.case_nests(inner, clone(inner.values.copy()))


def test_supply_rule_disabled_by_negative_delay(designs):
    """A graph with a negative arc delay fails the supply precondition:
    no rung may be pruned by another."""
    design = designs["booth8"]
    engine = ExhaustiveExplorer(design).lattice_engine
    vdds = SETTINGS.vdd_values
    dominators = engine.rung_dominators(vdds)
    # The paper's ladder is totally ordered: 1.0 V dominates every rung.
    assert dominators[0] == []
    assert all(0 in dominators[v] for v in range(1, len(vdds)))
    assert engine.delays_nonnegative
    for field in ("arc_delay_ps", "launch_delay_ps", "endpoint_setup_ps"):
        delays = getattr(engine.graph, field).copy()
        delays[-1] = -1.0
        skewed = LatticeStaEngine(
            dataclasses.replace(engine.graph, **{field: delays}),
            engine.library,
            engine.domains,
            engine.num_domains,
        )
        assert not skewed.delays_nonnegative
        assert skewed.rung_dominators(vdds) == [[] for _ in vdds]


def test_timed_count_survives_serialization():
    cell = KnobCellResult(
        bits=4, vdd=0.9, evaluated=16, feasible_count=2, best=None, timed=5
    )
    assert KnobCellResult.from_dict(cell.to_dict()) == cell
    legacy = cell.to_dict()
    del legacy["timed"]
    assert KnobCellResult.from_dict(legacy).timed == 16
    assert KnobCellResult(
        bits=4, vdd=0.9, evaluated=16, feasible_count=2, best=None
    ).timed == 16
