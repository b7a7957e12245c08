"""Interchange writers: Liberty, DEF, SPEF, VCD."""

import io

import numpy as np
import pytest

from repro.io import write_def, write_liberty, write_spef, write_vcd
from repro.operators import booth_multiplier
from repro.pnr.parasitics import extract_parasitics
from repro.pnr.placer import GlobalPlacer
from repro.sim.simulator import LogicSimulator, SimulationMode
from repro.techlib.library import Library

LIBRARY = Library()


@pytest.fixture(scope="module")
def placed():
    netlist = booth_multiplier(LIBRARY, width=6)
    placement = GlobalPlacer(netlist, seed=9).run()
    return netlist, placement, extract_parasitics(placement)


class TestLiberty:
    def test_contains_every_cell_drive(self):
        stream = io.StringIO()
        write_liberty(LIBRARY, LIBRARY.fbb_corner(1.0), stream)
        text = stream.getvalue()
        for cell_name, template in LIBRARY.templates.items():
            for drive in template.drive_names:
                assert f"cell ({cell_name}_{drive})" in text

    def test_corner_scales_numbers(self):
        fast, slow = io.StringIO(), io.StringIO()
        write_liberty(LIBRARY, LIBRARY.fbb_corner(1.0), fast)
        write_liberty(LIBRARY, LIBRARY.nobb_corner(0.8), slow)

        def leakage_of(text, cell="cell (INV_X1)"):
            block = text[text.index(cell):]
            line = next(
                l for l in block.splitlines() if "cell_leakage_power" in l
            )
            return float(line.split(":")[1].strip(" ;"))

        assert leakage_of(fast.getvalue()) > leakage_of(slow.getvalue())

    def test_header_records_bias(self):
        stream = io.StringIO()
        write_liberty(LIBRARY, LIBRARY.rbb_corner(1.0), stream)
        assert "back bias -1.10 V" in stream.getvalue()
        assert "rbb" in stream.getvalue()

    def test_sequential_cell_has_ff_group(self):
        stream = io.StringIO()
        write_liberty(LIBRARY, LIBRARY.fbb_corner(), stream)
        text = stream.getvalue()
        assert "ff (IQ, IQN)" in text
        assert "setup_rising" in text
        assert "rising_edge" in text


class TestDef:
    def test_structure(self, placed):
        netlist, placement, _parasitics = placed
        stream = io.StringIO()
        write_def(placement, stream)
        text = stream.getvalue()
        assert f"DESIGN {netlist.name} ;" in text
        assert f"COMPONENTS {len(netlist.cells)} ;" in text
        assert "END COMPONENTS" in text
        assert "DIEAREA ( 0 0 )" in text
        assert text.count("+ PLACED") >= len(netlist.cells)

    def test_positions_in_database_units(self, placed):
        netlist, placement, _parasitics = placed
        stream = io.StringIO()
        write_def(placement, stream)
        text = stream.getvalue()
        cell = netlist.cells[0]
        line = next(
            l for l in text.splitlines() if l.strip().startswith(f"- {cell.name} ")
        )
        # Coordinates must fit on the die in DBU.
        coords = line.split("(")[1].split(")")[0].split()
        assert 0 <= int(coords[0]) <= placement.floorplan.width_um * 1000

    def test_domain_property(self, placed):
        from repro.pnr.grid import GridPartition, insert_domains

        netlist, placement, _parasitics = placed
        result = insert_domains(placement, GridPartition(2, 2))
        stream = io.StringIO()
        write_def(result.placement, stream)
        assert "+ PROPERTY vth_domain" in stream.getvalue()


class TestSpef:
    def test_structure_and_units(self, placed):
        netlist, _placement, parasitics = placed
        stream = io.StringIO()
        write_spef(netlist, parasitics, stream)
        text = stream.getvalue()
        assert '*SPEF "IEEE 1481-1998"' in text
        assert "*C_UNIT 1 FF" in text
        assert "*NAME_MAP" in text
        assert text.count("*D_NET") > 0

    def test_total_cap_recoverable(self, placed):
        netlist, _placement, parasitics = placed
        stream = io.StringIO()
        write_spef(netlist, parasitics, stream)
        total = 0.0
        for line in stream.getvalue().splitlines():
            if line.startswith("*D_NET"):
                total += float(line.split()[2])
        assert total == pytest.approx(parasitics.total_wire_cap_ff, rel=1e-3)


class TestVcd:
    def _trace(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        rng = np.random.default_rng(0)
        stim = [
            {"A": rng.integers(-8, 8, 3), "B": rng.integers(-8, 8, 3)}
            for _ in range(6)
        ]
        return netlist, sim.run_cycles(stim, collect_net_values=True)

    def test_header_and_timesteps(self):
        netlist, trace = self._trace()
        stream = io.StringIO()
        write_vcd(trace, stream)
        text = stream.getvalue()
        assert "$enddefinitions $end" in text
        assert "$dumpvars" in text
        assert text.count("$var wire 1") == len(netlist.nets)
        assert "#0\n" in text

    def test_net_subset(self):
        netlist, trace = self._trace()
        stream = io.StringIO()
        write_vcd(trace, stream, nets=["A[0]", "A[1]"])
        assert stream.getvalue().count("$var wire 1") == 2

    def test_requires_collected_values(self):
        netlist = booth_multiplier(LIBRARY, width=4)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        trace = sim.run_cycles(
            [{"A": np.asarray([1]), "B": np.asarray([1])}] * 2
        )
        with pytest.raises(ValueError, match="collect_net_values"):
            write_vcd(trace, io.StringIO())

    def test_bad_batch_index(self):
        _netlist, trace = self._trace()
        with pytest.raises(ValueError, match="batch index"):
            write_vcd(trace, io.StringIO(), batch_index=99)

    def test_value_changes_only(self):
        """A net that never toggles appears once (in $dumpvars)."""
        netlist = booth_multiplier(LIBRARY, width=4)
        sim = LogicSimulator(netlist, SimulationMode.CYCLE)
        stim = [{"A": np.asarray([3]), "B": np.asarray([5])}] * 6
        trace = sim.run_cycles(stim, collect_net_values=True)
        stream = io.StringIO()
        write_vcd(trace, stream, nets=["A[0]"])
        body = stream.getvalue().split("$enddefinitions $end")[1]
        assert body.count("1!") + body.count("0!") == 1


def _synthetic_exploration():
    """An ExplorationResult stuffed with non-representable floats."""
    from repro.core.config import ExplorationSettings, OperatingPoint
    from repro.core.exploration import ExplorationResult

    def point(bits, vdd):
        return OperatingPoint(
            active_bits=bits,
            vdd=vdd,
            bb_config=(bits % 2 == 0, bits > 4),
            total_power_w=(0.1 + 0.2) * bits,
            dynamic_power_w=bits / 3.0,
            leakage_power_w=bits / 7.0,
            worst_slack_ps=1.0 / 3.0 - bits,
        )

    settings = ExplorationSettings(
        bitwidths=(2, 4, 8),
        vdd_values=(0.6, 1.0 / 1.5),
        activity_cycles=12,
        activity_batch=4,
        seed=7,
    )
    return ExplorationResult(
        design_name="synthetic",
        settings=settings,
        num_domains=4,
        best_per_bitwidth={b: point(b, 0.6) for b in settings.bitwidths},
        points_evaluated=96,
        points_feasible=41,
        runtime_s=0.1 + 0.2,
        feasible_counts={
            (b, v): b for b in settings.bitwidths for v in settings.vdd_values
        },
        best_per_knob_point={
            (b, v): point(b, v)
            for b in settings.bitwidths
            for v in settings.vdd_values
        },
    )


class TestExplorationRoundTrip:
    def test_points_timed_round_trips_and_defaults(self):
        import dataclasses
        import json

        from repro.io import load_exploration, save_exploration

        result = dataclasses.replace(_synthetic_exploration(), points_timed=17)
        stream = io.StringIO()
        save_exploration(result, stream)
        payload = json.loads(stream.getvalue())
        loaded = load_exploration(io.StringIO(stream.getvalue()))
        assert loaded.points_timed == 17
        # Files written before pruning existed timed every point.
        del payload["points_timed"]
        legacy = load_exploration(io.StringIO(json.dumps(payload)))
        assert legacy.points_timed == legacy.points_evaluated == 96

    def test_bit_exact_identity(self):
        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        stream.seek(0)
        loaded = load_exploration(stream)
        # Dataclass equality compares every float with ==, so this is a
        # bit-exactness claim, deliberately including 0.1 + 0.2 style
        # values that would break under any repr/rounding shortcut.
        assert loaded == result

    def test_every_operating_point_field_preserved(self):
        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        stream.seek(0)
        loaded = load_exploration(stream)
        for bits, point in result.best_per_bitwidth.items():
            other = loaded.best_per_bitwidth[bits]
            assert other.active_bits == point.active_bits
            assert other.vdd == point.vdd
            assert other.bb_config == point.bb_config
            assert other.total_power_w == point.total_power_w
            assert other.dynamic_power_w == point.dynamic_power_w
            assert other.leakage_power_w == point.leakage_power_w
            assert other.worst_slack_ps == point.worst_slack_ps

    def test_version_mismatch_rejected(self):
        import json

        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        payload = json.loads(stream.getvalue())
        payload["schema"] = 99
        with pytest.raises(ValueError, match="unsupported exploration schema"):
            load_exploration(io.StringIO(json.dumps(payload)))

    def test_missing_schema_rejected(self):
        import json

        from repro.io import load_exploration, save_exploration

        result = _synthetic_exploration()
        stream = io.StringIO()
        save_exploration(result, stream)
        payload = json.loads(stream.getvalue())
        del payload["schema"]
        with pytest.raises(ValueError, match="unsupported exploration schema"):
            load_exploration(io.StringIO(json.dumps(payload)))


class TestModeTableArtifact:
    def test_bit_exact_identity(self):
        from repro.io import load_mode_table, save_mode_table
        from tests.conftest import build_synthetic_table

        table = build_synthetic_table()
        stream = io.StringIO()
        save_mode_table(table, stream)
        stream.seek(0)
        assert load_mode_table(stream) == table

    def test_version_mismatch_rejected(self):
        import json

        from repro.io import load_mode_table
        from tests.conftest import build_synthetic_table

        payload = build_synthetic_table().to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="unsupported mode-table schema"):
            load_mode_table(io.StringIO(json.dumps(payload)))
