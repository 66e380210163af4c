import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sttsim import (
    ConfigError,
    EnergyBreakdown,
    SttsimError,
    TechParams,
    Technology,
    load_tech_table,
    sample_tech_table,
    unit_energy,
)
from sttsim.energy import TechTable


def params(e_read=1e-12, e_write=2e-12, p_leak=0.0, retention=1e-3):
    return TechParams(Technology.STTRAM, retention, e_read, e_write, p_leak, 2, 4)


def counters(read_hits=0, write_hits=0, fills=0, writebacks=0):
    return SimpleNamespace(read_hits=read_hits, write_hits=write_hits, fills=fills, writebacks=writebacks)


class TestUnitEnergy:
    def test_leakage_only(self):
        out = unit_energy(params(p_leak=1e-3), counters(), wall_time=1.0)
        assert out == EnergyBreakdown(0.0, 0.0, 1e-3, 1e-3)

    def test_hand_arithmetic(self):
        # 10 read hits + 1 writeback read at 1pJ, (0 write hits + 2 fills) at 2pJ
        out = unit_energy(params(), counters(read_hits=10, fills=2, writebacks=1), wall_time=0.0)
        assert out.dynamic_read == 11 * 1e-12
        assert out.dynamic_write == 2 * 2e-12
        assert out.total == 15e-12

    def test_total_is_exact_sum(self):
        out = unit_energy(
            params(e_read=3.7e-13, e_write=9.1e-13, p_leak=2.3e-4),
            counters(read_hits=1234, write_hits=567, fills=89, writebacks=21),
            wall_time=0.0137,
        )
        assert out.total == out.dynamic_read + out.dynamic_write + out.leakage

    def test_linearity_in_table_energies(self):
        c = counters(read_hits=100, write_hits=50, fills=20, writebacks=5)
        base = unit_energy(params(p_leak=1e-4), c, wall_time=0.5)
        scaled = unit_energy(
            TechParams(Technology.STTRAM, 1e-3, 3.0 * 1e-12, 3.0 * 2e-12, 3.0 * 1e-4, 2, 4),
            c,
            wall_time=0.5,
        )
        assert scaled.dynamic_read == pytest.approx(3 * base.dynamic_read, rel=1e-12)
        assert scaled.dynamic_write == pytest.approx(3 * base.dynamic_write, rel=1e-12)
        assert scaled.leakage == pytest.approx(3 * base.leakage, rel=1e-12)
        assert scaled.total == pytest.approx(3 * base.total, rel=1e-12)

    def test_no_writes_no_write_energy(self):
        out = unit_energy(params(), counters(read_hits=500), wall_time=1.0)
        assert out.dynamic_write == 0.0

    def test_negative_wall_time_rejected(self):
        with pytest.raises(ValueError):
            unit_energy(params(), counters(), wall_time=-1.0)

    def test_reproducible(self):
        c = counters(read_hits=11, write_hits=7, fills=3, writebacks=2)
        assert unit_energy(params(p_leak=1e-5), c, 0.25) == unit_energy(params(p_leak=1e-5), c, 0.25)


class TestTableParsing:
    def test_row_mapping(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("STTRAM 1e-3 0.8e-12 1.5e-12 0.2e-3 2 4\n")
        table = load_tech_table(str(p))
        row = table.lookup(Technology.STTRAM, 1e-3)
        assert row == TechParams(Technology.STTRAM, 1e-3, 0.8e-12, 1.5e-12, 0.2e-3, 2, 4)

    def test_sram_row_uses_dash(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("# comment line\nSRAM - 1e-12 1e-12 1e-3 2 2\n")
        table = load_tech_table(str(p))
        assert table.lookup(Technology.SRAM, None).technology is Technology.SRAM
        # SRAM lookup ignores any retention the config carries
        assert table.lookup(Technology.SRAM, 123.0).p_leak == 1e-3

    def test_missing_entry_names_pair(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("SRAM - 1e-12 1e-12 1e-3 2 2\n")
        table = load_tech_table(str(p))
        with pytest.raises(ConfigError) as exc:
            table.lookup(Technology.STTRAM, 1e-3)
        assert "STTRAM" in str(exc.value) and "0.001" in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("STTRAM 1e-3 1e-12 2e-12 1e-3 2 4\nSTTRAM 1e-3 9e-12 9e-12 9e-3 2 4\n")
        with pytest.raises(ConfigError) as exc:
            load_tech_table(str(p))
        assert "duplicate" in str(exc.value)

    def test_negative_value_rejected(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("STTRAM 1e-3 -1e-12 2e-12 1e-3 2 4\n")
        with pytest.raises(ConfigError):
            load_tech_table(str(p))

    @pytest.mark.parametrize(
        "row, field",
        [
            ("SRAM - 1e-12 -1e-11 1e-3 2 2", "e_write"),
            ("SRAM - nan 1e-11 1e-3 2 2", "e_read"),
            ("SRAM - 1e-12 inf 1e-3 2 2", "e_write"),
            ("STTRAM 1e-3 1e-12 1e-11 -inf 2 4", "p_leak"),
            ("STTRAM 1e-3 1e-12 1e-11 nan 2 4", "p_leak"),
            ("STTRAM 1e-3 1e-12 1e-11 1e-3 -2 4", "t_read"),
            ("STTRAM nan 1e-12 1e-11 1e-3 2 4", "retention_time"),
            ("STTRAM inf 1e-12 1e-11 1e-3 2 4", "retention_time"),
            ("STTRAM 0 1e-12 1e-11 1e-3 2 4", "retention_time"),
            ("DRAM - 1e-12 1e-11 1e-3 2 2", "unknown technology 'DRAM'"),
            ("STTRAM - 1e-12 1e-11 1e-3 2 4", "STTRAM row requires a retention time"),
            ("STTRAM fast 1e-12 1e-11 1e-3 2 4", "malformed numeric field"),
            ("STTRAM 1e-3 1e-12 x 1e-3 2 4", "malformed numeric field"),
            ("STTRAM 1e-3 1e-12 1e-11 1e-3 2.5 4", "malformed numeric field"),
            # float() and int() take each of these: dropping the "_" check of _parse_row loads 1_0e-3, its
            # isascii() check the Arabic-Indic digits, and its check of the cycle counts' digits +2
            ("STTRAM 1_0e-3 1e-12 1e-11 1e-3 2 4", "malformed numeric field"),
            ("STTRAM 1e-3 \u0661e-12 1e-11 1e-3 2 4", "malformed numeric field"),
            ("STTRAM 1e-3 1e-12 1e-11 1e-3 +2 4", "malformed numeric field"),
            ("STTRAM 1e-3 1e-12 1e-11 1e-3 2 1_0", "malformed numeric field"),
            ("STTRAM 1e-3 1e-12 1e-11 1e-3 2 \u0664", "malformed numeric field"),
            # an SRAM key has no retention, so one given would be dropped without a word
            ("SRAM 1e-3 1e-12 1e-11 1e-3 2 2", "SRAM row takes retention '-', got '1e-3'"),
            ("SRAM x 1e-12 1e-11 1e-3 2 2", "SRAM row takes retention '-', got 'x'"),
            ("\u017fram - 1e-12 1e-11 1e-3 2 2", "unknown technology '\u017fram'"),  # its upper() is "SRAM"
        ],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, row, field):
        p = tmp_path / "tbl.txt"
        p.write_text(f"# header\nSTTRAM 1e-4 1e-12 1e-12 1e-3 2 2\n{row}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_tech_table(str(p))
        assert str(exc.value).startswith(f"{p}:3: ")
        assert field in str(exc.value)

    def test_duplicate_names_file_and_line(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("STTRAM 1e-3 1e-12 2e-12 1e-3 2 4\n\nSTTRAM 1e-3 9e-12 9e-12 9e-3 2 4\n")
        with pytest.raises(ConfigError) as exc:
            load_tech_table(str(p))
        assert str(exc.value).startswith(f"{p}:3: duplicate")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_params_require_finite_values(self, value):
        with pytest.raises(ConfigError):
            params(e_read=value)
        with pytest.raises(ConfigError):
            params(p_leak=value)
        with pytest.raises(ConfigError):
            params(retention=value)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("STTRAM 1e-3 1e-12 2e-12 1e-3 2\n")
        with pytest.raises(ConfigError) as exc:
            load_tech_table(str(p))
        assert ":1" in str(exc.value)

    def test_nonmonotone_write_cost_warns(self):
        rows = [
            TechParams(Technology.STTRAM, 1e-4, 1e-12, 5e-12, 1e-3, 2, 4),
            TechParams(Technology.STTRAM, 1e-3, 1e-12, 3e-12, 1e-3, 2, 4),  # cheaper writes, suspicious
        ]
        with pytest.warns(UserWarning, match="write cost decreases"):
            TechTable(rows)

    def test_sample_table_covers_default_sweep(self):
        table = sample_tech_table()
        table.lookup(Technology.SRAM, None)
        for r in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            assert table.lookup(Technology.STTRAM, r).retention_time == r
        # longer retention never has cheaper writes in the sample table
        rets = table.retentions()
        costs = [table.lookup(Technology.STTRAM, r).e_write for r in rets]
        assert costs == sorted(costs)


# row-like tokens, numbers Python's float and int take beyond the grammar, and the characters a line splits on
_TABLE_TOKENS = st.sampled_from([
    "SRAM", "STTRAM", "sttram", "\u017fram", "DRAM", "-", "0", "2", "-2", "+2", "1_0", "\u0661", "2.5", "1e-3",
    "1.5e-11", "-1e-12", "1e999", "nan", "inf", "x", "#", "# note", "", " ", "\t", "\r", "\x0c", "\u2028", "\x00",
])
_TABLE_SOUP = st.lists(st.lists(_TABLE_TOKENS, max_size=9).map(" ".join), max_size=10).map(
    lambda lines: "\n".join(lines).encode())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=200), _TABLE_SOUP))
def test_load_tech_table_returns_a_table_or_names_the_file(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "tbl.txt"
    path.write_bytes(content)
    try:
        table = load_tech_table(str(path))
    except SttsimError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(table, TechTable)
