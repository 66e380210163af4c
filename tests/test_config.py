import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sttsim import (
    CacheUnitConfig,
    ConfigError,
    SttsimError,
    HierarchyConfig,
    Objective,
    Technology,
    TechParams,
    load_experiment_config,
)
from sttsim.cache import MAX_WAYS
from sttsim.hierarchy import MAX_CORES

FULL = """
[hierarchy]
num_cores = 4
clock_hz = 1.9e9
mem_latency_cycles = 120
mem_energy_per_access_j = 3e-11

[l1i]
technology = STTRAM
retention_s = 1e-3

[l1d]
size_bytes = 65536
associativity = 8
technology = STTRAM
retention_s = 1e-2
counter_states = 8

[l2]
technology = SRAM

[synthetic]
seed = 7
accesses_per_core = 5000
read_fraction = 0.6
working_set_blocks = 128
gap = loguniform:10:1000
pattern = zipf:1.1

[experiment]
retentions = 1e-5 1e-4 1e-3
objective = edp
profile_len = 500
base_retention = 1e-4
core_retentions = 1e-3 1e-2 1e-1 1e-3
out_dir = out
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_full_config(tmp_path):
    cfg = load_experiment_config(write(tmp_path, FULL))
    hier = cfg.hierarchy
    assert hier.num_cores == 4
    assert hier.mem_latency_cycles == 120
    assert hier.l1i[0].size_bytes == 32 * 1024  # default geometry
    assert hier.l1i[0].technology is Technology.STTRAM
    assert hier.l1d[0].size_bytes == 65536
    assert hier.l1d[0].counter_states == 8
    assert hier.l2.size_bytes == 2 * 1024 * 1024  # default L2 geometry
    assert hier.l2.technology is Technology.SRAM
    assert cfg.synthetic.seed == 7
    assert cfg.synthetic.num_cores == 4  # inherits hierarchy core count
    assert cfg.retentions == [1e-5, 1e-4, 1e-3]
    assert cfg.objective is Objective.EDP
    assert cfg.core_retentions == [1e-3, 1e-2, 1e-1, 1e-3]
    assert cfg.out_dir.endswith("out")


def test_minimal_config_defaults(tmp_path):
    cfg = load_experiment_config(write(tmp_path, "[synthetic]\nseed = 1\n"))
    assert cfg.hierarchy.num_cores == 1
    assert cfg.hierarchy.l2 is None
    assert cfg.hierarchy.clock_hz == 1.9e9
    assert cfg.retentions == [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    assert cfg.objective is Objective.ENERGY
    assert cfg.base_retention == 1e-3
    assert cfg.profile_len == 10_000


def test_trace_input_resolves_relative_path(tmp_path):
    (tmp_path / "t.trace").write_text("0 0 LD 0x0\n")
    cfg = load_experiment_config(write(tmp_path, "[input]\ntrace = t.trace\n"))
    assert cfg.trace_path == str(tmp_path / "t.trace")
    assert cfg.synthetic is None


def test_both_inputs_rejected(tmp_path):
    text = "[input]\ntrace = t.trace\n\n[synthetic]\nseed = 1\n"
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, text))


def test_neither_input_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, "[hierarchy]\nnum_cores = 1\n"))


def test_duplicate_retentions_rejected(tmp_path):
    text = "[synthetic]\nseed = 1\n\n[experiment]\nretentions = 1e-3 1e-3\n"
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, text))


def test_negative_retention_rejected(tmp_path):
    text = "[synthetic]\nseed = 1\n\n[experiment]\nretentions = -1e-3\n"
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, text))


def test_bad_objective_named(tmp_path):
    text = "[synthetic]\nseed = 1\n\n[experiment]\nobjective = speed\n"
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(write(tmp_path, text))
    assert "speed" in str(exc.value)


def test_bad_value_names_key(tmp_path):
    text = "[hierarchy]\nnum_cores = many\n\n[synthetic]\nseed = 1\n"
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(write(tmp_path, text))
    assert "num_cores" in str(exc.value)


@pytest.mark.parametrize("section, key, value", [
    ("hierarchy", "num_cores", "1_0"),
    ("hierarchy", "num_cores", "\u0664"),
    ("hierarchy", "clock_hz", "1_900e6"),
    ("l1d", "associativity", "\u0668"),
    ("experiment", "retentions", "1e-3 1_0e-3"),
    ("experiment", "core_retentions", "\u0661e-3"),
])
def test_numbers_outside_ascii_digits_rejected(tmp_path, section, key, value):
    # int() and float() take each value; dropping the check from _get loads 1_0 as 10 and \u0664 as 4
    text = f"[{section}]\n{key} = {value}\n\n[synthetic]\nseed = 1\n"
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(str(path))
    assert str(exc.value) == f"{path}: bad value {value!r} for key {key!r}"


@pytest.mark.parametrize("spec", ["gap = constant:1_0", "gap = loguniform:1:\u0669", "pattern = zipf:1_0"])
def test_specs_outside_ascii_digits_rejected(tmp_path, spec):
    path = tmp_path / "exp.cfg"
    path.write_text(f"[synthetic]\nseed = 1\n{spec}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"bad {spec.split()[0]} spec"):
        load_experiment_config(str(path))


def test_percent_is_a_plain_character(tmp_path):
    # interpolation would raise InterpolationSyntaxError, a traceback out of the CLI
    cfg = load_experiment_config(write(tmp_path, "[synthetic]\nseed = 1\n\n[experiment]\nout_dir = 100%\n"))
    assert cfg.out_dir == str(tmp_path / "100%")
    cfg = load_experiment_config(write(tmp_path, "[input]\ntrace = %(here)s.trace\n"))
    assert cfg.trace_path == str(tmp_path / "%(here)s.trace")


@pytest.mark.parametrize("text, message", [
    ("[hierarchy]\nnum_cores = many\n\n[synthetic]\nseed = 1\n", "bad value 'many' for key 'num_cores'"),
    ("[hierarchy]\nnum_cores = 0\n\n[synthetic]\nseed = 1\n", "num_cores must be >= 1"),
    ("[l1d]\nassociativity = 3\n\n[synthetic]\nseed = 1\n", "associativity"),
    ("[synthetic]\nseed = 1\nread_fraction = 2\n", "read_fraction must be in [0, 1]"),
    ("[hierarchy]\nnum_cores = 1\n", "exactly one of [input] trace or a [synthetic] section"),
])
def test_errors_name_the_config_file(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("[l1d]\ntechnolgy = STTRAM\n\n[synthetic]\nseed = 1\n", "unknown key 'technolgy' in section [l1d]"),
    ("[synthetic]\nseed = 1\n\n[experimnt]\nretentions = 1e-3\n",
     "unknown section [experimnt]; expected hierarchy, l1i, l1d, l2, input, synthetic, experiment"),
    # a [DEFAULT] key is a key of every section: [l1d] takes it, [synthetic] does not
    ("[DEFAULT]\nretention_s = 1e-3\n\n[l1d]\ntechnology = STTRAM\n\n[synthetic]\nseed = 1\n",
     "unknown key 'retention_s' in section [DEFAULT], inherited by [synthetic]"),
])
def test_unknown_section_or_key_named(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)


def test_a_default_key_every_section_takes_is_read(tmp_path):
    text = "[DEFAULT]\nline_size_bytes = 128\n\n[l1d]\n\n[synthetic]\nseed = 1\n"
    cfg = load_experiment_config(write(tmp_path, text))
    assert cfg.hierarchy.l1d[0].line_size_bytes == 128 and cfg.synthetic.line_size_bytes == 128


def test_sttram_without_retention_rejected(tmp_path):
    text = "[l1d]\ntechnology = STTRAM\n\n[synthetic]\nseed = 1\n"
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, text))


def test_counter_states_bound(tmp_path):
    text = "[l1d]\ntechnology = STTRAM\nretention_s = 1e-3\ncounter_states = {}\n\n[synthetic]\nseed = 1\n"
    assert load_experiment_config(write(tmp_path, text.format(256))).hierarchy.l1d[0].counter_states == 256
    for n in (257, 10**6):
        with pytest.raises(ConfigError, match=f"counter_states must be <= 256, got {n}"):
            load_experiment_config(write(tmp_path, text.format(n)))


@pytest.mark.parametrize("text, value", [("true", True), ("Yes", True), ("on", True), ("1", True),
                                         ("false", False), ("NO", False), ("off", False), ("0", False)])
def test_refresh_on_read_values(tmp_path, text, value):
    cfg = load_experiment_config(write(tmp_path, f"[l1d]\nrefresh_on_read = {text}\n\n[synthetic]\nseed = 1\n"))
    assert cfg.hierarchy.l1d[0].refresh_on_read is value
    assert cfg.hierarchy.l1i[0].refresh_on_read is False


def test_bad_refresh_on_read_names_key(tmp_path):
    with pytest.raises(ConfigError, match="bad value 'sometimes' for key 'refresh_on_read'"):
        load_experiment_config(write(tmp_path, "[l1i]\nrefresh_on_read = sometimes\n\n[synthetic]\nseed = 1\n"))


def test_unknown_technology_named(tmp_path):
    with pytest.raises(ConfigError, match="unknown technology 'dram'; expected SRAM or STTRAM"):
        load_experiment_config(write(tmp_path, "[l2]\ntechnology = dram\n\n[synthetic]\nseed = 1\n"))


def test_technology_is_ascii(tmp_path):
    # "\u017fram".upper() is "SRAM"; the error names the text as written
    path = tmp_path / "exp.cfg"
    path.write_text("[l2]\ntechnology = \u017fram\n\n[synthetic]\nseed = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown technology '\u017fram'; expected SRAM or STTRAM"):
        load_experiment_config(str(path))


@pytest.mark.parametrize("key", ["retentions", "core_retentions"])
def test_bad_retention_list_names_key(tmp_path, key):
    text = f"[synthetic]\nseed = 1\n\n[experiment]\n{key} = 1e-3 fast\n"
    with pytest.raises(ConfigError, match=f"bad value '1e-3 fast' for key '{key}'"):
        load_experiment_config(write(tmp_path, text))


def test_empty_retention_lists(tmp_path):
    cfg = load_experiment_config(write(tmp_path, "[synthetic]\nseed = 1\n\n[experiment]\ncore_retentions =\n"))
    assert cfg.core_retentions == []
    with pytest.raises(ConfigError, match="at least one retention"):
        load_experiment_config(write(tmp_path, "[synthetic]\nseed = 1\n\n[experiment]\nretentions =\n"))


def test_paths_resolve_from_config_directory(tmp_path):
    sub = tmp_path / "configs"
    sub.mkdir()
    text = "[input]\ntrace = {0}t.trace\n\n[experiment]\ntech_table = {0}table.txt\nout_dir = {0}out\n"
    cfg = load_experiment_config(write(sub, text.format("")))
    assert (cfg.trace_path, cfg.tech_table_path, cfg.out_dir) == (
        str(sub / "t.trace"), str(sub / "table.txt"), str(sub / "out"))
    # an absolute path is kept as written
    cfg = load_experiment_config(write(sub, text.format(f"{tmp_path}/")))
    assert (cfg.trace_path, cfg.tech_table_path, cfg.out_dir) == (
        str(tmp_path / "t.trace"), str(tmp_path / "table.txt"), str(tmp_path / "out"))


def test_default_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_experiment_config(write(tmp_path, "[synthetic]\nseed = 1\n"))
    assert cfg.tech_table_path is None
    assert cfg.out_dir == str(tmp_path / "reports")
    # a config named by a relative path resolves from its own directory, not the working one
    (tmp_path / "sub").mkdir()
    write(tmp_path / "sub", "[input]\ntrace = t.trace\n")
    assert load_experiment_config("sub/exp.cfg").trace_path == str(tmp_path / "sub" / "t.trace")


L1 = CacheUnitConfig(4096, 4, 64)


def _tech(**fields):
    values = dict(technology=Technology.STTRAM, retention_time=1e-3, e_read=1e-12, e_write=2e-12, p_leak=1e-3,
                  t_read=2, t_write=4)
    return TechParams(**(values | fields))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: CacheUnitConfig(4096.0, 4, 64), "size_bytes must be an int, got 4096.0"),
        (lambda: CacheUnitConfig(4096, "4", 64), "associativity must be an int, got '4'"),
        (lambda: CacheUnitConfig(4096, 4, 64.0), "line_size_bytes must be an int, got 64.0"),
        (lambda: CacheUnitConfig(4096, 4, 64, counter_states=4.0), "counter_states must be an int, got 4.0"),
        (lambda: CacheUnitConfig(4096, 4, 64, "STTRAM", 1e-3), "technology must be a Technology, got 'STTRAM'"),
        (lambda: CacheUnitConfig(4096, 4, 64, Technology.STTRAM, "1e-3"),
         "retention_time must be a real number, got '1e-3'"),
        (lambda: CacheUnitConfig(4096, 4, 64, refresh_on_read="no"), "refresh_on_read must be a bool, got 'no'"),
        (lambda: CacheUnitConfig(4096, 4, 64, refresh_on_read=1), "refresh_on_read must be a bool, got 1"),
        (lambda: HierarchyConfig(num_cores=2.0, l1i=L1, l1d=L1), "num_cores must be an int, got 2.0"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, mem_latency_cycles=1.5),
         "mem_latency_cycles must be an int, got 1.5"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, clock_hz="1.9e9"),
         "clock_hz must be a real number, got '1.9e9'"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, mem_energy_per_access=None),
         "mem_energy_per_access must be a real number, got None"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, l2="l2"), "l2 must be a CacheUnitConfig or None, got 'l2'"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=4096), "l1d must be a CacheUnitConfig or a list or tuple of them"),
        (lambda: HierarchyConfig(num_cores=2, l1i=L1, l1d=[L1, None]),
         "l1d must be a CacheUnitConfig or a list or tuple of them"),
        (lambda: _tech(t_read=1.5), "t_read must be an int, got 1.5"),
        (lambda: _tech(t_write="4"), "t_write must be an int, got '4'"),
        (lambda: _tech(e_read="1e-12"), "e_read must be a real number, got '1e-12'"),
        (lambda: _tech(retention_time="1e-3"), "retention_time must be a real number, got '1e-3'"),
        (lambda: _tech(technology="SRAM"), "technology must be a Technology, got 'SRAM'"),
        # a bool is an int to isinstance, but no count or quantity
        (lambda: HierarchyConfig(num_cores=True, l1i=L1, l1d=L1), "num_cores must be an int, got True"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, mem_latency_cycles=True),
         "mem_latency_cycles must be an int, got True"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, clock_hz=True), "clock_hz must be a real number, got True"),
        (lambda: HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, mem_energy_per_access=False),
         "mem_energy_per_access must be a real number, got False"),
        (lambda: CacheUnitConfig(4096, 4, 64, counter_states=True), "counter_states must be an int, got True"),
        (lambda: CacheUnitConfig(4096, 4, 64, Technology.STTRAM, True), "retention_time must be a real number, got True"),
        (lambda: _tech(t_read=True), "t_read must be an int, got True"),
        (lambda: _tech(e_write=False), "e_write must be a real number, got False"),
    ],
)
def test_config_fields_of_the_wrong_type(build, match):
    # built in code, where no loader converts the values first
    with pytest.raises(ConfigError, match=re.escape(match)):
        build()


def test_sizes_are_bounded_before_any_unit_is_built(tmp_path):
    # an L2 of 2**70 bytes once passed every check, and a run ended in an OverflowError traceback building it
    with pytest.raises(ConfigError, match=re.escape(f"at most MAX_WAYS = {MAX_WAYS} ways (size_bytes / "
                                                    f"line_size_bytes), got {2**64}")):
        CacheUnitConfig(2**70, 16, 64)
    assert CacheUnitConfig(MAX_WAYS, 16, 1).num_blocks == MAX_WAYS  # the bound itself is admitted
    with pytest.raises(ConfigError, match=f"num_cores must be <= MAX_CORES = {MAX_CORES}, got {MAX_CORES + 1}$"):
        HierarchyConfig(num_cores=MAX_CORES + 1, l1i=L1, l1d=L1)
    assert len(HierarchyConfig(num_cores=MAX_CORES, l1i=L1, l1d=L1).l1d) == MAX_CORES
    # the ways of all units together: two 64-way L1s beside an L2 at the bound
    with pytest.raises(ConfigError, match=f"units hold at most MAX_WAYS = {MAX_WAYS} ways between them, "
                                          f"got {MAX_WAYS + 128}$"):
        HierarchyConfig(num_cores=1, l1i=L1, l1d=L1, l2=CacheUnitConfig(MAX_WAYS * 64, 16, 64))
    path = write(tmp_path, "[l2]\nsize_bytes = 1180591620717411303424\n\n[synthetic]\nseed = 1\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: a unit holds at most MAX_WAYS = {MAX_WAYS} ways"):
        load_experiment_config(path)


def test_config_fields_of_the_right_type():
    l2 = CacheUnitConfig(65536, 16, 64, Technology.STTRAM, 1, counter_states=8, refresh_on_read=True)
    cfg = HierarchyConfig(num_cores=2, l1i=[L1, L1], l1d=(L1, L1), l2=l2, clock_hz=2_000_000_000,
                          mem_latency_cycles=0, mem_energy_per_access=0)
    assert cfg.l1i == (L1, L1) and cfg.l2 is l2
    assert _tech(technology=Technology.SRAM, retention_time=None, e_read=0, t_read=0).t_read == 0


# config-like lines: sections, keys with values in and out of the grammar, interpolation and comment syntax
_CONFIG_LINES = st.one_of(
    st.sampled_from(["[hierarchy]", "[l1i]", "[l1d]", "[l2]", "[input]", "[synthetic]", "[experiment]", "[other]",
                     "[", "", "; note", "# note", "  indented", "%", "%(x)s"]),
    st.builds("{} = {}".format,
              st.sampled_from(["num_cores", "clock_hz", "mem_latency_cycles", "size_bytes", "associativity",
                               "line_size_bytes", "technology", "retention_s", "counter_states", "refresh_on_read",
                               "trace", "seed", "accesses_per_core", "read_fraction", "working_set_blocks", "gap",
                               "pattern", "retentions", "objective", "profile_len", "base_retention",
                               "core_retentions", "tech_table", "out_dir", "unknown"]),
              # 2**70 and 2**32, and one core past MAX_CORES: sizes and core counts refused before any unit is built
              st.sampled_from(["0", "1", "4", "-1", "1_0", "\u0664", "1e-3", "1e999", "nan", "-inf", "2.5", "64",
                               "1180591620717411303424", "4294967296", "1025",
                               "STTRAM", "sram", "\u017fram", "yes", "maybe", "constant:20", "loguniform:10:5",
                               "zipf:1.2", "zipf:0", "uniform", "t.trace", "100%", "%(x)s", "edp", "1e-3 1e-3", ""])),
)
_CONFIG_SOUP = st.lists(_CONFIG_LINES, max_size=14).map(lambda lines: "\n".join(lines).encode())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), _CONFIG_SOUP))
# one core past MAX_CORES, in a config that loads but for that: the soup seldom draws it
@example(b"[hierarchy]\nnum_cores = 1025\n[synthetic]\nseed = 1\n")
def test_load_experiment_config_returns_a_config_or_names_the_file(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "exp.cfg"
    path.write_bytes(content)
    try:
        cfg = load_experiment_config(str(path))
    except SttsimError as exc:
        assert str(path) in str(exc)
        return
    # a loaded config bounds what a run allocates: its cores, and the ways of all its units
    units = [*cfg.hierarchy.l1i, *cfg.hierarchy.l1d] + ([cfg.hierarchy.l2] if cfg.hierarchy.l2 else [])
    assert cfg.hierarchy.num_cores <= MAX_CORES and sum(u.num_blocks for u in units) <= MAX_WAYS
