import pytest

from sttsim import ConfigError, Objective, Technology, load_experiment_config

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
