import pytest

from switchctl.config import emit_config, parse_config
from switchctl.errors import ConfigError

MINIMAL = """
[model]
preset = merton-ti
[grid]
n_x = 41
n_t = 64
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.get("model", "preset") == "merton-ti"
    assert cfg.get("solver", "tol") == 1e-9
    assert cfg.get("solver", "epsilons") == [0.1, 0.05, 0.025]
    assert cfg.get("run", "seed") == 12345
    assert cfg.get("output", "formats") == ["csv", "json"]


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigError, match=r"sigmaa.*did you mean 'sigma'"):
        parse_config("[model]\nsigmaa = 0.2\n")


def test_unknown_section_suggests_nearest():
    with pytest.raises(ConfigError, match=r"did you mean '\[grid\]'"):
        parse_config("[grd]\nn_x = 5\n")


def test_all_violations_reported():
    bad = """
[grid]
n_x = 1
n_t = zero
[solver]
tol = -1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "n_x" in text and "n_t" in text and "tol" in text


def test_expression_error_with_offset():
    with pytest.raises(ConfigError, match="byte"):
        parse_config("[model]\ndrift = 1 + * x\n")


def test_expressions_validated_and_usable():
    cfg = parse_config("[model]\ndrift = 0.2 + 0.1*tanh(x)\n")
    assert cfg.get("model", "drift")(x=0.0) == pytest.approx(0.2)


def test_round_trip_identity():
    text = """
[model]
preset = toy-lq
drift = u
sigma = 0.2 + 0.0*x
beta_1 = 0, 0, 0.2 + 0.1*tanh(x)
beta_2 = -0.6, -0.4 - 0.1*tanh(x), -0.4 - 0.1*tanh(x)
[grid]
n_x = 51
t_max = 2.0
[solver]
epsilons = 0.2, 0.1
[run]
seed = 7
"""
    cfg = parse_config(text)
    again = parse_config(emit_config(cfg))
    assert again == cfg


def test_top_level_comma_split_respects_parens():
    cfg = parse_config("[model]\nbeta_1 = 0, 0, min(0.4, max(0.1, x))\n")
    exprs = cfg.get("model", "beta_1")
    assert len(exprs) == 3
    assert exprs[2](x=0.25) == pytest.approx(0.25)


def test_bad_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("[model]\npreset = mertonX\n")


def test_variant_validated():
    with pytest.raises(ConfigError, match="variant"):
        parse_config("[solver]\nvariant = both\n")


@pytest.mark.parametrize("formats", ["json", "cvs", "csv, jsn", "bin, xml", ""])
def test_output_formats_need_a_field_format(formats):
    with pytest.raises(ConfigError, match=r"\[output\] formats") as err:
        parse_config(MINIMAL + f"[output]\nformats = {formats}\n")
    assert err.value.exit_code == 2


def test_output_formats_accepted():
    for formats in ("csv, json", "csv", "bin", "binary, json", "json, csv, bin"):
        cfg = parse_config(MINIMAL + f"[output]\nformats = {formats}\n")
        assert cfg.get("output", "formats") == [f.strip() for f in formats.split(",")]


@pytest.mark.parametrize("line", ["max_sweeps = 40", "slab = 0.125"])
def test_removed_solver_keys_rejected(line):
    with pytest.raises(ConfigError, match=r"\[solver\] .*unknown key") as err:
        parse_config(MINIMAL + f"[solver]\n{line}\n")
    assert err.value.exit_code == 2
