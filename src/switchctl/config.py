"""Run configuration: nested key-value text with validated sections.

The file format is INI-style (configparser): sections ``[model]``,
``[grid]``, ``[solver]``, ``[output]``, ``[run]``.  Values are numbers,
names, comma-separated lists, or coefficient expressions in the small
arithmetic grammar.  Parsing validates against the schema below and
reports *every* violation with its section/key path; unknown keys name
their nearest valid neighbour.  ``emit_config(parse_config(text))``
reparses to an equal RunConfig.
"""

import configparser
import difflib
import io

from .errors import ConfigError, ExpressionError
from .expressions import CoefficientExpression

_GEOMETRY_PRESETS = ("constant", "tanh", "affine", "empty")
_MODEL_PRESETS = ("merton-ti", "merton-tc", "toy-lq", "toy-lq-tc")
# formats that write the value field; "json" is accepted too, as the JSON
# artifacts are always written
_FIELD_FORMATS = ("csv", "bin", "binary")


def _parse_float(text):
    return float(text)


def _parse_int(text):
    value = int(text)
    return value


def _parse_str(text):
    return text.strip()


def _parse_expr(text):
    return CoefficientExpression(text.strip())


def _split_top_level(text, sep=","):
    """Split on separators outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_expr_list(text):
    return [CoefficientExpression(p) for p in _split_top_level(text)]


def _parse_float_list(text):
    return [float(p) for p in _split_top_level(text)]


def _parse_int_list(text):
    return [int(p) for p in _split_top_level(text)]


def _parse_str_list(text):
    return [p for p in _split_top_level(text)]


# section -> key -> (parser, default); None default means "required
# only when the consuming subcommand needs it" (checked there).
SCHEMA = {
    "model": {
        "preset": (_parse_str, "merton-ti"),
        "regimes": (_parse_int, 2),
        "beta0": (_parse_float, 1.0),
        "geometry": (_parse_str, None),      # geometry preset for simulate/rates
        "beta_1": (_parse_expr_list, None),
        "beta_2": (_parse_expr_list, None),
        "beta_3": (_parse_expr_list, None),
        "beta_4": (_parse_expr_list, None),
        "density": (_parse_expr, None),
        "drift": (_parse_expr, None),
        "sigma": (_parse_expr, None),
        "x0": (_parse_float, 0.0),
        "i0": (_parse_int, 1),
    },
    "grid": {
        "x_min": (_parse_float, None),
        "x_max": (_parse_float, None),
        "n_x": (_parse_int, 81),
        "n_t": (_parse_int, 160),
        "t_max": (_parse_float, 1.0),
        "buffer": (_parse_float, 0.15),
    },
    "solver": {
        "tol": (_parse_float, 1e-9),
        "partitions": (_parse_int_list, [1, 2, 4]),
        "knots": (_parse_float_list, None),
        "epsilons": (_parse_float_list, [0.1, 0.05, 0.025]),
        "spike_anchor": (_parse_float, 0.25),
        "anchor": (_parse_float, 0.0),
        "n_paths": (_parse_int, 100000),
        "h": (_parse_float, 0.01),
        "ds": (_parse_float, 1e-3),
        "rate_states": (_parse_float_list, [-1.0, 0.0, 1.0]),
        "variant": (_parse_str, "eq"),
    },
    "output": {
        "directory": (_parse_str, "out"),
        "formats": (_parse_str_list, ["csv", "json"]),
    },
    "run": {
        "seed": (_parse_int, 12345),
        "workers": (_parse_int, 1),     # accepted and checked; runs are serial
    },
}

_VALIDATORS = {
    ("grid", "n_x"): lambda v: v >= 3 or "n_x must be at least 3",
    ("grid", "n_t"): lambda v: v >= 1 or "n_t must be at least 1",
    ("grid", "t_max"): lambda v: v > 0 or "t_max must be positive",
    ("grid", "buffer"): lambda v: 0 <= v < 0.5 or "buffer must lie in [0, 0.5)",
    ("solver", "tol"): lambda v: v > 0 or "tol must be positive",
    ("solver", "n_paths"): lambda v: v >= 1 or "n_paths must be >= 1",
    ("solver", "h"): lambda v: v > 0 or "h must be positive",
    ("solver", "ds"): lambda v: v > 0 or "ds must be positive",
    ("solver", "variant"): lambda v: v in ("tc", "pre", "eq")
        or "variant must be one of tc, pre, eq",
    ("model", "preset"): lambda v: v in _MODEL_PRESETS
        or f"unknown preset (valid: {', '.join(_MODEL_PRESETS)})",
    ("model", "geometry"): lambda v: v in _GEOMETRY_PRESETS
        or f"unknown geometry (valid: {', '.join(_GEOMETRY_PRESETS)})",
    ("model", "regimes"): lambda v: 1 <= v <= 4 or "regimes must lie in 1..4",
    ("run", "workers"): lambda v: v >= 1 or "workers must be >= 1",
    ("output", "formats"): lambda v: (set(v) <= {*_FIELD_FORMATS, "json"}
                                      and not set(v).isdisjoint(_FIELD_FORMATS))
        or "formats must name csv, bin or binary, optionally with json",
}


class RunConfig:
    """Validated configuration; ``cfg['section']['key']`` for access."""

    def __init__(self, sections):
        self.sections = sections

    def __getitem__(self, name):
        return self.sections[name]

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.sections == other.sections

    def get(self, section, key):
        return self.sections[section][key]


def parse_config(text):
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}")
    errors = []
    sections = {}
    for name, keys in SCHEMA.items():
        sections[name] = {k: default for k, (_p, default) in keys.items()}
    for name in parser.sections():
        if name not in SCHEMA:
            hint = difflib.get_close_matches(name, SCHEMA.keys(), n=1)
            suffix = f"; did you mean '[{hint[0]}]'?" if hint else ""
            errors.append(f"[{name}]: unknown section{suffix}")
            continue
        for key, raw in parser.items(name):
            if key not in SCHEMA[name]:
                hint = difflib.get_close_matches(key, SCHEMA[name].keys(), n=1)
                suffix = f"; did you mean '{hint[0]}'?" if hint else ""
                errors.append(f"[{name}] {key}: unknown key{suffix}")
                continue
            parse_fn = SCHEMA[name][key][0]
            try:
                value = parse_fn(raw)
            except ExpressionError as exc:
                errors.append(f"[{name}] {key}: {exc}")
                continue
            except (TypeError, ValueError) as exc:
                errors.append(f"[{name}] {key}: invalid value {raw!r} ({exc})")
                continue
            check = _VALIDATORS.get((name, key))
            if check is not None:
                verdict = check(value)
                if verdict is not True:
                    errors.append(f"[{name}] {key}: {verdict}")
                    continue
            sections[name][key] = value
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(sections)


def _emit_value(value):
    if isinstance(value, CoefficientExpression):
        return value.text
    if isinstance(value, list):
        return ", ".join(_emit_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config):
    """Render a RunConfig back to config text (defaults included)."""
    out = io.StringIO()
    for name, keys in SCHEMA.items():
        out.write(f"[{name}]\n")
        for key in keys:
            value = config.sections[name][key]
            if value is None:
                continue
            out.write(f"{key} = {_emit_value(value)}\n")
        out.write("\n")
    return out.getvalue()
