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

from . import models
from .errors import ConfigError, ExpressionError
from .expressions import CoefficientExpression

# formats that write the value field; "json" is accepted too, as the JSON
# artifacts are always written
_FIELD_FORMATS = ("csv", "bin", "binary")


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


def _list_of(parse):
    return lambda text: [parse(p) for p in _split_top_level(text)]


# section -> key -> (parser, default, check).  The parser reads the
# value text (configparser strips it); a None default means "required
# only when the consuming subcommand needs it" (checked there); a check
# returns True or the violation's message.  The preset names are the
# live keys of the tables in ``models``.
SCHEMA = {
    "model": {
        "preset": (str, "merton-ti", lambda v: v in models.MODEL_PRESETS or
                   f"unknown preset (valid: {', '.join(models.MODEL_PRESETS)})"),
        "regimes": (int, 2, lambda v: 1 <= v <= 4 or "regimes must lie in 1..4"),
        "beta0": (float, 1.0, None),
        "geometry": (str, None, lambda v: v in models.GEOMETRY_PRESETS or
                     f"unknown geometry (valid: {', '.join(models.GEOMETRY_PRESETS)})"),
        "beta_1": (_list_of(CoefficientExpression), None, None),
        "beta_2": (_list_of(CoefficientExpression), None, None),
        "beta_3": (_list_of(CoefficientExpression), None, None),
        "beta_4": (_list_of(CoefficientExpression), None, None),
        "density": (CoefficientExpression, None, None),
        "drift": (CoefficientExpression, None, None),
        "sigma": (CoefficientExpression, None, None),
        "x0": (float, 0.0, None),
        "i0": (int, 1, None),
    },
    "grid": {
        "x_min": (float, None, None),
        "x_max": (float, None, None),
        "n_x": (int, 81, lambda v: v >= 4 or "n_x must be at least 4: the "
                "one-sided second-derivative stencil at an edge reads four nodes"),
        "n_t": (int, 160, lambda v: v >= 1 or "n_t must be at least 1"),
        "t_max": (float, 1.0, lambda v: v > 0 or "t_max must be positive"),
        "buffer": (float, 0.15,
                   lambda v: 0 <= v < 0.5 or "buffer must lie in [0, 0.5)"),
    },
    "solver": {
        "tol": (float, 1e-9, lambda v: v > 0 or "tol must be positive"),
        "partitions": (_list_of(int), [1, 2, 4], None),
        "knots": (_list_of(float), None, None),
        "epsilons": (_list_of(float), [0.1, 0.05, 0.025], None),
        "spike_anchor": (float, 0.25, None),
        "anchor": (float, 0.0, None),
        "n_paths": (int, 100000, lambda v: v >= 1 or "n_paths must be >= 1"),
        "h": (float, 0.01, lambda v: v > 0 or "h must be positive"),
        "ds": (float, 1e-3, lambda v: v > 0 or "ds must be positive"),
        "rate_states": (_list_of(float), [-1.0, 0.0, 1.0], None),
        "variant": (str, "eq", lambda v: v in ("tc", "pre", "eq")
                    or "variant must be one of tc, pre, eq"),
    },
    "output": {
        "directory": (str, "out", None),
        "formats": (_list_of(str), ["csv", "json"],
                    lambda v: (set(v) <= {*_FIELD_FORMATS, "json"}
                               and not set(v).isdisjoint(_FIELD_FORMATS))
                    or "formats must name csv, bin or binary, optionally with json"),
    },
    "run": {
        "seed": (int, 12345, None),
        # accepted and checked; runs are serial
        "workers": (int, 1, lambda v: v >= 1 or "workers must be >= 1"),
    },
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
        sections[name] = {k: default for k, (_p, default, _c) in keys.items()}
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
            parse, _default, check = SCHEMA[name][key]
            try:
                value = parse(raw)
            except ExpressionError as exc:
                errors.append(f"[{name}] {key}: {exc}")
                continue
            except (TypeError, ValueError) as exc:
                errors.append(f"[{name}] {key}: invalid value {raw!r} ({exc})")
                continue
            verdict = True if check is None else check(value)
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
