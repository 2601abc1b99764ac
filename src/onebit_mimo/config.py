"""Experiment configuration: file format, schema validation, profiles.

The on-disk format is line-oriented `key = value` with dotted keys for
nesting, `#` comments, and bracketed lists. Values are integers, reals,
booleans, bare strings, or flat lists of those. Every schema violation is
reported with the source line it came from; entries supplied by profile
defaults or command-line overrides carry line 0.
"""

import re
from dataclasses import dataclass, fields

import numpy as np

from .channel import jakes_coefficient

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")
_SAMPLED_RE = re.compile(r"^sampled\((\d+)\)$")

ESTIMATOR_NAMES = ("ls", "blmmse", "kfb", "tpe")
MODES = ("nmse", "rate", "theory")

# Dotted config keys in canonical emission order, mapped to dataclass fields.
_KEY_TO_FIELD = {
    "mode": "mode",
    "M": "M",
    "K": "K",
    "tau": "tau",
    "snr_db": "snr_db",
    "r_spatial": "r_spatial",
    "user_speeds_kmh": "user_speeds_kmh",
    "f_c": "f_c",
    "t_slot": "t_slot",
    "slots": "slots",
    "trials": "trials",
    "estimators": "estimators",
    "tpe.order": "tpe_order",
    "tpe.alpha": "tpe_alpha",
    "correlation_knowledge": "correlation_knowledge",
    "seed": "seed",
}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


class ConfigError(ValueError):
    """Validation failure with one (line, key, message) triple per issue."""

    def __init__(self, issues):
        self.issues = list(issues)
        text = "; ".join(f"line {ln}: {key}: {msg}" for ln, key, msg in self.issues)
        super().__init__(text or "invalid configuration")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    M: int
    K: int
    tau: int
    snr_db: tuple
    r_spatial: float
    user_speeds_kmh: tuple
    f_c: float
    t_slot: float
    slots: int
    trials: int
    estimators: tuple
    tpe_order: int
    tpe_alpha: float
    correlation_knowledge: str
    seed: int

    @property
    def sample_count(self):
        """Number of correlation-learning samples, or None with true knowledge."""
        match = _SAMPLED_RE.match(self.correlation_knowledge)
        return int(match.group(1)) if match else None

    def speeds(self):
        """Per-user speeds, broadcast to length K."""
        if len(self.user_speeds_kmh) == self.K:
            return self.user_speeds_kmh
        return self.user_speeds_kmh * self.K


def default_config(mode="nmse", profile="fast"):
    """Built-in defaults: a quick desk-scale profile and a full-size one."""
    if profile not in ("fast", "paper"):
        raise ValueError(f"unknown profile {profile!r}")
    large = profile == "paper"
    return ExperimentConfig(
        mode=mode,
        M=128 if large else 32,
        K=8,
        tau=8,
        snr_db=(-5.0,),
        r_spatial=0.8,
        user_speeds_kmh=(3.0,),
        f_c=2.5e9,
        t_slot=0.005,
        slots=10,
        trials=1000 if large else 500,
        estimators=("blmmse", "kfb"),
        tpe_order=1,
        tpe_alpha=0.5,
        correlation_knowledge="true",
        seed=0,
    )


def _parse_scalar(token):
    token = token.strip()
    if token == "":
        return None, "empty value"
    if token == "true":
        return True, None
    if token == "false":
        return False, None
    try:
        return int(token), None
    except ValueError:
        pass
    try:
        return float(token), None
    except ValueError:
        pass
    if "," in token or "[" in token or "]" in token or "=" in token:
        return None, f"malformed value {token!r}"
    return token, None


def _parse_value(text):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            return None, "unterminated list"
        inner = text[1:-1].strip()
        if inner == "":
            return [], None
        items = []
        for part in inner.split(","):
            value, err = _parse_scalar(part)
            if err:
                return None, err
            items.append(value)
        return items, None
    return _parse_scalar(text)


def _parse_text(text, issues):
    """Raw (value, line) entries keyed by dotted key, syntax errors collected."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            issues.append((lineno, "<syntax>", "expected 'key = value'"))
            continue
        key, _, value_text = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            issues.append((lineno, key or "<syntax>", "malformed key"))
            continue
        value, err = _parse_value(value_text)
        if err:
            issues.append((lineno, key, err))
            continue
        if key in entries:
            issues.append((lineno, key, f"duplicate key, first set on line {entries[key][1]}"))
            continue
        entries[key] = (value, lineno)
    return entries


def _want_int(value, minimum, maximum=None):
    if type(value) is not int:
        return None, "expected an integer"
    if value < minimum:
        return None, f"must be at least {minimum}"
    if maximum is not None and value > maximum:
        return None, f"must be at most {maximum}"
    return value, None


def _want_float(value, low=None, high=None, low_open=False, high_open=False):
    if type(value) is bool or not isinstance(value, (int, float)):
        return None, "expected a number"
    value = float(value)
    if not np.isfinite(value):
        return None, "must be finite"
    if low is not None and (value <= low if low_open else value < low):
        return None, f"must be {'greater than' if low_open else 'at least'} {low}"
    if high is not None and (value >= high if high_open else value > high):
        return None, f"must be {'less than' if high_open else 'at most'} {high}"
    return value, None


def _want_float_list(value, low=None, low_open=False):
    items = value if isinstance(value, list) else [value]
    if not items:
        return None, "list must not be empty"
    out = []
    for item in items:
        checked, err = _want_float(item, low=low, low_open=low_open)
        if err:
            return None, err
        out.append(checked)
    return tuple(out), None


def _want_mode(value):
    if value in MODES:
        return value, None
    return None, f"expected one of {', '.join(MODES)}"


def _want_estimators(value):
    items = value if isinstance(value, list) else [value]
    if not items:
        return None, "need at least one estimator"
    out = []
    for item in items:
        if not isinstance(item, str) or item.lower() not in ESTIMATOR_NAMES:
            return None, f"unknown estimator {item!r}, expected one of {', '.join(ESTIMATOR_NAMES)}"
        name = item.lower()
        if name in out:
            return None, f"estimator {name} listed twice"
        out.append(name)
    return tuple(out), None


def _want_correlation(value):
    if value is True:
        return "true", None
    if isinstance(value, str):
        if value == "true":
            return "true", None
        match = _SAMPLED_RE.match(value)
        if match:
            if int(match.group(1)) < 1:
                return None, "sample count must be at least 1"
            return value, None
    return None, "expected true or sampled(N)"


_CHECKERS = {
    "mode": _want_mode,
    "M": lambda v: _want_int(v, 1),
    "K": lambda v: _want_int(v, 1),
    "tau": lambda v: _want_int(v, 1),
    "snr_db": _want_float_list,
    "r_spatial": lambda v: _want_float(v, low=0.0, high=1.0, high_open=True),
    "user_speeds_kmh": lambda v: _want_float_list(v, low=0.0),
    "f_c": lambda v: _want_float(v, low=0.0, low_open=True),
    "t_slot": lambda v: _want_float(v, low=0.0, low_open=True),
    "slots": lambda v: _want_int(v, 1),
    "trials": lambda v: _want_int(v, 1),
    "estimators": _want_estimators,
    "tpe.order": lambda v: _want_int(v, 0),
    "tpe.alpha": lambda v: _want_float(v, low=0.0, high=2.0, low_open=True, high_open=True),
    "correlation_knowledge": _want_correlation,
    "seed": lambda v: _want_int(v, 0, 2**64 - 1),
}


def _config_entries(cfg):
    out = {}
    for field in fields(ExperimentConfig):
        value = getattr(cfg, field.name)
        if isinstance(value, tuple):
            value = list(value)
        out[_FIELD_TO_KEY[field.name]] = (value, 0)
    return out


def parse_config(text, base=None, overrides=None):
    """Parse and validate a config file on top of optional defaults.

    base supplies missing keys; overrides (dotted key to raw value) win over
    the file, as command-line flags should. Raises ConfigError carrying all
    issues rather than just the first.
    """
    issues = []
    entries = _config_entries(base) if base is not None else {}
    entries.update(_parse_text(text, issues))
    for key, value in (overrides or {}).items():
        entries[key] = (value, 0)

    canonical = {}
    for key, (value, line) in entries.items():
        if key not in _CHECKERS:
            issues.append((line, key, "unknown key"))
            continue
        checked, err = _CHECKERS[key](value)
        if err:
            issues.append((line, key, err))
        else:
            canonical[_KEY_TO_FIELD[key]] = checked

    for key in _CHECKERS:
        if key not in entries:
            issues.append((0, key, "missing required key"))

    def line_of(key):
        return entries[key][1] if key in entries else 0

    if "tau" in canonical and "K" in canonical and canonical["tau"] < canonical["K"]:
        issues.append((line_of("tau"), "tau", "pilot length must be at least K"))
    if "user_speeds_kmh" in canonical and "K" in canonical:
        n = len(canonical["user_speeds_kmh"])
        if n not in (1, canonical["K"]):
            issues.append(
                (line_of("user_speeds_kmh"), "user_speeds_kmh", f"need 1 or K={canonical['K']} speeds")
            )
        if canonical.get("mode") == "theory" and len(set(canonical["user_speeds_kmh"])) > 1:
            issues.append(
                (line_of("user_speeds_kmh"), "user_speeds_kmh", "theory mode needs a common speed")
            )
    if "user_speeds_kmh" in canonical and "f_c" in canonical and "t_slot" in canonical:
        # The Gauss-Markov model needs eta in [0, 1]; J0 is at most 1 but
        # turns negative past its first zero.
        for speed in dict.fromkeys(canonical["user_speeds_kmh"]):
            eta = jakes_coefficient(speed, canonical["f_c"], canonical["t_slot"])
            if eta < 0.0:
                issues.append(
                    (
                        line_of("user_speeds_kmh"),
                        "user_speeds_kmh",
                        f"speed {speed:g} km/h gives temporal coefficient {eta:.3g} at "
                        f"f_c = {canonical['f_c']:g} Hz, t_slot = {canonical['t_slot']:g} s; "
                        "the channel model needs it in [0, 1]",
                    )
                )

    if issues:
        raise ConfigError(sorted(issues))
    return ExperimentConfig(**canonical)


def load_config(path, base=None, overrides=None):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), base=base, overrides=overrides)


def _emit_scalar(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg):
    """Canonical text form; parse_config(emit_config(cfg)) reproduces cfg."""
    lines = []
    for key in _KEY_TO_FIELD:
        value = getattr(cfg, _KEY_TO_FIELD[key])
        if isinstance(value, tuple):
            rendered = "[" + ", ".join(_emit_scalar(v) for v in value) + "]"
        else:
            rendered = _emit_scalar(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
