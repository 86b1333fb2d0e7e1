"""Flat key-value configuration documents with a strict schema.

The format is one ``key = value`` assignment per line, ``#`` comments, and
blank lines.  Keys are exactly the scenario and sweep field names below;
anything else is rejected by name, and so is a key of a section the reader
will not use.  All powers are entered in dBm and converted once, at
this boundary.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .scenario import ScenarioConfig

# sweep axis -> the ScenarioConfig field it sets and that field's type
SWEEP_AXES = {"power_dbm": ("rho_total_dbm", float), "antennas": ("M", int), "users": ("K", int)}


@dataclass
class SweepSpec:
    """One sweep: an axis, its values, and how many UE drops per point."""

    axis: str = "power_dbm"
    values: tuple = ()
    drops: int = 1
    output_path: str = "sweep.csv"

    def validate(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}, got {self.axis!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one value")
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"sweep values must be finite, got {self.values}")
        if SWEEP_AXES[self.axis][1] is int and np.any(vals != np.round(vals)):
            raise ConfigError(f"{self.axis} values must be integers, got {self.values}")
        if np.any(np.diff(vals) <= 0):
            raise ConfigError("sweep values must be strictly increasing")
        if self.drops < 1:
            raise ConfigError(f"drops must be >= 1, got {self.drops}")


# the dataclasses a config document sets, one section of keys each
SECTIONS = (ScenarioConfig, SweepSpec)

# every config key: the dataclass it belongs to and the type it parses to
_KEYS = {f.name: (cls, f.type) for cls in SECTIONS for f in fields(cls)}


def _parse_scalar(key: str, kind: type, raw: str):
    raw = raw.strip()
    if key == "values":
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"key 'values': expected comma-separated numbers, got {raw!r}") from exc
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}") from exc


def parse_config(text: str, reads=SECTIONS):
    """Parse a config document into (ScenarioConfig, SweepSpec | None).

    Unspecified scenario fields take the standard defaults, and the
    scenario validates on construction.  A SweepSpec is returned only when
    the document sets at least one sweep key.  A key whose section is not in
    ``reads`` would be ignored, so it is a ConfigError that names it.
    """
    kwargs = {cls: {} for cls, _ in _KEYS.values()}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cls, kind = _KEYS[key]
        kwargs[cls][key] = _parse_scalar(key, kind, raw)

    unread = [key for cls, keys in kwargs.items() if cls not in reads for key in keys]
    if unread:
        raise ConfigError(f"keys this command does not read: {', '.join(unread)}")

    config = ScenarioConfig(**kwargs[ScenarioConfig])  # validates in __post_init__
    sweep = None
    if kwargs[SweepSpec]:
        sweep = SweepSpec(**kwargs[SweepSpec])
        sweep.validate()
    return config, sweep


def load_config(path, reads=SECTIONS) -> tuple:
    """Read and parse a config file into (ScenarioConfig, SweepSpec | None),
    refusing keys of a section not in ``reads``; a path that is not a
    readable UTF-8 file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text, reads)
