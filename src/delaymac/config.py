"""JSON configuration loading with explicit defaulting and provenance.

One flat JSON object configures all four parameter records. Keys mirror the
record field names; values are plain numbers or suffixed strings ("2.2f").
Unknown keys are rejected so typos cannot silently fall back to defaults.
Every key the file did not set is reported in the provenance log.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .errors import ConfigError, FieldValidationError, QuantityError
from .params import (
    CellDesign,
    JitterFit,
    MultiplierSpec,
    TechnologyProfile,
    thermal_voltage,
)
from .units import coerce_quantity, format_number

# v_t last: its default is kT/q at the resolved temperature
TECH_KEYS = ("v_dd", "v_thn", "v_thp", "temperature", "i_0", "gamma", "mu_wl_cox", "v_t")
CELL_KEYS = ("c_star", "c_s_eff", "dq_of_md", "dq_of_pd", "c_re", "i_star", "v_a0")
MULT_KEYS = ("n_bits", "sign", "weight_bits", "i_star_fastest")
FIT_KEYS = ("k1", "p1", "k2", "q2", "unit_scale")

KNOWN_KEYS = frozenset(TECH_KEYS + CELL_KEYS + MULT_KEYS + FIT_KEYS)

# built in this order, so a config with several bad keys names the same one first
_RECORDS = (
    ("tech", TechnologyProfile, TECH_KEYS),
    ("cell", CellDesign, CELL_KEYS),
    ("mult", MultiplierSpec, MULT_KEYS),
    ("fit", JitterFit, FIT_KEYS),
)


@dataclass(frozen=True)
class ResolvedConfig:
    """Validated parameter records plus a log of every default applied."""

    tech: TechnologyProfile
    cell: CellDesign
    mult: MultiplierSpec
    fit: JitterFit
    provenance: Tuple[str, ...]
    source: Optional[str] = None

    def to_dict(self) -> dict:
        """All resolved values, keyed like the config file."""
        out = {}
        for name, _, keys in _RECORDS:
            for key in keys:
                value = getattr(getattr(self, name), key)
                out[key] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """Hex digest identifying the resolved configuration."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _convert(key: str, value):
    """A raw config value as its record field takes it."""
    if key in ("n_bits", "sign"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise FieldValidationError(key, f"must be an integer (got {value!r})")
        return value
    if key == "weight_bits":
        if not isinstance(value, (list, tuple)):
            raise FieldValidationError(key, "must be a list of 0/1")
        return tuple(value)
    if key == "unit_scale":
        if value is not None and (not isinstance(value, (list, tuple)) or len(value) != 2):
            raise FieldValidationError(key, "must be null or a [s1, s2] pair")
        return value
    try:
        return coerce_quantity(value)
    except QuantityError as exc:
        raise FieldValidationError(key, str(exc)) from exc


def _show(value) -> str:
    if isinstance(value, float):
        return format_number(value)
    return repr(list(value) if isinstance(value, tuple) else value)


def resolve_config(data: dict, source: Optional[str] = None) -> ResolvedConfig:
    """Validate a raw mapping and fill defaults, recording each one."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    provenance: List[str] = []

    def take(cls, key: str, kwargs: dict):
        if key in data:
            return _convert(key, data[key])
        default, note = cls.__dataclass_fields__[key].default, "default"
        if key == "v_t":
            default = thermal_voltage(kwargs["temperature"])
            note = f"default: kT/q at {_show(kwargs['temperature'])} K"
        elif key == "weight_bits":
            default, note = (1,) * kwargs["n_bits"], "default: all ones"
        elif key == "unit_scale":
            note = "default: packaged calibration"
        provenance.append(f"{key} = {_show(default)} ({note})")
        return default

    records = {}
    for name, cls, keys in _RECORDS:
        kwargs = {}
        for key in keys:
            kwargs[key] = take(cls, key, kwargs)
        if cls is MultiplierSpec:
            kwargs["v_a0"] = records["cell"].v_a0
        records[name] = cls(**kwargs)
    return ResolvedConfig(**records, provenance=tuple(provenance), source=source)


def load_config(path: Union[str, Path]) -> ResolvedConfig:
    """Load and validate a JSON config file.

    Raises ConfigError for malformed JSON or unknown keys and
    FieldValidationError (naming the offending field) for invariant
    violations.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return resolve_config(data, source=str(path))


def default_config() -> ResolvedConfig:
    """The all-defaults configuration."""
    return resolve_config({}, source=None)


def dump_config(config: ResolvedConfig, path: Union[str, Path]) -> None:
    """Serialize every resolved value; reloading reproduces them bit-for-bit."""
    Path(path).write_text(config.to_json() + "\n")
