"""JSON configuration loading with explicit defaulting and provenance.

One flat JSON object configures all four parameter records. Keys mirror the
record fields except the derived v_t (kT/q at the temperature) and MultiplierSpec.sign,
which comes with each signed weight; values are numbers or suffixed strings ("2.2f").
Unknown keys are rejected so typos cannot silently fall back to defaults.
Every key the file did not set is reported in the provenance log.
This module converts file formats and the records check fields: read_json
reads every JSON input file and _convert parses suffixed strings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Tuple, Union

from .errors import ConfigError, FieldValidationError, QuantityError
from .params import CellDesign, JitterFit, MultiplierSpec, TechnologyProfile
from .units import coerce_quantity, format_number

TECH_KEYS = ("v_dd", "v_thn", "v_thp", "temperature", "i_0", "gamma")
CELL_KEYS = ("c_star", "c_s_eff", "dq_of_md", "c_re", "i_star", "v_a0")
MULT_KEYS = ("n_bits", "weight_bits", "i_star_fastest")
FIT_KEYS = ("k1", "p1", "k2", "q2", "unit_scale")

KNOWN_KEYS = frozenset(TECH_KEYS + CELL_KEYS + MULT_KEYS + FIT_KEYS)

# built in this order, so a config with several bad keys names the same one first
_RECORDS = (
    ("tech", TechnologyProfile, TECH_KEYS),
    ("cell", CellDesign, CELL_KEYS),
    ("mult", MultiplierSpec, MULT_KEYS),
    ("fit", JitterFit, FIT_KEYS),
)

_DEFAULT_NOTES = {"weight_bits": "default: all ones", "unit_scale": "default: packaged calibration"}


@dataclass(frozen=True)
class ResolvedConfig:
    """Validated parameter records plus a log of every default applied."""

    tech: TechnologyProfile
    cell: CellDesign
    mult: MultiplierSpec
    fit: JitterFit
    provenance: Tuple[str, ...]

    def to_dict(self) -> dict:
        """All resolved values, keyed like the config file."""
        out = {}
        for name, _, keys in _RECORDS:
            for key in keys:
                value = getattr(getattr(self, name), key)
                out[key] = list(value) if isinstance(value, tuple) else value
        return out

    def digest(self) -> str:
        """Hex digest identifying the resolved configuration."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _convert(key: str, value):
    """A suffixed string as its SI float; any other JSON value as it is."""
    if not isinstance(value, str):
        return value
    try:
        return coerce_quantity(value)
    except QuantityError as exc:
        raise FieldValidationError(key, str(exc)) from exc


def _show(value) -> str:
    if isinstance(value, float):
        return format_number(value)
    return repr(list(value) if isinstance(value, tuple) else value)


def resolve_config(data: dict) -> ResolvedConfig:
    """Validate a raw mapping and fill defaults, recording each one.

    Each record is built from the keys the file gave, and every default is
    read back off the built record, so the log shows what the records hold.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    provenance: List[str] = []
    records = {}
    for name, cls, keys in _RECORDS:
        given = {key: _convert(key, data[key]) for key in keys if key in data}
        if cls is MultiplierSpec:
            given["v_a0"] = records["cell"].v_a0
        records[name] = record = cls(**given)
        for key in (k for k in keys if k not in given):
            provenance.append(f"{key} = {_show(getattr(record, key))} ({_DEFAULT_NOTES.get(key, 'default')})")
    return ResolvedConfig(**records, provenance=tuple(provenance))


def read_json(path: Union[str, Path], parse: Callable[[Any], Any] = lambda data: data):
    """parse(the JSON value in the file at path). Any OSError or ValueError,
    from parse too, or too deep a nesting becomes one ConfigError naming the file."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, RecursionError, ValueError) as exc:
        raise ConfigError(f"malformed or unreadable file {path}: {exc}") from exc


def load_config(path: Union[str, Path]) -> ResolvedConfig:
    """Load and validate a JSON config file.

    Raises ConfigError for an unreadable or malformed file or unknown keys
    and FieldValidationError (naming the offending field) for invariant
    violations.
    """
    return resolve_config(read_json(path))


def default_config() -> ResolvedConfig:
    """The all-defaults configuration."""
    return resolve_config({})
