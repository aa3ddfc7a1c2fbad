"""JSON configuration loading with explicit defaulting and provenance.

One flat JSON object configures all four parameter records. Keys mirror the
record fields except the derived v_t (kT/q at the temperature) and MultiplierSpec.sign,
which comes with each signed weight; values are numbers or suffixed strings ("2.2f").
Unknown keys are rejected so typos cannot silently fall back to defaults.
ResolvedConfig.provenance lists every key the file did not set, in record order.
This module converts file formats and the records check fields: read_json
reads every JSON input file and _convert parses suffixed strings.
parse_targets checks the other JSON input, a calibration target list,
without numpy, so the CLI checks a --targets file before design_space loads.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import ConfigError, FieldValidationError, QuantityError
from .params import MAX_BITS_CAP, CellDesign, JitterFit, MultiplierSpec, TechnologyProfile, is_finite_number
from .units import coerce_quantity

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

@dataclass(frozen=True)
class ResolvedConfig:
    """Validated parameter records plus the keys that took their default."""

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
        import hashlib  # OpenSSL's _hashlib takes ~3 ms to load, and a run that writes no manifest skips it

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


def resolve_config(data: dict) -> ResolvedConfig:
    """Validate a raw mapping and fill defaults, recording each defaulted key.

    Each record is built from the keys the file gave and fills in the rest.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    records = {}
    for name, cls, keys in _RECORDS:
        given = {key: _convert(key, data[key]) for key in keys if key in data}
        if cls is MultiplierSpec:
            given["v_a0"] = records["cell"].v_a0
        records[name] = cls(**given)
    defaulted = tuple(key for _, _, keys in _RECORDS for key in keys if key not in data)
    return ResolvedConfig(**records, provenance=defaulted)


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


#: Headline targets the calibrated design space must reproduce.
DEFAULT_CALIBRATION_TARGETS: Tuple[dict, ...] = (
    {"kind": "max_bits", "epsilon": 1.0, "bits": 5},
    {"kind": "feasible", "n": 4, "epsilon": 1.0},
    {"kind": "infeasible", "n": 6, "epsilon": 1.0},
    {"kind": "optimum", "n": 5, "epsilon": 1.0, "c_star": 2.2e-15, "i_star": 1e-6, "grid_steps": 1},
    {"kind": "bits_reach", "bits": 1, "epsilon": 14.0, "rel_tol": 0.3},
)

#: The fields each calibration target kind reads, with their defaults;
#: None marks a required field.
TARGET_FIELDS: Dict[str, Dict[str, Optional[float]]] = {
    "max_bits": {"bits": None, "epsilon": 1.0},
    "feasible": {"n": None, "epsilon": 1.0},
    "infeasible": {"n": None, "epsilon": 1.0},
    "optimum": {"n": None, "c_star": None, "i_star": None, "epsilon": 1.0, "grid_steps": 1.0},
    "bits_reach": {"bits": None, "epsilon": 1.0, "rel_tol": 0.3},
}

#: Inclusive range of target fields; any other field is a number >= 0. n and
#: bits index the eps_crit profile, so they must also be integers.
_TARGET_RANGES: Dict[str, Tuple[float, float]] = {
    "n": (1, MAX_BITS_CAP),
    "bits": (0, MAX_BITS_CAP - 1),
    "epsilon": (1.0, math.inf),
    "c_star": (sys.float_info.min, math.inf),
    "i_star": (sys.float_info.min, math.inf),
}


def parse_targets(targets: Sequence[dict]) -> List[dict]:
    """The targets, complete: each kind's defaults filled in, n and bits as ints,
    every other field a float. Rejects, before any search starts, an unknown
    kind, a field the kind does not read and a missing or out-of-range field."""
    if not isinstance(targets, (list, tuple)):
        raise FieldValidationError("targets", "must be a list of target objects")
    parsed = []
    for t in targets:
        kind = t.get("kind") if isinstance(t, dict) else None
        if not isinstance(kind, str) or kind not in TARGET_FIELDS:
            raise FieldValidationError("kind", f"unknown calibration target {t!r}")
        for key in t:
            if key != "kind" and key not in TARGET_FIELDS[kind]:
                raise FieldValidationError(key, f"is not a field of a {kind} calibration target {t!r}")
        out = {"kind": kind}
        for key, default in TARGET_FIELDS[kind].items():
            if key not in t and default is None:
                raise FieldValidationError(key, f"missing from calibration target {t!r}")
            value = t.get(key, default)
            lo, hi = _TARGET_RANGES.get(key, (0.0, math.inf))
            integral = key in ("n", "bits")
            if not (is_finite_number(value) and lo <= value <= hi) or (integral and value != int(value)):
                what = "an integer" if integral else "a number"
                raise FieldValidationError(key, f"must be {what} in [{lo:g}, {hi:g}] (calibration target {t!r})")
            out[key] = int(value) if integral else float(value)
        parsed.append(out)
    return parsed
