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

TECH_KEYS = ("v_dd", "v_thn", "v_thp", "temperature", "v_t", "i_0", "gamma", "mu_wl_cox")
CELL_KEYS = ("c_star", "c_s_eff", "dq_of_md", "dq_of_pd", "c_re", "i_star", "v_a0")
MULT_KEYS = ("n_bits", "sign", "weight_bits", "i_star_fastest")
FIT_KEYS = ("k1", "p1", "k2", "q2", "unit_scale")

KNOWN_KEYS = frozenset(TECH_KEYS + CELL_KEYS + MULT_KEYS + FIT_KEYS)


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
        for key in TECH_KEYS:
            out[key] = getattr(self.tech, key)
        for key in CELL_KEYS:
            out[key] = getattr(self.cell, key)
        out["n_bits"] = self.mult.n_bits
        out["sign"] = self.mult.sign
        out["weight_bits"] = list(self.mult.weight_bits)
        out["i_star_fastest"] = self.mult.i_star_fastest
        for key in ("k1", "p1", "k2", "q2"):
            out[key] = getattr(self.fit, key)
        out["unit_scale"] = list(self.fit.unit_scale) if self.fit.unit_scale else None
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """Hex digest identifying the resolved configuration."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _quantity(raw: dict, key: str):
    try:
        return coerce_quantity(raw[key])
    except QuantityError as exc:
        raise FieldValidationError(key, str(exc)) from exc


def resolve_config(data: dict, source: Optional[str] = None) -> ResolvedConfig:
    """Validate a raw mapping and fill defaults, recording each one."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    provenance: List[str] = []
    values = dict(data)

    def take(key: str, default, conv):
        if key in values:
            return conv(values, key)
        provenance.append(f"{key} = {_show(default)} (default)")
        return default

    def _show(v) -> str:
        if isinstance(v, float):
            return format_number(v)
        return repr(v)

    tech_kwargs = {}
    for key in ("v_dd", "v_thn", "v_thp", "temperature", "i_0", "gamma", "mu_wl_cox"):
        tech_kwargs[key] = take(key, TechnologyProfile.__dataclass_fields__[key].default, _quantity)
    if "v_t" in values:
        tech_kwargs["v_t"] = _quantity(values, "v_t")
    else:
        provenance.append(
            f"v_t = {format_number(thermal_voltage(tech_kwargs['temperature']))}"
            f" (default: kT/q at {_show(tech_kwargs['temperature'])} K)"
        )
    tech = TechnologyProfile(**tech_kwargs)

    cell_kwargs = {}
    for key in CELL_KEYS:
        cell_kwargs[key] = take(key, CellDesign.__dataclass_fields__[key].default, _quantity)
    cell = CellDesign(**cell_kwargs)

    def _int(raw, key):
        v = raw[key]
        if isinstance(v, bool) or not isinstance(v, int):
            raise FieldValidationError(key, f"must be an integer (got {v!r})")
        return v

    def _bits(raw, key):
        v = raw[key]
        if not isinstance(v, (list, tuple)):
            raise FieldValidationError(key, "must be a list of 0/1")
        return tuple(v)

    n_bits = take("n_bits", MultiplierSpec.__dataclass_fields__["n_bits"].default, _int)
    sign = take("sign", MultiplierSpec.__dataclass_fields__["sign"].default, _int)
    if "weight_bits" in values:
        weight_bits = _bits(values, "weight_bits")
    else:
        weight_bits = tuple([1] * n_bits)
        provenance.append(f"weight_bits = {list(weight_bits)!r} (default: all ones)")
    i_star_fastest = take(
        "i_star_fastest", MultiplierSpec.__dataclass_fields__["i_star_fastest"].default, _quantity
    )
    mult = MultiplierSpec(
        n_bits=n_bits,
        sign=sign,
        weight_bits=weight_bits,
        i_star_fastest=i_star_fastest,
        v_a0=cell.v_a0,
    )

    fit_kwargs = {}
    for key in ("k1", "p1", "k2", "q2"):
        fit_kwargs[key] = take(key, JitterFit.__dataclass_fields__[key].default, _quantity)
    if "unit_scale" in values:
        scale = values["unit_scale"]
        if scale is not None:
            if not isinstance(scale, (list, tuple)) or len(scale) != 2:
                raise FieldValidationError("unit_scale", "must be null or a [s1, s2] pair")
        fit_kwargs["unit_scale"] = scale
    else:
        default_scale = JitterFit.__dataclass_fields__["unit_scale"].default
        fit_kwargs["unit_scale"] = default_scale
        provenance.append(f"unit_scale = {list(default_scale)!r} (default: packaged calibration)")
    fit = JitterFit(**fit_kwargs)

    return ResolvedConfig(
        tech=tech, cell=cell, mult=mult, fit=fit, provenance=tuple(provenance), source=source
    )


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
