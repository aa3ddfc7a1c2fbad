"""Behavioral models, jitter Monte-Carlo and design-space sweeps for
delay-domain mixed-signal multiply-accumulate cells."""

__version__ = "0.1.0"

from .config import ResolvedConfig, default_config, load_config
from .params import (
    DEFAULT_UNIT_SCALE,
    INPUT_FLOOR_V,
    CellDesign,
    JitterFit,
    MultiplierSpec,
    TechnologyProfile,
    thermal_voltage,
)
from .units import parse_quantity

__all__ = [
    "__version__",
    "CellDesign",
    "DEFAULT_UNIT_SCALE",
    "INPUT_FLOOR_V",
    "JitterFit",
    "MultiplierSpec",
    "ResolvedConfig",
    "TechnologyProfile",
    "default_config",
    "load_config",
    "parse_quantity",
    "thermal_voltage",
]
