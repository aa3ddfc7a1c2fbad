"""Exception types shared across the package."""


class DelaymacError(Exception):
    """Base class for all package-specific errors."""


class QuantityError(DelaymacError, ValueError):
    """A suffixed-quantity string does not match the accepted grammar."""


class ConfigError(DelaymacError, ValueError):
    """Configuration file cannot be parsed or contains unknown keys."""


class FieldValidationError(ConfigError):
    """A parameter violates an invariant. The message names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class WeightOverflowError(DelaymacError, OverflowError):
    """A signed weight does not fit in the multiplier: |w| >= 2**n_bits."""


class RegimeError(DelaymacError, ValueError):
    """Inputs fall outside the validity region of a model."""


class CalibrationError(DelaymacError, RuntimeError):
    """No candidate unit scale satisfies every calibration target."""


class InfeasibleRegionError(DelaymacError, ValueError):
    """An operation that needs a non-empty feasible region got an empty one."""

