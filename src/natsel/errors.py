"""Exception types shared across the package."""


class NatselError(Exception):
    """Base class for all package errors."""


class ShapeError(NatselError):
    """Operands have incompatible or invalid shapes."""


class NumericError(NatselError):
    """An operation produced or received non-finite values, or left its domain.

    ``run`` is the index, on a stack's leading run axis, of the first run
    whose values failed; 0 when the operation ran on one run.
    """

    def __init__(self, message: str, run: int = 0):
        super().__init__(message)
        self.run = run


class ConfigError(NatselError):
    """A configuration value violates its contract."""


class FormatError(NatselError):
    """A file does not match its declared binary/text format."""


class AnalysisError(NatselError):
    """An analysis is undefined for the given inputs (e.g. zero variance)."""


class TrainingDiverged(NatselError):
    """Training hit a non-finite value; carries the seed of the run that
    diverged and the location of the failure."""

    def __init__(self, epoch: int, step: int, quantity: str, value: float,
                 seed: int):
        self.epoch = epoch
        self.step = step
        self.quantity = quantity
        self.value = value
        self.seed = seed
        super().__init__(
            f"non-finite {quantity} ({value!r}) in the run of seed {seed} "
            f"at epoch {epoch}, step {step}"
        )
