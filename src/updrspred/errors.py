"""Exception types shared across the pipeline.

Split along the lines callers care about: bad shapes, bad parameters or
configuration, bad input files, and numeric trouble at runtime. The CLI
maps ``UsageFault`` subclasses to exit code 2 and ``RuntimeFault``
subclasses to exit code 1.
"""


class UsageFault(Exception):
    """Caller-side problem: bad arguments, config, or input files."""


class RuntimeFault(Exception):
    """Computation-side problem discovered while running."""


class ShapeError(UsageFault):
    """Operands have incompatible dimensions."""


class ParameterError(UsageFault):
    """An argument is outside its legal range."""


class ConfigError(UsageFault):
    """A run configuration names unknown keys or inconsistent values."""


class SchemaError(UsageFault):
    """An input file is missing or misnames a required column."""


class ParseError(UsageFault):
    """An input file cell could not be interpreted."""


class EmptyInputError(UsageFault):
    """An operation received no rows to work on."""


class DegenerateColumnError(UsageFault):
    """A column is constant where variation is required."""


class DegenerateTargetError(UsageFault):
    """The target vector is constant, so the metric is undefined."""


class RankError(RuntimeFault):
    """A design matrix is numerically rank deficient."""


class NumericError(RuntimeFault):
    """A non-finite value appeared where finite numbers are required."""


class StateError(RuntimeFault):
    """An operation was called with stale or missing cached state."""
