"""Exception taxonomy. Every error carries the CLI exit code for its category."""


class CcoeError(Exception):
    """Base class; exit_code 2 covers data/config problems."""

    exit_code = 2


class DimensionError(CcoeError):
    """Tensor shapes incompatible with the requested operation."""


class ConfigError(CcoeError):
    """Invalid model or run configuration."""


class RoutingConfigError(ConfigError):
    """Expert insertion positions incompatible with the backbone."""


class SequenceLengthError(CcoeError):
    """Token sequence exceeds the model's maximum context."""


class TokenIdError(CcoeError):
    """Token or target id outside the model's vocabulary ``[0, vocab_size)``."""


class NumericError(CcoeError):
    """Non-finite values produced where finite math was required."""

    exit_code = 3


class DivergenceError(NumericError):
    """Training went non-finite: a non-finite loss, or a ``NumericError`` from
    a step's forward or backward re-raised with it as the cause. Carries the
    last good parameter snapshot."""

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class GatingError(CcoeError):
    """Query references a domain absent from the mapping matrix."""


class RoutingError(CcoeError):
    """Planner-side routing failure (empty pool, empty subtask)."""


class BudgetError(CcoeError):
    """Expert exceeds its share of the backbone parameter budget."""


class UnknownExpertError(CcoeError):
    """Registry lookup for an expert id that is not registered."""


class DatasetError(CcoeError):
    """Training data references unknown experts or is malformed."""


class DegenerateBatchError(CcoeError):
    """Loss requested over a batch whose mask selects no positions."""


class WorkloadError(CcoeError):
    """Benchmark workload the system cannot serve: a domain it has no model
    for, or a repetition count below one."""


class CorruptionError(CcoeError):
    """Checkpoint failed magic, structure, or digest verification."""

    exit_code = 4


class VersionError(CcoeError):
    """Checkpoint format version not supported by this build."""

    exit_code = 4
