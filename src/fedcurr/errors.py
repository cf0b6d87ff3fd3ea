"""Shared exception types."""


class ConfigurationError(ValueError):
    """Raised when inputs are invalid: a value out of range, an infeasible
    setting, mismatched dimensions or a missing required piece.

    ``field`` names the dataclass field or argument at fault, when there is
    one, so that the config parser can report the key it was read from.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
