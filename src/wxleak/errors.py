"""Exception types shared across the package.

Validation failures (bad invariants, bad config) are distinct from runtime
failures (numerical blow-up, failed minimization) so callers, including the
CLI exit-code mapping, can tell them apart.
"""


class ValidationError(ValueError):
    """An input violates a documented invariant. ``field``, when given, names
    the attribute whose value broke it; a check across attributes names none."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ConfigError(ValidationError):
    """A scenario config failed to parse or validate.

    Carries the offending field (dotted path) and, for parse errors, the
    source line when the parser reports one.
    """

    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.line = line
        parts = [message]
        if field is not None:
            parts.append(f"(field: {field})")
        if line is not None:
            parts.append(f"(line: {line})")
        super().__init__(" ".join(parts), field)


class MaskCoverageError(ValidationError):
    """An emission mask does not cover a frequency span it is asked about."""

    def __init__(self, f_low_hz: float, f_high_hz: float):
        self.uncovered_span_hz = (f_low_hz, f_high_hz)
        super().__init__(
            f"emission mask undefined over {f_low_hz:.6g} Hz to {f_high_hz:.6g} Hz"
        )


class ModelBlowUpError(RuntimeError):
    """Integration produced a non-finite state (time step too large)."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(
            f"non-finite model state after step {step_index}; "
            "reduce dt or check parameters"
        )


class MinimizationError(RuntimeError):
    """The cost function became non-finite during minimization.

    ``last_control`` holds the flat control [state, bias] of the last
    iterate with a finite cost, or the background when the cost is already
    non-finite there.
    """

    def __init__(self, message: str, last_control=None):
        self.last_control = last_control
        super().__init__(message)
