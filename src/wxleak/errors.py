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


class ModelBlowUpError(RuntimeError):
    """Integration produced a non-finite state. The message names the step
    alone: a time step too large is one cause, a state driven out of range
    (a forecast from a far-off analysis, say) another, so advice is left to
    the caller that knows which to suspect."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"non-finite model state after step {step_index}")


class MinimizationError(RuntimeError):
    """The cost, or the gradient norm at the background, became non-finite.

    ``last_control`` holds the flat control [state, bias] of the last
    iterate with a finite cost, or the background when either is already
    non-finite there.
    """

    def __init__(self, message: str, last_control=None):
        self.last_control = last_control
        super().__init__(message)
