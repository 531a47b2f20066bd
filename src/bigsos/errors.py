"""Exception types shared across the workbench."""


class BigsosError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(BigsosError):
    """Syntax error with an optional 1-based source position."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message, line, col)

    def __str__(self):
        if self.line is None:
            return self.message
        return f"{self.message} (line {self.line}, column {self.col})"


class NestingError(BigsosError):
    """Input nested past the recursion limit of the parser reading it."""


class UnboundVariableError(BigsosError):
    """A substitution or evaluation met a variable it has no binding for."""


class UnknownOperatorError(ParseError):
    pass


class ArityError(ParseError):
    pass


class CarrierMismatchError(BigsosError):
    """Behaviour values of incompatible shapes were combined."""


class InconsistentStreamError(BigsosError):
    """Join of two distinct non-bottom stream steps; streams have no such lub."""


class StateMapError(BigsosError):
    """map_states got a mapping that is undefined on an occurring state."""


class LabelEvalError(BigsosError):
    """A conclusion label expression evaluated outside the label domain."""


class NonMonotoneError(BigsosError):
    """Least-model construction refused: the spec has negative premises."""

    def __init__(self, offending_rules):
        self.offending_rules = tuple(offending_rules)
        names = ", ".join(self.offending_rules)
        super().__init__(f"spec is not monotone; offending rules: {names}")


class NonConvergenceError(BigsosError):
    """Fixed-point iteration hit its step budget without stabilizing."""


class UnknownStateError(BigsosError):
    """A term outside the model's universe and frontier was dereferenced."""
