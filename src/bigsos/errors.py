"""Exception types shared across the workbench.  Each names in exit_code the
status the command line exits with; 5, an internal error, unless it names
another."""


class BigsosError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 5


class ParseError(BigsosError):
    """Syntax error with an optional 1-based source position."""

    exit_code = 1

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message, line, col)

    def __str__(self):
        if self.line is None:
            return self.message
        return f"{self.message} (line {self.line}, column {self.col})"


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

    exit_code = 2


class StateMapError(BigsosError):
    """map_states got a mapping that is undefined on an occurring state."""


class LabelEvalError(BigsosError):
    """A conclusion label expression evaluated outside the label domain."""

    exit_code = 2


class InvalidSpecError(BigsosError):
    """Rules of a spec with validate_spec diagnostics were to be run."""

    exit_code = 2

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(map(str, self.diagnostics)))


class NonMonotoneError(BigsosError):
    """Least-model construction refused: the spec has negative premises."""

    exit_code = 3

    def __init__(self, offending_rules):
        self.offending_rules = tuple(offending_rules)
        names = ", ".join(self.offending_rules)
        super().__init__(f"spec is not monotone; offending rules: {names}")


class NonConvergenceError(BigsosError):
    """Fixed-point iteration hit its step budget without stabilizing."""

    exit_code = 4


class UnknownStateError(BigsosError):
    """A term outside the model's universe and frontier was dereferenced."""

    exit_code = 2
