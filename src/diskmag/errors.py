"""Exception types shared across the solver modules."""


class SolverError(Exception):
    """Base class for all diskmag computation failures."""


class InvalidParams(SolverError):
    """Arguments outside an operation's domain of validity."""


class NonConvergence(SolverError):
    """Series summation exceeded its term budget, or an eigensolve failed."""


class BracketFailure(SolverError):
    """No sign change found on the search interval."""


class NewtonDivergence(SolverError):
    """Damped Newton iteration exhausted its iteration cap."""


class IllConditioned(SolverError):
    """Linear solve residual exceeded the acceptance threshold."""


class InsufficientData(SolverError):
    """A sequence transform was given too few usable entries."""

