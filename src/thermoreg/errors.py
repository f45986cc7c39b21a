"""Exception types shared across the toolkit."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the last residual so callers can decide on continuation
    strategies (e.g. Reynolds-number continuation for the flow solve).
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
