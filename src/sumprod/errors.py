"""Exception types shared across the package."""


class SumprodError(Exception):
    """Base class for all package-specific errors."""


class DegreeCapExceeded(SumprodError):
    """Raised when a factorization request exceeds the configured degree cap.

    The one exponential step of factorization is the univariate Kronecker
    search (on contents and on the Gao eliminant); the cap, and that search's
    budget, turn a silent slowdown there into an explicit failure.
    """


class FactorBudgetExceeded(SumprodError):
    """An integer resisted factorization within the iteration budget.

    Brent's rho gets a fixed number of steps per composite cofactor; an
    integer with no small enough factor (a large semiprime) exhausts it.
    """


class NotSquarefree(SumprodError):
    """Input to the absolute-factor counter has a repeated factor."""


class UnivariateInput(SumprodError):
    """Operation needs genuine dependence on both variables."""


class ConstantPolynomial(SumprodError):
    """Operation is undefined for constant polynomials."""


class HypothesisViolated(SumprodError):
    """Input data does not satisfy the hypotheses the operation relies on."""


class DegenerateSpec(SumprodError):
    """A set-generator spec cannot produce the requested set."""


class DegenerateSystem(SumprodError):
    """A curve-pair system collapsed to the zero polynomial."""


class CertificationFailed(SumprodError):
    """An exact certificate did not check.

    Certificates are rechecked by exact arithmetic before a result is
    returned, so this indicates a bug in this implementation, not a property
    of the input.
    """


class BoundViolated(SumprodError):
    """A certified bound failed; carries the offending witness.

    For inputs whose classification is certified, this indicates a bug in
    this implementation rather than a counterexample.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
