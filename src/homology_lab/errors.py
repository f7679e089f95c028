"""Exception hierarchy.

Input-level problems (bad files, bad parameters, precondition failures) derive
from :class:`InputError`; violations of internal invariants that should be
impossible on valid inputs derive from :class:`InternalError`.  The CLI maps
the former to exit code 2 and the latter to exit code 3.
"""


class HomologyLabError(Exception):
    """Base class for all library errors."""


class InputError(HomologyLabError):
    """Invalid input or unsatisfied precondition."""


class InternalError(HomologyLabError):
    """An internal consistency check failed."""


# --- complex construction / ingestion ---------------------------------------

class DuplicateSimplex(InputError):
    pass


class MissingFace(InputError):
    pass


class EmptyInput(InputError):
    pass


class EmptyLayer(InputError):
    pass


class BadParameter(InputError):
    pass


class NotASubcomplex(InputError):
    """Raised with the first simplex of k1 that is absent from k2."""

    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"simplex {self.simplex} is not contained in the larger complex")


# --- chains / cycles ---------------------------------------------------------

class DimensionMismatch(InputError):
    pass


class ZeroChain(InputError):
    pass


class NotACycle(InputError):
    pass


class NotAFiltrationChain(InputError):
    pass


class TrivialKernel(InputError):
    pass


# --- estimators ---------------------------------------------------------------

class DegreeTooHigh(InputError):
    pass


class SpectralNormExceeded(InputError):
    pass


# --- cohomology ----------------------------------------------------------------

class TrivialCocycleSpace(InputError):
    pass


# --- internal invariants --------------------------------------------------------

class StructuralViolation(InternalError):
    pass


class RouteDisagreement(InternalError):
    """The two persistent-Betti routes disagree; reports both values."""

    def __init__(self, route_a, route_b):
        self.route_a = route_a
        self.route_b = route_b
        super().__init__(f"persistent Betti routes disagree: pivots={route_a}, ranks={route_b}")
