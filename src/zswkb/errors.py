"""Exception hierarchy shared by all solver modules."""


class ZSWKBError(Exception):
    """Base class for all numerical and contract failures in this package."""


# -- potential -------------------------------------------------------------

class OutOfStrip(ZSWKBError):
    """Evaluation point left the strip of analyticity |Im z| < strip_half_width."""


class A1Violated(ZSWKBError):
    """The potential/level pair does not define a simple well.

    ``reason`` is one of ``no-crossings``, ``extra-crossings``,
    ``zero-slope``, ``no-margin-at-infinity``.
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {message}" if message else reason)


# -- turning points --------------------------------------------------------

class NoConvergence(ZSWKBError):
    """An iterative solve hit its iteration cap without meeting tolerance."""


class LeftStrip(ZSWKBError):
    """A Newton iterate escaped the strip of analyticity."""


class Collision(ZSWKBError):
    """The two tracked turning points approached within the collision threshold."""


# -- action integral -------------------------------------------------------

class QuadratureNoConvergence(ZSWKBError):
    """Node doubling reached the cap without the requested relative accuracy."""


class BranchAmbiguity(ZSWKBError):
    """Square-root branch tracking along the contour became ambiguous."""


class DegenerateSegment(ZSWKBError):
    """Integration endpoints are too close for a meaningful contour."""


class SymmetryRequired(ZSWKBError):
    """The operation assumes a PT-like symmetric potential pair."""


# -- quantization ----------------------------------------------------------

class EmptyWindow(ZSWKBError):
    """No quantization index fits inside the spectral window."""


class LeftWindow(ZSWKBError):
    """A quantization target or iterate lies outside the spectral window."""


# -- direct solver ---------------------------------------------------------

class InsideWell(ZSWKBError):
    """A boundary cut has no positive decay margin (|A| not above |lambda|)."""


class BoundaryZero(ZSWKBError):
    """A Wronskian zero sits on the counting contour even after inflation."""


class PhaseResolution(ZSWKBError):
    """Contour phase increments could not be resolved below pi/2."""


# -- Stokes geometry -------------------------------------------------------

class DegenerateTurningPoint(ZSWKBError):
    """Turning point is not simple; Stokes directions are undefined."""


class StepFailure(ZSWKBError):
    """Stokes line tracing could not take a valid step."""


# -- CLI -------------------------------------------------------------------

class ConfigError(ZSWKBError):
    """Experiment configuration is malformed or inconsistent."""
