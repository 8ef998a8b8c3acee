"""Exception hierarchy shared by all radindex modules."""


class RadindexError(Exception):
    """Base class for every error raised by this package."""


# --- input / parsing -------------------------------------------------------

class QuivSyntaxError(RadindexError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVertex(RadindexError):
    pass


class UnknownArrow(RadindexError):
    pass


class DuplicateName(RadindexError):
    pass


class NonComposablePath(RadindexError):
    pass


class InvalidQuiver(RadindexError):
    """Structural invariant of a quiver or bound quiver violated."""


class NonAdmissible(RadindexError):
    """Path enumeration did not stabilize below the admissibility cap."""


# --- resource / scope guards -----------------------------------------------

class CapExceeded(RadindexError):
    """A bounded enumeration outgrew its cap; the input is likely
    representation-infinite."""


class RepresentationInfinite(CapExceeded):
    """The input was positively identified as representation-infinite."""


# --- knitting ---------------------------------------------------------------

class NegativeMesh(RadindexError):
    """Mesh subtraction produced a negative entry; the algebra is outside
    the representation-directed scope."""


class AmbiguousInjective(RadindexError):
    """Two indecomposables needed during knitting share a dimension vector,
    so dimension vectors cannot identify modules here."""


class KnittingStuck(RadindexError):
    """The mesh-completion loop made no progress; internal inconsistency or
    an input outside the directed scope."""


class NotFound(RadindexError):
    pass


class NoPath(RadindexError):
    pass


class WithoutLength(RadindexError):
    """The knitted quiver has parallel paths of different lengths, so graph
    distance does not define r_a; use the string method."""


# --- method applicability ----------------------------------------------------

class NotStringAlgebra(RadindexError):
    pass


class NoRelations(RadindexError):
    """The string index needs at least one zero-relation; hereditary inputs
    are routed to the Dynkin table instead."""


class NotToupie(RadindexError):
    pass


class NoInteriorVertex(RadindexError):
    pass


class NotSingleRelationTree(RadindexError):
    pass


class OverlappedRelations(RadindexError):
    pass


class NoSharedVertex(RadindexError, ValueError):
    """Two overlapped zero-relations share no involved vertex, so the
    representative set has no vertex to choose for the pair.

    Also a ValueError, the type this case raised before it had a name:
    the benchmark's stage tracer (bench/spans.py) catches it as one."""


class ShapeMismatch(RadindexError):
    """The relation layout does not match the glued-blocks shape."""


class FormulaInapplicable(RadindexError):
    """The pullback formula's hypothesis failed (the middle subcategory is
    empty).  Carries the naive formula value, the knitting fallback, the
    part indices, the matched family and the sectional criterion."""

    def __init__(self, message, naive_value=None, fallback_value=None,
                 parts=None, family=None, sectional=None):
        super().__init__(message)
        self.naive_value = naive_value
        self.fallback_value = fallback_value
        self.parts = parts
        self.family = family
        self.sectional = sectional


class Unsupported(RadindexError):
    """No implemented method applies to the input.  Carries the index
    report of the methods that were tried."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
