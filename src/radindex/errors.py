"""Exception hierarchy shared by all radindex modules."""


class RadindexError(Exception):
    """Base class for every error raised by this package."""


# --- input / parsing -------------------------------------------------------

class InputError(RadindexError):
    """The input cannot be read as an admissible bound quiver; the CLI
    exits with code 2."""


class QuivSyntaxError(InputError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVertex(InputError):
    pass


class UnknownArrow(InputError):
    pass


class DuplicateName(InputError):
    pass


class NonComposablePath(InputError):
    pass


class InvalidQuiver(InputError):
    """Structural invariant of a quiver or bound quiver violated."""


class NonAdmissible(InputError):
    """The ideal is not admissible: walks avoiding the zero-relations exist
    in every length, which the parser decides exactly.  Path enumeration
    also raises it when a live path outgrows its length cap, a size limit
    rather than a proof."""


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
