"""Exception taxonomy shared by the library and the CLI."""


class MatchcovError(Exception):
    """Base class for all library errors."""


class LoopEdgeError(MatchcovError, ValueError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(MatchcovError, ValueError):
    """A vertex id falls outside 0..n-1."""


class EdgeOutOfRangeError(MatchcovError, ValueError):
    """An edge id falls outside 0..m-1."""


class EmptyShoreError(MatchcovError, ValueError):
    """A cut shore is empty or covers every vertex."""


class MalformedGraph6Error(MatchcovError, ValueError):
    """graph6 text violates the format (length, range, or padding bits)."""


class NotSimpleError(MatchcovError, ValueError):
    """Operation requires a simple graph but the input has parallel edges."""


class ParseError(MatchcovError, ValueError):
    """Malformed .mg text or unrecognizable graph input."""


class BoundExceededError(MatchcovError, ValueError):
    """Input is larger than the configured desk-scale ceiling."""


class NotMatchingCoveredError(MatchcovError, ValueError):
    """Operation requires a matching covered graph."""


class NotBipartiteMCError(MatchcovError, ValueError):
    """Operation requires a bipartite matching covered graph."""


class NotABrickError(MatchcovError, ValueError):
    """Operation requires a brick."""


class NotOddWheelsError(MatchcovError, ValueError):
    """Splice conditions are only defined for a pair of odd wheels."""


class SpliceInvalidError(MatchcovError, ValueError):
    """Splice spec is structurally invalid (bad vertex ids or theta domain)."""


class DegreeMismatchError(SpliceInvalidError):
    """Splice endpoints have different degrees."""


class NotABijectionError(SpliceInvalidError):
    """theta is not a bijection between the two boundary slot lists."""


class BadSpecError(MatchcovError, ValueError):
    """Wheel or certificate spec violates its schema."""


class ConditionViolatedError(MatchcovError, ValueError):
    """A certificate node violates a family membership condition."""


class UnknownCampaignError(MatchcovError, ValueError):
    """Verification campaign id is not in the catalog."""
