"""Exception types shared across the library."""


class MimlabError(Exception):
    """Base class for all library errors."""


class InvalidParameter(MimlabError, ValueError):
    """A generator or operation received an out-of-range argument."""


class LimitExceeded(MimlabError):
    """Input is larger than the configured limit for an exact algorithm."""


class GraphFormatError(MimlabError, ValueError):
    """Malformed graph / decomposition / diagram text."""


class OddCycleFound(MimlabError):
    """Raised by two-coloring; carries an odd cycle as certificate."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"graph is not bipartite, odd cycle {self.cycle}")


class NotBinary(MimlabError):
    """A decomposition node does not have exactly two children."""


class LabelMismatch(MimlabError):
    """Decomposition leaves are not a bijection onto the graph vertices."""


class DegreeViolation(MimlabError):
    """A vertex violates the degree precondition of the chord embedding."""


class CertificateViolation(MimlabError):
    """A recognizer's own certificate failed its independent re-check."""


class DiagramViolation(MimlabError):
    """Base class for chord-diagram verification failures."""


class XXCrossing(DiagramViolation):
    """Two X-chords cross."""


class MissingEdge(DiagramViolation):
    """An edge of the subject graph has no matching X-Y crossing."""


class SpuriousXYCrossing(DiagramViolation):
    """An X-Y crossing with no matching edge in the subject graph."""
