"""Exception hierarchy shared by all modules."""


class QcError(Exception):
    """Base class for all library errors."""


class ArityMismatch(QcError):
    """Sequential composition or rule application with incompatible widths."""


class InvalidCircuit(QcError):
    """Gate list cannot be threaded from n_in to n_out wires."""


class WireCapExceeded(QcError):
    """Circuit is wider than the configured dense-matrix cap."""


class ShapeMismatch(QcError):
    """Matrix comparison with different shapes."""


class DegenerateMatrix(QcError):
    """Phase extraction from a (near-)zero matrix."""


class NotUnitary(QcError):
    """A 2x2 matrix expected to be unitary is not."""


class DomainError(QcError):
    """Closed-form expression evaluated outside its domain."""


class UnknownTheory(QcError):
    """Theory tag not in the catalog."""


class UnknownLemma(QcError):
    """Lemma name not in the derived-equation catalog."""


class BadParams(QcError):
    """Wrong parameter count or values: a rule or lemma instance, a
    sampling run with nothing to check, or a bad QCEQ_WIRE_CAP."""


class BadArity(QcError):
    """Rule or operation applied at an unsupported wire count."""


class NoMatch(QcError):
    """Site does not match the instantiated rule side."""


class IllegalSite(QcError):
    """Selected gates cannot be commuted into a contiguous block."""


class SemanticDrift(QcError):
    """Safety-net failure: a rewrite changed the semantics (engine bug)."""


class NoInterpretation(QcError):
    """No counter-interpretation registered for the requested axiom."""


class UnsupportedGate(QcError):
    """Gate outside the domain of an operation (INIT/DEST under an
    interpretation, CTRL in the 1-qubit normalizer)."""


class InconsistentClasses(QcError):
    """Sign-class closure produced a parity contradiction (engine bug)."""
