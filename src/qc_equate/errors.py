"""Exception hierarchy shared by all modules."""


class QcError(Exception):
    """Base class for all library errors."""


class ArityMismatch(QcError):
    """Sequential composition or rule application with incompatible widths."""


class InvalidCircuit(QcError):
    """Malformed input: a gate list that cannot be threaded from n_in to
    n_out wires, or a mistyped field of a circuit, rule instance or trace
    (a wire, count or index not an integer, an angle or rule parameter not
    a finite real number)."""


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
    """Theory tag not in the catalog, or one an operation does not run in
    (``normalize_1q`` outside QC/QCprime)."""


class UnknownLemma(QcError):
    """Rule name a theory cannot cite: in no catalog, an axiom of other
    theories only, or a lemma without ``allow_lemmas``; or a name that is
    not an axiom of the theory whose minimality is asked for."""


class BadParams(QcError):
    """Wrong parameter count for a rule or lemma instance (a parameter that
    is not a real number is InvalidCircuit), a sampling run with nothing to
    check or a negative seed, a comparison tolerance that is not a finite
    number >= 0, or a bad QCEQ_WIRE_CAP."""


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
