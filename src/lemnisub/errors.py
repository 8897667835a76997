"""Exception hierarchy for lemnisub."""


class LemnisubError(Exception):
    """Base class for all lemnisub errors."""


# --- power series ---

class SeriesError(LemnisubError):
    pass


class DivisionByZeroConstantTerm(SeriesError):
    """Division by a series whose constant term vanishes."""


class ConstantTermNotOne(SeriesError):
    """Operation requires a series with constant term 1."""


class ConstantTermNotZero(SeriesError):
    """Operation requires a series with constant term 0."""


# --- regions ---

class SingularPoint(LemnisubError):
    """Evaluation requested at a pole or branch point of the map."""


# --- catalog ---

class InvalidParameters(LemnisubError):
    """Parameters violate a lemma's domain; carries all messages at once."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class InfeasibleParameters(LemnisubError):
    """No admissible beta exists for the requested computation."""


# --- verifier ---

class NonMonotoneMargin(LemnisubError):
    """A lemniscate premise's beta scan lost the criterion level after
    reaching it: at a later scan beta some grid angle's margin is below 1
    again (on L2-L4, beta |b| inside the window (r2, r3) of that angle's
    ray quartic).  A Mobius premise's margin, once at 1, stays there."""


class NoThresholdInBracket(LemnisubError):
    """No finite threshold up to 10 beta*: a lemniscate premise's beta scan
    never reached the criterion level or 10 beta* overflows, or the radial
    route's X - Y (Mobius premise) or 1 (lemniscate premise) over min g
    lies above 10 beta* or is not finite."""


class ConstantTermMismatch(LemnisubError):
    """Subordination check requires p(0) to match the target's centre value."""


# --- generators ---

class NotAContraction(LemnisubError):
    """A Schwarz candidate could not be certified as a self-map of the disk."""


class RecursionBreakdown(LemnisubError):
    """A vanishing pivot beta*n stopped the premise solve."""


class TruncationInsufficient(LemnisubError):
    """The truncation order cannot meet the requested accuracy."""
