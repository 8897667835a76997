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
    """The beta scan found a descent after the criterion level was reached."""


class NoThresholdInBracket(LemnisubError):
    """The beta scan never reached the criterion level."""


class ConstantTermMismatch(LemnisubError):
    """Subordination check requires p(0) to match the target's centre value."""


# --- generators ---

class NotAContraction(LemnisubError):
    """A Schwarz candidate could not be certified as a self-map of the disk."""


class RecursionBreakdown(LemnisubError):
    """A vanishing pivot interrupted the coefficient recursion."""


class TruncationInsufficient(LemnisubError):
    """The truncation order cannot meet the requested accuracy."""
