"""Exception hierarchy for model validation, engine, and I/O diagnostics."""


class TwindexError(Exception):
    """Base class for all diagnostics raised by this package."""


class InvalidValue(TwindexError, ValueError):
    """A constructor argument outside its allowed range or set."""


# -- event model --------------------------------------------------------------

class NonFiniteValue(TwindexError):
    def __init__(self, t: int, channel: int):
        self.t = t
        self.channel = channel
        super().__init__(f"non-finite value at period t={t}, channel {channel}")


class TimeAxisGap(TwindexError):
    """Time column is not consecutive integers 1..T_max."""


class EmptyModel(TwindexError):
    """Zero channels or zero periods."""


class DimensionMismatch(TwindexError):
    pass


class EmptySignal(TwindexError):
    """Masked-mode binding with an all-zero mask produces no channels."""


class UnknownCompetency(TwindexError):
    pass


class UnknownTaxonomyLevel(TwindexError):
    pass


# -- indicator engine ---------------------------------------------------------

class InsufficientHistory(TwindexError):
    pass


class DegenerateWindow(TwindexError):
    """Window has fewer than 2 rows."""


# -- regimes ------------------------------------------------------------------

class OutOfRange(TwindexError):
    """Intervention does not fit the time axis."""


class UnknownChannel(TwindexError):
    pass


class NonFiniteInput(TwindexError):
    pass


# -- generator ----------------------------------------------------------------

class InvalidConfig(TwindexError):
    pass


# -- parsing ------------------------------------------------------------------

class ParseError(TwindexError):
    """Base for format diagnostics; carries line/column position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        pos = ""
        if line is not None:
            pos = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + pos)


class MalformedHeader(ParseError):
    pass


class MalformedNumber(ParseError):
    pass


class NonMonotonicTime(ParseError):
    pass
