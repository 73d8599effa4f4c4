"""
Error taxonomy with stable string codes.

Every failure that a caller can act on carries a .code attribute; the CLI
maps these to exit code 1 and embeds the code in the report.
"""


class WeylmodError(Exception):
    code = "Error"


class MixedAmbient(WeylmodError):
    code = "MixedAmbient"


class ZeroElement(WeylmodError):
    code = "ZeroElement"


class RankMismatch(WeylmodError):
    code = "RankMismatch"


class NonIntegral(WeylmodError):
    code = "NonIntegral"


class DivisionByZero(WeylmodError):
    code = "DivisionByZero"


class ZeroModule(WeylmodError):
    code = "ZeroModule"


class UnsupportedAmbient(WeylmodError):
    code = "UnsupportedAmbient"


class IndexOutOfRange(WeylmodError):
    code = "IndexOutOfRange"


class NotMinimalDimension(WeylmodError):
    code = "NotMinimalDimension"


class NotSaturated(WeylmodError):
    code = "NotSaturated"


class NotSameModule(WeylmodError):
    code = "NotSameModule"


class NotHolonomic(WeylmodError):
    code = "NotHolonomic"


class NotAComplex(WeylmodError):
    code = "NotAComplex"


class RightModule(WeylmodError):
    code = "RightModule"


class UnsupportedTarget(WeylmodError):
    code = "UnsupportedTarget"


class InternalInvariant(WeylmodError):
    """An engine invariant failed: a bug, or input outside a documented
    precondition of a library call."""
    code = "InternalInvariant"


class ParseError(WeylmodError):
    code = "ParseError"

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "line %d, col %d: %s" % (self.line, self.col, base)
        return base


class UndeclaredName(ParseError):
    code = "UndeclaredName"


class RingMismatch(ParseError):
    code = "RingMismatch"
