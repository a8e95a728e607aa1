"""Exception types shared across the package."""


class SubnerError(Exception):
    """Base class for all errors raised by this package."""


class MalformedLine(SubnerError):
    def __init__(self, line_no, reason="expected two tab-separated fields"):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}")


class EmptyCorpus(SubnerError):
    pass


class NotUtf8(SubnerError):
    """A text input file holds bytes that are not UTF-8."""

    def __init__(self, path, exc: UnicodeDecodeError):
        self.path = path
        self.offset = exc.start
        super().__init__(f"{path}: not UTF-8 at byte offset {exc.start} "
                         f"(0x{exc.object[exc.start]:02x}: {exc.reason})")


class InvalidConfig(SubnerError):
    pass


class DuplicateToken(SubnerError):
    def __init__(self, token, line_no):
        self.token = token
        self.line_no = line_no
        super().__init__(f"duplicate token {token!r} at line {line_no}")


class MissingSpecial(SubnerError):
    def __init__(self, token):
        self.token = token
        super().__init__(f"special token {token!r} not found in vocab")


class InvariantViolation(SubnerError):
    def __init__(self, sentence_no, reason):
        self.sentence_no = sentence_no
        self.reason = reason
        super().__init__(f"sentence {sentence_no}: {reason}")


class LengthMismatch(SubnerError):
    pass


class IdOutOfRange(SubnerError):
    pass


class ShapeMismatch(SubnerError):
    pass


class EmptyBatch(SubnerError):
    pass


class InvalidHyper(SubnerError):
    pass


class EmptySplit(SubnerError):
    pass


class LabelMismatch(SubnerError):
    pass


class VersionMismatch(SubnerError):
    pass


class CorruptCheckpoint(SubnerError):
    pass


class NonFiniteLoss(SubnerError):
    """Training diverged: a batch loss or gradient norm came out inf or nan,
    or an epoch's mean loss exceeded the divergence bound."""


class UnknownScheme(SubnerError):
    pass
