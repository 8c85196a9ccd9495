"""Exception types shared across the index variants."""


class SamsamiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(SamsamiError):
    """A parameter violates its constraints (e.g. p > q, q < 1)."""


class TextTooShort(SamsamiError):
    """The text is shorter than the construction requires."""


class PatternTooShort(SamsamiError):
    """The pattern is shorter than the variant's minimum query length."""


class UnsupportedFormat(SamsamiError):
    """Index file magic or version not recognized."""


class CorruptIndex(SamsamiError):
    """Index file is truncated or internally inconsistent."""


class TextMismatch(CorruptIndex):
    """Index file was built from a different text than the one supplied."""


class CorruptEncoding(SamsamiError):
    """Phrase-encoded stream cannot be decoded."""
