"""Exception types shared across the package."""


class OracleCapError(ValueError):
    """Instance too large for the exhaustive oracle."""


class NotInSpectrumError(ValueError):
    """A cycle of the requested length provably does not exist."""


class UnclassifiableError(ValueError):
    """Graph or family spec falls outside the recognized families."""


class FalsificationError(RuntimeError):
    """A computation contradicted a theorem-level guarantee.

    Raised instead of silently swallowing an inconsistency, e.g. a
    constructive builder emitting a sequence the validator rejects.
    """
