"""Exception types shared across the package."""


class BlockvdError(Exception):
    """Base class for all package-specific errors."""


class IncompatibleBoundary(BlockvdError):
    """Two boundaried graphs cannot be summed (boundary or G[S] mismatch)."""


class InvalidInput(BlockvdError):
    """A structurally invalid object was passed (e.g. a broken decomposition)."""


class TooLarge(BlockvdError):
    """Input exceeds the size guard of an exhaustive routine."""


class NonChordalFamily(BlockvdError):
    """The block family admits a non-chordal member, so the DP is unsound."""


class CapExceeded(BlockvdError):
    """Pattern-universe enumeration beyond the label cap ``families.UD_CAP``."""


class BadBucket(BlockvdError):
    """A representative-set bucket mixes partitions of different sizes."""


class BadSequence(BlockvdError):
    """A chain-gadget sequence violates its growth constraints."""


class NotAnIS(BlockvdError):
    """A planted vertex choice is not a valid permutation independent set."""


class NotAClique(BlockvdError):
    """A planted embedding is not a multicolored clique / subgraph image."""


class NoCharacteristic(BlockvdError):
    """A labeled boundaried graph admits no characteristic for the universe."""
