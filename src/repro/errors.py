"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish parameter problems from runtime failures.
"""

from __future__ import annotations

from typing import Sequence, Tuple


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ReproError, ValueError):
    """A scheme or hardware parameter is malformed or unsupported."""


class KeyError_(ReproError, KeyError):
    """A required evaluation/rotation/bootstrapping key is missing."""


class LevelError(ReproError):
    """A ciphertext has too few remaining limbs for the requested op."""


class ScaleMismatchError(ReproError):
    """Two ciphertexts with incompatible scales were combined."""


class NoiseBudgetExceeded(ReproError):
    """Decryption noise exceeded the correctness bound."""


class FourierRoundingError(ReproError, ArithmeticError):
    """A float64 FFT product left a rounding residual too large to round
    to the exact integers: its result would be a wrong ciphertext, so it
    is refused instead (``residual`` is the max ``|x - rint(x)|`` seen)."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual: float = residual


class WireFormatError(ReproError):
    """A framed wire blob failed its integrity check (bad CRC, truncated
    payload, or a header that does not match the payload length)."""


class SharedBufferError(ReproError):
    """A shared-memory buffer could not be published or attached.

    Raised when an array is unsuitable for zero-copy sharing (``object``
    dtype, non-contiguous layout), when a manifest does not match the
    block it claims to describe (size or CRC32 mismatch — the attach-time
    integrity check), or when the named block no longer exists."""


class ServiceOverloadError(ReproError):
    """The bootstrap service's request queue is full.

    Backpressure, not failure: the request was **not** enqueued and the
    caller should retry after ``retry_after`` seconds (the service's
    estimate of when queue room frees up, derived from its recent
    per-request service time — never negative, never zero)."""

    def __init__(self, message: str, retry_after: float = 0.1) -> None:
        super().__init__(message)
        self.retry_after: float = max(float(retry_after), 1e-3)


class ServiceClosedError(ReproError):
    """A request was submitted to a bootstrap service that has been
    stopped (or never started).  Requests accepted *before* the stop are
    still drained to completion; only new submissions are refused."""


class ClusterExecutionError(ReproError):
    """The distributed bootstrap could not complete.

    Raised by the cluster executor only after recovery has been
    exhausted: either no healthy node remains to take a failed fan-out
    slice, or the per-fan-out retry budget ran out (a guard against
    faults injected persistently on every node).  ``failed_nodes`` lists
    the node ids declared dead, ``pending_slices`` the ``(start, stop)``
    LWE ranges that never produced verified results.
    """

    def __init__(self, message: str,
                 failed_nodes: Sequence[int] = (),
                 pending_slices: Sequence[Tuple[int, int]] = ()) -> None:
        super().__init__(message)
        self.failed_nodes: Tuple[int, ...] = tuple(failed_nodes)
        self.pending_slices: Tuple[Tuple[int, int], ...] = tuple(pending_slices)
