"""Admission control for ``repro serve``: stay up by saying no early.

One gate protects the service under overload: the **bounded job
queue**. The :class:`~repro.serve.jobqueue.JobQueue` refuses to enqueue
a new *cold* job once ``max_pending`` jobs are already waiting for a
worker (warm and coalesced submissions are never refused: they cost no
simulation, so turning them away would only hurt). A refusal raises
:class:`AdmissionError`, which the HTTP layer maps to ``429`` plus a
``Retry-After`` header (seconds, rounded up) instead of letting work
pile up until nothing finishes.
"""

from __future__ import annotations

import math


class AdmissionError(Exception):
    """Request refused by admission control (HTTP ``429``)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: Seconds the client should wait before retrying (>= 1).
        self.retry_after = max(1.0, float(retry_after))

    @property
    def retry_after_header(self) -> str:
        """The ``Retry-After`` header value (integer seconds)."""
        return str(int(math.ceil(self.retry_after)))
