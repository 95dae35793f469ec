"""Percentiles for benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail it claims to describe is a handful of
#: outliers.
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples to support the requested percentile."""


def percentile(samples: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated linearly between ranks.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond the percentile, e.g. a
    p99 needs 1,000 samples and a p50 needs 20.
    """
    if not 1 <= q <= 99:
        raise ValueError(f"percentile must lie in [1, 99], got {q}")
    beyond = len(samples) * (100 - q) // 100
    if beyond < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q} of {len(samples)} samples has {beyond} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are required"
        )
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]

