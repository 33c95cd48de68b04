"""Bounded trace containers for the NoC grant traces.

:func:`make_trace_buffer` is the one place that decides how a
bounded-vs-unbounded ``grant_trace`` is built, for both
``repro.noc.link`` and ``repro.noc.mesh``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Union

from repro.common.errors import ConfigurationError


def make_trace_buffer(
    limit: Optional[int],
) -> Union[List, Deque]:
    """Container for a component-local trace (NoC grant traces).

    ``None`` returns a plain list — the unbounded container the
    security benchmarks index and slice freely; a positive ``limit``
    returns a bounded ring of the most recent entries.
    """
    if limit is None:
        return []
    if limit <= 0:
        raise ConfigurationError("trace_limit must be positive")
    return deque(maxlen=limit)
