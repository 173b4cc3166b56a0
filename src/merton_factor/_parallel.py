"""Optional thread fan-out of the Monte Carlo path blocks.

Worker count comes from the ``MERTON_FACTOR_THREADS`` environment variable
(default 1 = serial); it affects Monte Carlo estimates only.  Results are
always assembled in input order, and the work functions write into
disjoint, pre-allocated slots, so the output is identical whatever the
worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

_ENV_VAR = "MERTON_FACTOR_THREADS"


def worker_count():
    """Number of worker threads requested via the environment (>= 1)."""
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(1, n)


def map_ordered(fn, items):
    """Apply ``fn`` to each item, in order, optionally across threads."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
