"""Deterministic substreams derived from one 64-bit master seed.

Every stochastic component of a run pulls its random numbers from
``substream(seed, step, role)``: a Philox counter construction in which the
master seed keys the cipher and the (step, role) pair selects a disjoint
256-bit counter block.  Streams for different steps or roles never overlap,
so results do not depend on evaluation order or on how many values another
component consumed.  Within one stream, batch draws are row-indexed: sample
``i`` of a vectorized draw always receives the same bits no matter how many
worker threads the caller uses.
"""

import numpy as np

# Role tags (third counter word).  Keeping them here avoids collisions.
SAMPLING = 0      # search-space samples for the update
FISHER = 2        # Monte-Carlo Fisher estimation (one batch, split in halves)
INIT = 4          # parameter initialization
OBJECTIVE = 6     # per-run objective setup (e.g. random two_min target)

_KEY_SALT = 0x9E3779B97F4A7C15  # golden-ratio constant, second key word


def substream(seed, *path):
    """Return a ``numpy.random.Generator`` for the given (seed, path) block.

    ``path`` holds up to three non-negative integers (typically step index
    and a role tag).  The zeroth counter word is left free for in-stream
    progression, which gives every substream 2**64 blocks of headroom.
    """
    if len(path) > 3:
        raise ValueError("substream path supports at most 3 components")
    counter = np.zeros(4, dtype=np.uint64)
    for i, part in enumerate(path, start=1):
        if part < 0:
            raise ValueError("substream path components must be >= 0")
        counter[i] = np.uint64(part)
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_KEY_SALT)])
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def spawn_run_seed(seed, run_id):
    """Derive an independent 64-bit seed for repeat ``run_id`` of a batch."""
    g = substream(seed, run_id, INIT)
    return int(g.integers(0, 2**63 - 1))
