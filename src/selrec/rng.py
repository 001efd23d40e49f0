"""Deterministic random-stream derivation.

Every Monte Carlo routine takes a single integer seed and derives its
child streams from it by index path.  The dual samplers draw replicates in
blocks of a fixed size (duals.BLOCK) and key one stream by (seed, block
index); other routines key theirs by a fixed label or replicate index.  The
mapping is fixed, so results do not depend on scheduling or thread count.
"""
from __future__ import annotations

import numpy as np


def spawn_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and index path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
