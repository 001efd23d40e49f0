"""Deterministic random-stream derivation.

Every Monte Carlo routine takes a single integer seed and derives its
child streams from it by index path.  The dual samplers draw replicates in
blocks of a fixed size (duals.BLOCK) and key one stream by (seed, block
index); other routines key theirs by a fixed label or replicate index.  The
mapping is fixed, so results do not depend on scheduling or thread count.

This is the one module that loads numpy.random, on the first
`spawn_stream` call and never at import, so the commands that draw no
random numbers (`solve`, `ld`) never load it.  It loads it without OpenSSL:
numpy.random's bit_generator imports `secrets` for the entropy of unseeded
generators, and `secrets` imports `hmac` and through it `_hashlib`, which
maps OpenSSL's libcrypto, a few MB resident, that no selrec code uses.
"""
from __future__ import annotations

import sys

import numpy as np

_random = None  # numpy.random, once load_numpy_random has run


def load_numpy_random():
    """numpy.random, imported on the first call.

    If neither numpy.random nor `secrets` is loaded yet, a stand-in
    `secrets` serves the import and is removed after it, so the real module
    stays importable.  Its one attribute is the only name bit_generator
    takes from `secrets`, randbits, and it is the very function that
    `secrets.randbits` is (`SystemRandom().getrandbits`): unseeded
    generators still draw OS entropy, and seeded streams never call it.
    """
    global _random
    if _random is None:
        if "numpy.random" in sys.modules or "secrets" in sys.modules:
            import numpy.random
        else:
            import random
            import types

            stand_in = types.ModuleType("secrets")
            stand_in.randbits = random.SystemRandom().getrandbits
            sys.modules["secrets"] = stand_in
            try:
                import numpy.random
            finally:
                # a first call on another thread may have put its own in place
                if sys.modules.get("secrets") is stand_in:
                    del sys.modules["secrets"]
        _random = np.random
    return _random


def spawn_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and index path."""
    np_random = _random or load_numpy_random()
    ss = np_random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np_random.Generator(np_random.PCG64(ss))
