"""Shared test set-up.  Child processes started by the tests import selrec
from this tree, as the tests themselves do through pytest's `pythonpath`
setting; `traced_peak` measures the bytes a call allocates.  Every
hypothesis property runs under one profile: the same examples on every run,
no example database and no per-example deadline."""
import os
import tracemalloc
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("selrec", derandomize=True, database=None, deadline=None)
settings.load_profile("selrec")


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, above those held before it:
    numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
