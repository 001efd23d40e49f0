"""Shared test set-up.  Child processes started by the tests import selrec
from this tree, as the tests themselves do through pytest's `pythonpath`
setting; `traced_peak` measures the bytes a call allocates."""
import os
import tracemalloc
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


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
