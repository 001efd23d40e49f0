import json
import subprocess
import sys

from selrec.rng import spawn_stream

# seeds and index paths of the kinds the samplers use, with a seed and a
# path entry of 2^32 and beyond
KEYS = [(0,), (11, 101), (2**40, 3), (7, 2**33, 5), (2**64 + 1, 0, 2**32)]

_STREAMS = """
import json, sys
if sys.argv[1] == "secrets":
    import secrets
from selrec.rng import spawn_stream

rows = []
for key in json.loads(sys.argv[2]):
    rng = spawn_stream(*key)
    rows.append([rng.bit_generator.state, rng.random(3).tolist(), int(rng.integers(2**62))])
print(json.dumps({"openssl": "_hashlib" in sys.modules, "streams": rows}))
"""


def _streams(first: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _STREAMS, first, json.dumps(KEYS)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_streams_keep_their_bits_without_the_real_secrets():
    # with secrets imported first, rng imports numpy.random as it is; with
    # neither loaded it puts a stand-in secrets in place for the import.
    # Both give the same states and draws, here and in this process
    plain, loaded = _streams("secrets"), _streams("none")
    assert plain["openssl"] and not loaded["openssl"]
    assert loaded["streams"] == plain["streams"]
    here = []
    for key in KEYS:
        rng = spawn_stream(*key)
        here.append([rng.bit_generator.state, rng.random(3).tolist(), int(rng.integers(2**62))])
    assert json.loads(json.dumps(here)) == plain["streams"]
