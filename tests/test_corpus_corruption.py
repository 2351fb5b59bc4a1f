"""Damage to a stored corpus object is always caught, never served.

Every truncation of an object, every single-bit flip of its header and
hypothesis-drawn flips of its payload must each leave the store in the
same state: ``get`` returns None and counts one dropped object,
``verify`` flags the object, ``get_or_record`` re-records the exact
trace (and stores the identical object again), and no exception
escapes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.store import TraceCorpus, TraceKey, _read_header
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent

KEY = TraceKey("mm", "vgauss", "mandrill", 0.05)


def _trace() -> Trace:
    return Trace(
        TraceEvent(
            Opcode.FDIV if i % 3 else Opcode.FMUL, float(i % 5) + 0.5, 3.0,
            (float(i % 5) + 0.5) / 3.0, dst=i + 1, srcs=(i,), pc=0x400 + i % 7,
        )
        for i in range(12)
    )


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A corpus holding KEY's object: (corpus, path, object bytes,
    header length)."""
    corpus = TraceCorpus(tmp_path_factory.mktemp("corpus"))
    corpus.put(KEY, _trace())
    path = corpus._object_path(KEY.digest)
    blob = path.read_bytes()
    with path.open("rb") as stream:
        assert _read_header(stream, KEY.digest, len(blob)) is not None
        header_size = stream.tell()
    return corpus, path, blob, header_size


def _assert_caught(corpus, path, damaged, original):
    """``damaged`` in place of the object is caught by every path."""
    assert damaged != original
    path.write_bytes(damaged)
    dropped = corpus.stats.corrupt_dropped
    assert corpus.get(KEY) is None
    assert corpus.stats.corrupt_dropped == dropped + 1
    assert not path.exists()

    path.write_bytes(damaged)
    [(digest, _, problem)] = corpus.verify()
    assert digest == KEY.digest and problem is not None

    recorded = corpus.stats.recorded
    trace = corpus.get_or_record(KEY, _trace)
    assert corpus.stats.recorded == recorded + 1
    assert trace.events == _trace().events
    assert path.read_bytes() == original


def test_every_truncation_is_caught(stored):
    corpus, path, blob, _ = stored
    for length in range(len(blob)):
        _assert_caught(corpus, path, blob[:length], blob)


def test_every_header_bit_flip_is_caught(stored):
    corpus, path, blob, header_size = stored
    for index in range(header_size):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[index] ^= 1 << bit
            _assert_caught(corpus, path, bytes(damaged), blob)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_payload_bit_flips_are_caught(stored, data):
    corpus, path, blob, header_size = stored
    damaged = bytearray(blob)
    flips = data.draw(
        st.lists(
            st.tuples(
                st.integers(header_size, len(blob) - 1),
                st.integers(0, 7),
            ),
            min_size=1, max_size=4, unique_by=lambda flip: flip,
        )
    )
    for index, bit in flips:
        damaged[index] ^= 1 << bit
    _assert_caught(corpus, path, bytes(damaged), blob)
