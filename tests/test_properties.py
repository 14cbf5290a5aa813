"""Property-based tests (hypothesis) for address maths and vocab.

Skipped cleanly when hypothesis is not installed (it is an optional
test dependency; CI installs it).
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from voyager.traces import (  # noqa: E402
    BLOCK_BITS,
    NUM_OFFSETS,
    MemoryAccess,
    join_address,
    split_address,
)
from voyager.vocab import OOV_ID, Vocab  # noqa: E402

addresses = st.integers(min_value=0, max_value=2**64 - 1)
pages = st.integers(min_value=0, max_value=2**52 - 1)
offsets = st.integers(min_value=0, max_value=NUM_OFFSETS - 1)


# ----------------------------------------------------------------------
# page/offset splitting
# ----------------------------------------------------------------------
@given(page=pages, offset=offsets)
def test_split_of_join_is_identity(page, offset):
    assert split_address(join_address(page, offset)) == (page, offset)


@given(address=addresses)
def test_join_of_split_recovers_block_address(address):
    """split∘join is identity at block granularity for any 64-bit address."""
    page, offset = split_address(address)
    block_aligned = address >> BLOCK_BITS << BLOCK_BITS
    assert join_address(page, offset) == block_aligned


@given(address=addresses)
def test_split_parts_are_in_range(address):
    page, offset = split_address(address)
    assert page >= 0
    assert 0 <= offset < NUM_OFFSETS


@given(address=addresses, pc=st.integers(min_value=0, max_value=2**64 - 1))
def test_memory_access_block_consistent_with_split(address, pc):
    access = MemoryAccess.from_pc_address(pc, address)
    assert access.block == access.page * NUM_OFFSETS + access.offset
    assert access.block == address >> BLOCK_BITS


# ----------------------------------------------------------------------
# vocab round-tripping
# ----------------------------------------------------------------------
key_lists = st.lists(st.integers(min_value=0, max_value=2**52), max_size=64)


@given(keys=key_lists, cap=st.integers(min_value=1, max_value=32))
def test_vocab_decode_inverts_encode_for_known_keys(keys, cap):
    vocab = Vocab(cap).fit(keys)
    for key in set(keys):
        idx = vocab.encode(key)
        if idx != OOV_ID:
            assert vocab.decode(idx) == key
        else:
            # only overflow beyond cap may land on OOV
            assert len(set(keys)) > cap


@given(keys=key_lists, cap=st.integers(min_value=1, max_value=32))
def test_vocab_ids_are_dense_and_bounded(keys, cap):
    vocab = Vocab(cap).fit(keys)
    ids = {vocab.encode(k) for k in set(keys)} - {OOV_ID}
    assert ids == set(range(1, len(ids) + 1))
    assert vocab.size <= cap + 1


@settings(max_examples=50)
@given(keys=key_lists, cap=st.integers(min_value=1, max_value=32))
def test_vocab_json_round_trip_preserves_encoding(keys, cap):
    vocab = Vocab(cap).fit(keys)
    clone = Vocab.from_dict(json.loads(json.dumps(vocab.to_dict())))
    assert clone.size == vocab.size
    for key in set(keys) | {999_999_999_999}:
        assert clone.encode(key) == vocab.encode(key)
