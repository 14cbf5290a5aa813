"""Tests for the multi-label (spatial + co-occurrence) labeling scheme."""

import numpy as np
import pytest

from voyager.labeling import (
    LabelConfig,
    label_arrays,
    label_weights,
    make_labels,
)
from voyager.traces import NUM_OFFSETS, MemoryAccess, join_address


def _trace_from_pairs(pairs):
    return [
        MemoryAccess.from_pc_address(0x100, join_address(p, o))
        for p, o in pairs
    ]


def test_true_next_access_is_first_label():
    trace = _trace_from_pairs([(1, 10), (2, 20), (3, 30)])
    labels = make_labels(trace, 0, LabelConfig(window=0, spatial_radius=0))
    assert labels == [(2, 20)]


def test_spatial_neighbors_included():
    trace = _trace_from_pairs([(1, 10), (2, 20), (3, 30)])
    labels = make_labels(trace, 0, LabelConfig(window=0, spatial_radius=2))
    assert labels[0] == (2, 20)
    assert set(labels) == {(2, 18), (2, 19), (2, 20), (2, 21), (2, 22)}


def test_spatial_neighbors_clipped_at_page_edges():
    low = _trace_from_pairs([(1, 5), (2, 0)])
    labels = make_labels(low, 0, LabelConfig(window=0, spatial_radius=1))
    assert (2, -1) not in labels and (2, 1) in labels

    high = _trace_from_pairs([(1, 5), (2, NUM_OFFSETS - 1)])
    labels = make_labels(high, 0, LabelConfig(window=0, spatial_radius=1))
    assert all(o < NUM_OFFSETS for _, o in labels)


def test_cooccurrence_window_included():
    trace = _trace_from_pairs([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
    labels = make_labels(trace, 0, LabelConfig(window=2, spatial_radius=0))
    assert labels == [(2, 2), (3, 3), (4, 4)]


def test_labels_deduplicated():
    trace = _trace_from_pairs([(1, 1), (2, 2), (2, 2), (2, 3)])
    labels = make_labels(trace, 0, LabelConfig(window=3, spatial_radius=1))
    assert len(labels) == len(set(labels))


def test_no_successor_raises():
    trace = _trace_from_pairs([(1, 1), (2, 2)])
    with pytest.raises(IndexError):
        make_labels(trace, 1)


class TestDistributions:
    """label_weights: each row's target mass over its valid labels."""

    def test_primary_label_gets_primary_weight(self):
        valid = np.array([[True, True, True, False]])
        weights = label_weights(valid, primary_weight=0.5)
        np.testing.assert_array_equal(weights, [[0.5, 0.25, 0.25, 0.0]])

    def test_singleton_set_gets_full_mass(self):
        valid = np.array([[True, False, False], [True, True, False]])
        weights = label_weights(valid, primary_weight=0.3)
        np.testing.assert_array_equal(weights[0], [1.0, 0.0, 0.0])
        assert weights[1, 0] == pytest.approx(0.3)

    def test_bad_primary_weight_rejected(self):
        for weight in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="primary_weight"):
                label_weights(np.ones((1, 2), dtype=bool), weight)


# ----------------------------------------------------------------------
# scalar vs. vectorized label construction
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402



@settings(max_examples=75)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # tiny page space
            st.one_of(  # offsets biased to page edges
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=NUM_OFFSETS - 3, max_value=NUM_OFFSETS - 1),
            ),
        ),
        min_size=2,
        max_size=12,
    ),
    radius=st.integers(min_value=0, max_value=2),
    window=st.integers(min_value=0, max_value=3),
)
def test_vectorized_labels_bit_identical_to_scalar(pairs, radius, window):
    """label_arrays recovers make_labels' label sets exactly.

    Reading each row's valid entries left to right gives the scalar
    label list, in order — including the dedup of co-occurrence labels
    against earlier ones and the clipping of spatial labels at page
    edges (the tiny page space and edge-biased offsets force both).
    """
    trace = _trace_from_pairs(pairs)
    config = LabelConfig(spatial_radius=radius, window=window)
    positions = np.arange(len(trace) - 1)
    sets = [make_labels(trace, int(i), config) for i in positions]
    arrays = label_arrays(trace, positions, config)
    pages = np.array([a.page for a in trace])
    for row, pos in enumerate(positions):
        got = [
            (int(pages[arrays.src[row, c]]), int(arrays.offsets[row, c]))
            for c in range(arrays.valid.shape[1])
            if arrays.valid[row, c]
        ]
        assert got == sets[row]


@settings(max_examples=30)
@given(
    valid_rows=st.lists(
        st.lists(st.booleans(), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ),
    primary_weight=st.floats(min_value=0.1, max_value=1.0),
)
def test_label_weights_rows_sum_to_one(valid_rows, primary_weight):
    width = max(len(r) for r in valid_rows)
    valid = np.zeros((len(valid_rows), width), dtype=bool)
    for i, row in enumerate(valid_rows):
        valid[i, : len(row)] = row
    valid[:, 0] = True  # the primary label is always valid
    weights = label_weights(valid, primary_weight)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0)
    assert np.all(weights[~valid] == 0.0)
