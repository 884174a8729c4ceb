"""Unit tests for repro.core.counts.PrefixCountIndex."""

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.counts import PrefixCountIndex


class TestConstruction:
    def test_empty_string_allowed(self):
        index = PrefixCountIndex([], 2)
        assert index.n == 0
        assert index.counts(0, 0) == (0, 0)

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            PrefixCountIndex([0, 0], 1)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PrefixCountIndex([0, 2], 2)
        with pytest.raises(ValueError, match="outside"):
            PrefixCountIndex([-1], 2)

    def test_len(self):
        assert len(PrefixCountIndex([0, 1, 1], 2)) == 3

    def test_repr(self):
        assert "n=3" in repr(PrefixCountIndex([0, 1, 1], 2))


class TestQueries:
    def test_whole_string(self):
        index = PrefixCountIndex([0, 1, 0, 2, 1], 3)
        assert index.counts(0, 5) == (2, 2, 1)

    def test_single_positions(self):
        index = PrefixCountIndex([0, 1, 0], 2)
        for i, code in enumerate([0, 1, 0]):
            expected = tuple(1 if j == code else 0 for j in range(2))
            assert index.counts(i, i + 1) == expected

    def test_count_single_char(self):
        index = PrefixCountIndex([0, 1, 1, 0], 2)
        assert index.count(1, 1, 3) == 2
        assert index.count(0, 1, 3) == 0

    def test_count_invalid_char(self):
        index = PrefixCountIndex([0, 1], 2)
        with pytest.raises(ValueError, match="char"):
            index.count(2, 0, 1)

    def test_invalid_ranges(self):
        index = PrefixCountIndex([0, 1, 0], 2)
        with pytest.raises(IndexError):
            index.counts(-1, 2)
        with pytest.raises(IndexError):
            index.counts(2, 1)
        with pytest.raises(IndexError):
            index.counts(0, 4)

    def test_counts_matrix_matches_lists(self):
        index = PrefixCountIndex([0, 2, 1, 1, 0], 3)
        matrix = index.counts_matrix()
        assert matrix.shape == (3, 6)
        assert matrix.tolist() == index.prefix_lists

    def test_counts_matrix_dtype(self):
        assert PrefixCountIndex([0, 1], 2).counts_matrix().dtype == np.int64

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=50),
        st.data(),
    )
    def test_matches_naive_counting(self, codes, data):
        index = PrefixCountIndex(codes, 4)
        start = data.draw(st.integers(0, len(codes)))
        end = data.draw(st.integers(start, len(codes)))
        naive = Counter(codes[start:end])
        assert index.counts(start, end) == tuple(naive.get(j, 0) for j in range(4))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_prefix_sums_are_monotone(self, codes):
        index = PrefixCountIndex(codes, 3)
        for row in index.prefix_lists:
            assert all(b - a in (0, 1) for a, b in zip(row, row[1:]))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_rows_sum_to_positions(self, codes):
        index = PrefixCountIndex(codes, 3)
        for position in range(len(codes) + 1):
            total = sum(row[position] for row in index.prefix_lists)
            assert total == position


class TestNumpyCodes:
    """The index accepts numpy code arrays directly (no .tolist() round-trip)."""

    def test_numpy_input_matches_list_input(self):
        codes = [0, 1, 2, 1, 0, 2, 2]
        from_list = PrefixCountIndex(codes, 3)
        from_array = PrefixCountIndex(np.asarray(codes, dtype=np.int64), 3)
        assert from_array.prefix_lists == from_list.prefix_lists
        assert from_array.counts(1, 6) == from_list.counts(1, 6)
        assert from_array.codes == from_list.codes == codes

    def test_encode_output_accepted_directly(self):
        from repro.core.model import BernoulliModel

        model = BernoulliModel.uniform("abc")
        codes = model.encode("abcabcba")
        index = PrefixCountIndex(codes, 3)
        assert index.counts(0, 8) == (3, 3, 2)

    def test_out_of_range_numpy_code_rejected_with_position(self):
        with pytest.raises(ValueError, match="code 5 at position 2"):
            PrefixCountIndex(np.array([0, 1, 5, 1]), 3)

    def test_counts_matrix_is_cached(self):
        index = PrefixCountIndex([0, 1, 1, 0], 2)
        assert index.counts_matrix() is index.counts_matrix()

    def test_prefix_lists_are_cached_python_ints(self):
        index = PrefixCountIndex(np.array([0, 1, 1]), 2)
        lists = index.prefix_lists
        assert lists is index.prefix_lists
        assert all(type(v) is int for row in lists for v in row)

    def test_counts_returns_python_ints(self):
        index = PrefixCountIndex(np.array([0, 1, 1]), 2)
        assert all(type(v) is int for v in index.counts(0, 3))

    def test_codes_array_roundtrip(self):
        index = PrefixCountIndex([1, 0, 1], 2)
        assert index.codes_array.tolist() == [1, 0, 1]

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            PrefixCountIndex(np.zeros((2, 2), dtype=np.int64), 2)

    def test_input_array_is_copied(self):
        arr = np.array([0, 1, 1, 0], dtype=np.int64)
        index = PrefixCountIndex(arr, 2)
        arr[0] = 1  # caller mutates its own buffer afterwards
        assert index.codes == [0, 1, 1, 0]
        assert index.counts(0, 4) == (2, 2)


class TestLazyMatrix:
    """The matrix is built on first use; nothing reads differently."""

    @given(
        st.integers(2, 6).flatmap(
            lambda k: st.tuples(
                st.just(k), st.lists(st.integers(0, k - 1), max_size=60)
            )
        ),
        st.data(),
    )
    def test_counts_before_and_after_the_build_agree(self, drawn, data):
        k, codes = drawn
        n = len(codes)
        slices = data.draw(st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted),
            min_size=1, max_size=8,
        ))
        slices.append((n, n))  # the empty slice, at the very end
        index = PrefixCountIndex(codes, k)
        before = [index.counts(start, end) for start, end in slices]
        index.counts_matrix()
        after = [index.counts(start, end) for start, end in slices]
        assert before == after
        assert all(type(v) is int for counts in before for v in counts)
        assert before[-1] == (0,) * k

    def test_threads_building_one_matrix_get_equal_matrices(self):
        rng = np.random.default_rng(7)
        index = PrefixCountIndex(rng.integers(0, 4, size=50_000), 4)
        barrier = threading.Barrier(4)
        built = [None] * 4

        def build(slot):
            barrier.wait(timeout=30)
            built[slot] = index.counts_matrix()

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = PrefixCountIndex(index.codes_array, 4).counts_matrix()
        for matrix in built:
            np.testing.assert_array_equal(matrix, expected)
        np.testing.assert_array_equal(index.counts_matrix(), expected)
