"""Prefix count arrays: O(1) character counts of any substring.

Section 2 of the paper points out that the X² of a substring needs only
its character counts, which "can be easily computed in O(1) time by
maintaining k count arrays, one for each character of the alphabet, where
the i-th element of the array stores the number of occurrences of the
character till the i-th position".  :class:`PrefixCountIndex` is exactly
that data structure, preprocessed in O(k n) -- vectorised through numpy
(one boolean ``cumsum`` per character), so indexing a megabyte-scale
string costs milliseconds, not seconds.

The index holds the validated codes from the start and builds its
matrix lazily, on the first read of either access path:

* a numpy matrix (:meth:`PrefixCountIndex.counts_matrix`) -- the
  canonical storage, shared by the vectorised kernels, baselines and
  profile computations (built once, returned by reference);
* plain Python lists (:attr:`PrefixCountIndex.prefix_lists`) -- fastest
  for the scalar inner loops of the scanners; materialised from the
  matrix on first access and cached.

The native lanes read only :attr:`PrefixCountIndex.codes_array` and
build each document's matrix in C on the thread that mines it, so a
corpus mined there never builds one in Python.

Codes may be given as any integer sequence, including the numpy array
:meth:`repro.core.model.BernoulliModel.encode` produces -- no
``.tolist()`` round-trip is needed (or wanted: the round-trip used to
cost more than the index build itself).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["PrefixCountIndex"]


class PrefixCountIndex:
    """Per-character cumulative counts of an encoded string.

    Parameters
    ----------
    codes:
        The encoded string: integer codes in ``range(k)``.  Accepts any
        integer sequence -- a plain list or the numpy array returned by
        :meth:`~repro.core.model.BernoulliModel.encode`.
    k:
        Alphabet size.

    Construction validates and copies the codes; the ``(k, n + 1)``
    prefix matrix is built on the first :meth:`counts_matrix`,
    :attr:`prefix_lists` or :meth:`count`.  Until then :meth:`counts`
    counts the codes of the slice directly, with the same result.

    Examples
    --------
    >>> index = PrefixCountIndex([0, 1, 0, 2], 3)
    >>> index.counts(0, 4)      # whole string
    (2, 1, 1)
    >>> index.counts(1, 3)      # codes[1:3] == [1, 0]
    (1, 1, 0)
    >>> index.count(0, 0, 3)
    2
    >>> PrefixCountIndex(np.array([0, 1]), 2).counts(0, 2)
    (1, 1)
    """

    __slots__ = ("_matrix", "_n", "_k", "_codes", "_prefix_lists", "_codes_list")

    def __init__(self, codes: Sequence[int] | np.ndarray, k: int) -> None:
        if k < 2:
            raise ValueError(f"alphabet size must be >= 2, got {k!r}")
        # Always a copy, so a caller mutating its own array afterwards
        # cannot desynchronise `codes` from the prefix matrix.  The cast
        # keeps int(code) semantics: floats truncate toward zero, bools
        # map to 0/1; non-numeric dtypes fail here with numpy's error.
        arr = np.array(codes, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(
                f"codes must be a one-dimensional sequence, got shape {arr.shape}"
            )
        n = int(arr.shape[0])
        bad = (arr < 0) | (arr >= k)
        if bad.any():
            position = int(np.argmax(bad))
            raise ValueError(
                f"code {int(arr[position])!r} at position {position} is outside "
                f"range(0, {k})"
            )
        self._matrix: np.ndarray | None = None
        self._n = n
        self._k = k
        self._codes = arr
        self._prefix_lists: list[list[int]] | None = None
        self._codes_list: list[int] | None = None

    @property
    def n(self) -> int:
        """Length of the indexed string."""
        return self._n

    @property
    def k(self) -> int:
        """Alphabet size."""
        return self._k

    @property
    def codes(self) -> list[int]:
        """The underlying encoded string as plain ints (cached; treat as read-only)."""
        if self._codes_list is None:
            self._codes_list = self._codes.tolist()
        return self._codes_list

    @property
    def codes_array(self) -> np.ndarray:
        """The underlying encoded string as an ``int64`` array (read-only by convention)."""
        return self._codes

    @property
    def prefix_lists(self) -> list[list[int]]:
        """The raw per-character prefix arrays (read-only by convention).

        ``prefix_lists[j][i]`` is the number of occurrences of character
        ``j`` among the first ``i`` positions.  Exposed so the scalar
        scanners' hot loops can bind the lists locally; materialised
        from the numpy matrix on first access and cached.
        """
        if self._prefix_lists is None:
            self._prefix_lists = self.counts_matrix().tolist()
        return self._prefix_lists

    def count(self, char: int, start: int, end: int) -> int:
        """Occurrences of character ``char`` in ``codes[start:end]``."""
        self._check_range(start, end)
        if not 0 <= char < self._k:
            raise ValueError(f"char {char!r} outside range(0, {self._k})")
        row = self.counts_matrix()[char]
        return int(row[end]) - int(row[start])

    def counts(self, start: int, end: int) -> tuple[int, ...]:
        """Count vector of the substring ``codes[start:end]`` (half-open):
        two matrix columns once the matrix is built, else the slice's
        own codes counted (the same tuple of ints)."""
        self._check_range(start, end)
        matrix = self._matrix
        if matrix is None:
            counted = np.bincount(self._codes[start:end], minlength=self._k)
            return tuple(counted.tolist())
        return tuple((matrix[:, end] - matrix[:, start]).tolist())

    def counts_matrix(self) -> np.ndarray:
        """``(k, n + 1)`` numpy matrix of prefix counts.

        ``counts_matrix()[j, i]`` equals ``prefix_lists[j][i]``.  This is
        the index's canonical storage, built on the first call and
        returned by reference (not copied) so the vectorised kernels and
        baselines share one matrix -- treat it as read-only.  Threads
        that build it at once build equal matrices, and one is kept.
        """
        matrix = self._matrix
        if matrix is None:
            matrix = np.zeros((self._k, self._n + 1), dtype=np.int64)
            for j in range(self._k):
                np.cumsum(self._codes == j, out=matrix[j, 1:])
            self._matrix = matrix
        return matrix

    def _check_range(self, start: int, end: int) -> None:
        if not 0 <= start <= end <= self._n:
            raise IndexError(
                f"substring range [{start}, {end}) is invalid for a "
                f"string of length {self._n}"
            )

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"PrefixCountIndex(n={self._n}, k={self._k})"
