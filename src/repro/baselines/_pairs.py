"""Evaluation of candidate boundary pairs, routed through the kernels.

ARLM and the blocking technique both reduce to: given a set of candidate
start positions and a set of candidate end positions, find the pair with
the maximum X².  Since the kernels subsystem took over every numeric hot
loop, this module is a thin front onto the backends'
``best_over_pairs`` kernel (see :mod:`repro.kernels`): the ``"numpy"``
backend -- which the default ``"native"`` backend delegates this kernel
to -- keeps the O(m²) pair evaluation at C speed (the reference
baselines would otherwise be unusable at the paper's string sizes), the
``"python"`` backend is the interpreted reference, and the two agree
bit for bit (``tests/kernels``).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend

__all__ = ["best_over_pairs"]


def best_over_pairs(
    counts_matrix: np.ndarray,
    inv_p: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    *,
    backend=None,
) -> tuple[float, tuple[int, int], int]:
    """Maximum X² over all candidate pairs ``(s, e)`` with ``s < e``.

    Parameters
    ----------
    counts_matrix:
        ``(k, n + 1)`` prefix count matrix
        (:meth:`repro.core.counts.PrefixCountIndex.counts_matrix`).
    inv_p:
        ``(k,)`` vector of ``1 / p_j``.
    starts, ends:
        Candidate position arrays (values in ``0..n``; deduplicated and
        sorted by the kernel).
    backend:
        Kernel backend name or instance (default: ``REPRO_BACKEND`` or
        ``"native"``); all backends return identical results.

    Returns
    -------
    ``(best_x2, (start, end), pairs_evaluated)``; ``best_x2`` is ``-inf``
    when no valid pair exists.
    """
    return get_backend(backend).best_over_pairs(
        counts_matrix, inv_p, starts, ends
    )
