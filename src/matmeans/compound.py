"""Antisymmetric tensor powers (compound matrices).

The k-th compound of an n x n matrix collects all k x k minors over
lexicographically ordered row and column subsets; its eigenvalues are the
k-fold products of the eigenvalues of the original matrix.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .densela import as_square_matrix

__all__ = ["compound_matrix"]

# Doubles in the block array of one chunk (8 MB).
_CHUNK_ENTRIES = 1 << 20


def compound_matrix(x, k: int) -> np.ndarray:
    """k-th compound: entry (I, J) is the minor det(x[I, J]).

    I and J run over the k-element subsets of {0..n-1} in lexicographic
    order.  Minors are evaluated by LU with partial pivoting, batched over
    chunks of rows of the compound so that the k x k blocks gathered at a
    time stay within ``_CHUNK_ENTRIES`` doubles; each minor is its own LU,
    so the chunking does not change a bit.  k = 1 returns a copy of the
    input.
    """
    a = as_square_matrix(x)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"compound order must satisfy 1 <= k <= {n}, got {k}")
    if k == 1:
        return a.copy()
    rows = np.array(list(combinations(range(n), k)))
    size = rows.shape[0]
    step = max(1, _CHUNK_ENTRIES // (size * k * k))
    out = np.empty((size, size))
    for i in range(0, size, step):
        chunk = rows[i:i + step]
        out[i:i + step] = np.linalg.det(a[chunk[:, None, :, None], rows[None, :, None, :]])
    return out
