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


def compound_matrix(x, k: int) -> np.ndarray:
    """k-th compound: entry (I, J) is the minor det(x[I, J]).

    I and J run over the k-element subsets of {0..n-1} in lexicographic
    order.  Minors are evaluated by LU with partial pivoting (batched);
    k = 1 returns a copy of the input.
    """
    a = as_square_matrix(x)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"compound order must satisfy 1 <= k <= {n}, got {k}")
    if k == 1:
        return a.copy()
    rows = np.array(list(combinations(range(n), k)))
    blocks = a[rows[:, None, :, None], rows[None, :, None, :]]
    return np.linalg.det(blocks)
