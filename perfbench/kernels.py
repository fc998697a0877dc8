"""Computed operation and byte counts of one model evaluation.

These are counts from the array shapes, not measurements: the benchmark
measures no peak compute rate or memory bandwidth, so no roofline ratio is
given. Flops count multiply and add separately. Bytes count each float64
operand once per pass that reads it and each result once, which ignores cache
reuse and temporaries.

logistic and poisson, design matrix n x d:
  value  flop = 2nd + 4n             bytes = 8(nd + d + n)
  grad   flop = 4nd + 4n             bytes = 8(2nd + 2d + n)
gmm, k components of dimension m (d = km), precision matrices m x m:
  value  flop = k(2nm^2 + 3nm) + 3nk          bytes = 8(k nm + k m^2 + d + nk)
  grad   flop = k(4nm^2 + 6nm) + 6nk          bytes = 8(2k nm + 2k m^2 + 2d + 2nk)
The gmm counts are those of the matmul form of the quadratic form,
((X - mu) @ P * (X - mu)).sum(1); the three-operand einsum that evaluates it
today does more work than this count.
"""

from __future__ import annotations

import os


def shape_counts(kind: str, what: str, n: int, d: int, k: int = 1) -> tuple[int, int]:
    """(flop, bytes) of one ``what`` ("value" or "grad") evaluation."""
    if kind in ("logistic", "poisson"):
        if what == "value":
            return 2 * n * d + 4 * n, 8 * (n * d + d + n)
        return 4 * n * d + 4 * n, 8 * (2 * n * d + 2 * d + n)
    m = d // k
    if what == "value":
        return (k * (2 * n * m * m + 3 * n * m) + 3 * n * k,
                8 * (k * n * m + k * m * m + d + n * k))
    return (k * (4 * n * m * m + 6 * n * m) + 6 * n * k,
            8 * (2 * k * n * m + 2 * k * m * m + 2 * d + 2 * n * k))


def counts(model, what: str) -> tuple[int, int]:
    """(flop, bytes) of one evaluation for a model instance."""
    return shape_counts(model.kind, what, model.n, model.d, getattr(model.data, "k", 1))


def file_mb(path: str) -> float:
    """Size of a chain file plus its sidecar, in MB (10^6 bytes)."""
    size = os.path.getsize(path)
    meta = path + ".meta.json"
    if os.path.exists(meta):
        size += os.path.getsize(meta)
    return size / 1e6
