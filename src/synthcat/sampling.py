"""Uniform-to-categorical sampling by direct inverse-CDF lookup.

A categorical draw with probabilities (pi_1, ..., pi_M) is realised from a
uniform u by taking the first level whose cumulative probability exceeds u:
the band edges are the interior cumulative sums, and u falls in exactly one
band.  That level's 0-based position is the number of edges at or below u,
a compare-and-count (``band_indices``) of the raw 64-bit words w, of which
``Generator.random`` makes u = (w >> 11) * 2**-53, against integer
thresholds that w reaches exactly when u reaches the edge
(``word_thresholds``): the levels are those of u, resting on the raw-word
stream that NEP 19 keeps stable.

Randomness is counter-based: every (variable, subject) cell has a fixed
address in a Philox-4x64 stream keyed by (seed, variable index).  Column
j's draws are independent of every other column's and of the order in which
columns are generated, so multithreaded generation is bit-identical to
sequential generation and any single cell can be re-derived in isolation.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# Key component for the subject shuffle stream.  Anything >= 2**48 keeps it
# clear of plausible column indices under the (seed, column) keying.
SHUFFLE_STREAM = 2**60


def band_edges(probs) -> np.ndarray:
    """Interior band edges, the cumulative sums, along the last axis of ``probs``.

    For M levels there are M - 1 interior edges; a zero-probability level
    yields a zero-width band that no uniform can fall in.  The cumulative
    sum is sequential, so each row of a stacked C x P x M table gets the
    same bits as its own 1-D sum.
    """
    cum = np.cumsum(np.asarray(probs, dtype=float), axis=-1)[..., :-1]
    # cumsum can drift a hair above 1; clipping keeps every edge a probability.
    return np.clip(cum, 0.0, 1.0)


def band_indices(edges: np.ndarray, values) -> np.ndarray:
    """Map values to 0-based level indices: the count of edges at or below each.

    For non-decreasing edges this is ``searchsorted(edges, values,
    side="right")`` bit for bit, as the narrowest unsigned integer that
    holds ``len(edges)``.  It costs a compare, an add and two numpy calls
    per edge, so it beats a binary search on long arrays of few levels only.
    """
    values = np.asarray(values)
    counts = np.zeros(values.shape, dtype=np.min_scalar_type(len(edges)))
    for edge in edges:
        # Viewed as bytes, the flags add into a uint8 count with no cast.
        counts += (values >= edge).view(np.uint8)
    return counts


def word_thresholds(edges) -> np.ndarray:
    """The uint64 threshold T = ceil(edge * 2**53) << 11 of each edge below 1.0.

    For a word w and k = w >> 11, u = k * 2**-53 >= edge holds exactly when
    k >= edge * 2**53 (both sides scale by a power of 2 without rounding),
    so when k >= ceil(edge * 2**53), so when w >= T.  No u reaches an edge
    of 1.0, and its T would be 2**64, so it has no threshold.
    """
    return np.ceil(edges[edges < 1.0] * 2.0**53).astype(np.uint64) << np.uint64(11)


def column_words(seed: int, variable: int, subjects: int) -> np.ndarray:
    """The raw 64-bit words for one whole column, subjects 0..n-1 in order."""
    return Philox(key=np.array([seed, variable], dtype=np.uint64)).random_raw(subjects)


def shuffle_order(seed: int, subjects: int) -> np.ndarray:
    """Permutation of 0..n-1 from the dedicated shuffle stream."""
    gen = Generator(Philox(key=np.array([seed, SHUFFLE_STREAM], dtype=np.uint64)))
    return gen.permutation(subjects)
