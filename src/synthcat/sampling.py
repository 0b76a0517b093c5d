"""Uniform-to-categorical sampling by direct inverse-CDF lookup.

A categorical draw with probabilities (pi_1, ..., pi_M) is realised from a
uniform u by taking the first level whose cumulative probability exceeds u:
the band edges are the interior cumulative sums, and u falls in exactly one
band.

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
    """Interior band edges, the cumulative sums, for a categorical distribution.

    For M levels there are M - 1 interior edges; a zero-probability level
    yields a zero-width band that searchsorted's right-side convention can
    never select.
    """
    cum = np.cumsum(np.asarray(probs, dtype=float))[:-1]
    # cumsum can drift a hair above 1; clipping keeps every edge a probability.
    return np.clip(cum, 0.0, 1.0)


def band_indices(edges: np.ndarray, uniforms) -> np.ndarray:
    """Map uniforms to 0-based level indices: the first band above each."""
    return np.searchsorted(edges, uniforms, side="right")


def column_uniforms(seed: int, variable: int, subjects: int) -> np.ndarray:
    """The uniform draws for one whole column, subjects 0..n-1 in order."""
    gen = Generator(Philox(key=[seed, variable]))
    return gen.random(subjects)


def shuffle_order(seed: int, subjects: int) -> np.ndarray:
    """Permutation of 0..n-1 from the dedicated shuffle stream."""
    gen = Generator(Philox(key=[seed, SHUFFLE_STREAM]))
    return gen.permutation(subjects)
