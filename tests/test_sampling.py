"""Sampling layer: stream addressing, band edges, word thresholds, draw distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats

from helpers import column_uniforms
from synthcat.sampling import band_edges, band_indices, column_words, shuffle_order, word_thresholds

# Philox-4x64 emits 4 doubles per 128-bit counter block; Generator.advance
# counts blocks, so cell i sits at block i // 4, draw i % 4 within it.
_DRAWS_PER_BLOCK = 4


def cell_uniform(seed: int, variable: int, subject: int) -> float:
    """The single uniform for one (subject, variable) cell.

    Addresses the same value column_uniforms yields at position ``subject``,
    without generating the prefix.
    """
    bit_gen = Philox(key=[seed, variable])
    bit_gen.advance(subject // _DRAWS_PER_BLOCK)
    draws = Generator(bit_gen).random(subject % _DRAWS_PER_BLOCK + 1)
    return float(draws[-1])


def draw_categorical(probs, uniforms) -> np.ndarray:
    """Vectorised categorical draws (0-based level indices) from uniforms."""
    return band_indices(band_edges(probs), np.atleast_1d(uniforms))


class TestStreams:
    def test_column_stream_is_keyed_by_seed_and_variable(self):
        a = column_uniforms(7, 3, 100)
        b = column_uniforms(7, 3, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, column_uniforms(7, 4, 100))
        assert not np.array_equal(a, column_uniforms(8, 3, 100))

    def test_prefix_consistency(self):
        # A shorter draw is a prefix of a longer one from the same stream.
        long = column_uniforms(11, 0, 500)
        short = column_uniforms(11, 0, 123)
        assert np.array_equal(long[:123], short)

    def test_cell_addressing_matches_column_order(self):
        column = column_uniforms(42, 5, 30)
        for subject in range(30):
            assert cell_uniform(42, 5, subject) == column[subject]

    def test_philox_advance_counts_blocks_of_four_draws(self):
        # Documents the addressing assumption cell_uniform relies on.
        bit_gen = Philox(key=[9, 2])
        bit_gen.advance(1)
        skipped = Generator(bit_gen).random(4)
        full = column_uniforms(9, 2, 8)
        assert np.array_equal(skipped, full[4:8])

    @pytest.mark.parametrize("seed, variable", [(0, 0), (7, 3), (2024, 199), (2**64 - 1, 2**60)])
    def test_raw_words_reproduce_the_uniforms(self, seed, variable):
        # Generator.random makes each double of one raw word, (w >> 11) * 2**-53.
        words = column_words(seed, variable, 1001)
        uniforms = (words >> np.uint64(11)).astype(float) * 2.0**-53
        assert uniforms.tobytes() == column_uniforms(seed, variable, 1001).tobytes()

    def test_shuffle_stream_is_a_permutation_and_seed_stable(self):
        order = shuffle_order(3, 50)
        assert sorted(order) == list(range(50))
        assert np.array_equal(order, shuffle_order(3, 50))
        assert not np.array_equal(order, shuffle_order(4, 50))


class TestBands:
    def test_edges_are_quantiles_of_the_cumulative_sums(self):
        # The uniform quantile function is the identity, so the edges are
        # the cumulative sums themselves.
        probs = (0.2, 0.5, 0.3)
        assert np.array_equal(band_edges(probs), np.cumsum(probs)[:-1])

    def test_zero_probability_levels_are_never_drawn(self):
        uniforms = np.linspace(0.0, 1.0 - 1e-12, 1001)
        draws = draw_categorical((0.5, 0.0, 0.5), uniforms)
        assert set(np.unique(draws)) <= {0, 2}
        draws = draw_categorical((0.0, 1.0), uniforms)
        assert set(np.unique(draws)) == {1}
        draws = draw_categorical((1.0, 0.0), uniforms)
        assert set(np.unique(draws)) == {0}

    def test_uniform_zero_lands_in_the_first_positive_band(self):
        assert draw_categorical((0.3, 0.7), np.array([0.0]))[0] == 0
        assert draw_categorical((0.0, 0.3, 0.7), np.array([0.0]))[0] == 1

    def test_band_widths_reproduce_the_probabilities(self):
        # Large-sample goodness of fit against the declared distribution.
        probs = np.array([0.1, 0.25, 0.35, 0.3])
        uniforms = column_uniforms(2024, 0, 1_000_000)
        draws = draw_categorical(probs, uniforms)
        observed = np.bincount(draws, minlength=4)
        expected = probs * len(uniforms)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = stats.chi2.sf(chi2, df=3)
        assert p_value > 0.001

    def test_indices_respect_right_closed_bands(self):
        edges = np.array([0.25, 0.75])
        assert list(band_indices(edges, np.array([0.0, 0.25, 0.5, 0.75, 0.9]))) == [0, 1, 1, 2, 2]


def threshold_of(edge: float) -> int:
    """ceil(edge * 2**53) << 11 in Python integers, 2**64 at an edge of 1.0."""
    return math.ceil(edge * 2.0**53) << 11


@st.composite
def edges(draw):
    """Edges at 0, the smallest subnormal, 1.0, k * 2**-53 and its neighbours, or anywhere."""
    k = draw(st.integers(0, 2**53))
    base = k * 2.0**-53
    near = [0.0, 5e-324, 1.0, base, np.nextafter(base, 0.0), min(np.nextafter(base, 2.0), 1.0)]
    return float(draw(st.sampled_from(near) | st.floats(0.0, 1.0)))


@st.composite
def edges_and_words(draw):
    """Sorted edges, and words at and around their thresholds, at both ends, or anywhere."""
    drawn = sorted(draw(st.lists(edges(), min_size=1, max_size=4)))
    near = [t + d for t in map(threshold_of, drawn) for d in (-1, 0, 1)] + [0, 2**64 - 1]
    word = st.sampled_from([w for w in near if 0 <= w < 2**64]) | st.integers(0, 2**64 - 1)
    return np.array(drawn), np.array(draw(st.lists(word, min_size=1, max_size=20)), np.uint64)


@settings(max_examples=500, deadline=None)
@given(edges_and_words())
def test_word_thresholds_count_the_edges_each_uniform_reaches(data):
    """w >= T(edge) exactly when (w >> 11) * 2**-53 >= edge; an edge of 1.0 has no T."""
    drawn, words = data
    thresholds = word_thresholds(drawn)
    assert thresholds.dtype == np.uint64
    assert thresholds.tolist() == [threshold_of(e) for e in drawn if e < 1.0]
    uniforms = (words >> np.uint64(11)).astype(float) * 2.0**-53
    reached = (uniforms[:, None] >= drawn).sum(axis=1)
    assert ((words[:, None] >= thresholds).sum(axis=1) == reached).all()
