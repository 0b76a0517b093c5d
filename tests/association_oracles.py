"""Reference arithmetic for the association measures, written per table.

The library computes chi-square, Cramer's V and the concentration
coefficient only in batched kernels over stacks of tables; these direct
transcriptions of the definitions are what the kernels are tested against.
(The tau_c oracle, ``tau_c_pair_scan``, is still in ``synthcat.association``.)
``pair_positions`` looks codes up among declared levels one column at a
time, the reference for ``association._level_positions``.
"""

import math

import numpy as np

from synthcat.association import ContingencyTable
from synthcat.model import SpecError


def pair_positions(codes, variables) -> np.ndarray:
    """Each code's position among its column's declared levels, one column at a time.

    A ``searchsorted`` and an equality check per column; the first column
    holding a code that is not one of its declared levels raises SpecError.
    Positions are the narrowest unsigned type that holds every level count.
    """
    codes = np.asarray(codes)
    positions = np.empty(codes.shape, np.min_scalar_type(max(v.size for v in variables) - 1))
    for p, variable in enumerate(variables):
        levels = np.asarray(variable.levels)
        index = np.searchsorted(levels, codes[:, p])
        if not (levels[np.minimum(index, len(levels) - 1)] == codes[:, p]).all():
            raise SpecError(
                f"association: column {variable.name!r} has values outside its declared levels"
            )
        positions[:, p] = index
    return positions


def _dropped(table: ContingencyTable) -> np.ndarray:
    """Counts with zero-margin rows and columns removed."""
    counts = table.counts
    if counts.sum() == 0:
        raise SpecError("association: all-zero contingency table")
    counts = counts[counts.sum(axis=1) > 0]
    return counts[:, counts.sum(axis=0) > 0]


def chi_square(table: ContingencyTable) -> float:
    """Pearson chi-square statistic, zero-margin rows/columns dropped."""
    counts = _dropped(table).astype(float)
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    return float(((counts - expected) ** 2 / expected).sum())


def cramers_v(table: ContingencyTable, variant: str = "paper") -> float:
    """chi2 / (n min(R, S)) ('paper') or sqrt(chi2 / (n (min(R, S) - 1))) ('standard')."""
    if variant not in ("paper", "standard"):
        raise SpecError(f"cramers_v: unknown variant {variant!r}")
    counts = _dropped(table)
    n = counts.sum()
    smaller = min(counts.shape)
    chi2 = chi_square(table)
    if variant == "paper":
        return float(chi2 / (n * smaller))
    if smaller == 1:
        return math.nan
    return float(math.sqrt(chi2 / (n * (smaller - 1))))


def concentration_coefficient(table: ContingencyTable) -> float:
    """[sum_ij pi_ij^2 / pi_i+ - sum_j pi_+j^2] / [1 - sum_j pi_+j^2], rows predicting."""
    counts = table.counts
    n = int(counts.sum())
    if n == 0:
        raise SpecError("association: all-zero contingency table")
    # Multiply numerator and denominator by n^2 to clear the probabilities:
    # [n sum_ij c_ij^2 / r_i - sum_j s_j^2] / [n^2 - sum_j s_j^2].  Integer
    # sums with one rounded division per row keep small tables exact.
    baseline = sum(int(s) ** 2 for s in counts.sum(axis=0))
    denominator = n * n - baseline
    if denominator <= 0:
        return math.nan
    conditional = 0.0
    for r_i, row in zip(counts.sum(axis=1), counts):
        if r_i == 0:
            continue
        conditional += n * sum(int(c) ** 2 for c in row) / int(r_i)
    return float((conditional - baseline) / denominator)
