"""Balanced-design closed forms, kept as oracles for the general code.

In the balanced design a column's high and low profiles each hold on half
the total cluster weight, and the dependence of two pattern-identical
columns has a closed form per family.  The library computes the general
weighted case; these formulas reproduce the balanced special case by an
independent route, and ``balanced_low_parameter`` runs the library's
calibrator in that case so tests can compare the two.
"""

import warnings
from itertools import combinations

import numpy as np

from synthcat.calibration import calibrate_group
from synthcat.model import DependenceTarget, GroupStructure, SpecError


def balanced_low_parameter(family: str, high_param: float, kind: str, value: float) -> float:
    """The library's solution for one target with w_H = w_L = 1/2."""
    structure = GroupStructure(sizes=(2,), targets=(DependenceTarget(kind, value),))
    result = calibrate_group(structure, family, (0.5,), high_prob=high_param)
    return result.groups[0].low_parameter


def hardy_weinberg_probs(allele_prob: float) -> tuple[float, float, float]:
    """Genotype distribution (p^2, 2p(1-p), (1-p)^2) over counts (0, 1, 2).

    The level codes count the minor allele, so the mean is 2 - 2p.  At the
    boundaries p = 0 or 1 the distribution is degenerate; allowed, but
    flagged because a degenerate column carries no signal.
    """
    p = allele_prob
    if not 0.0 <= p <= 1.0:
        raise SpecError(f"allele probability must lie in [0, 1], got {p!r}")
    if p in (0.0, 1.0):
        warnings.warn(f"allele probability {p} gives a degenerate genotype column")
    return (p * p, 2.0 * p * (1.0 - p), (1.0 - p) * (1.0 - p))


def hardy_weinberg_moments(allele_prob: float) -> tuple[float, float]:
    """Mean and variance of the genotype count, 2 - 2p and 2p(1 - p)."""
    p = allele_prob
    return (2.0 - 2.0 * p, 2.0 * p * (1.0 - p))


def binary_mixture_variance(high_mean: float, low_mean: float) -> float:
    """Variance of an equal-weight mix of Bernoulli(f_H) and Bernoulli(f_L)."""
    m = 0.5 * (high_mean + low_mean)
    return m * (1.0 - m)


def snp_mixture_variance(high_allele: float, low_allele: float) -> float:
    """Variance of an equal-weight mix of two genotype-count distributions.

    E[x^2] under Hardy-Weinberg(p) is 2(1 - p)(2 - p) and the mixture mean
    is 2 - pH - pL, so

        V = (1-pH)(2-pH) + (1-pL)(2-pL) - (2 - pH - pL)^2.
    """
    ph, pl = high_allele, low_allele
    second = (1.0 - ph) * (2.0 - ph) + (1.0 - pl) * (2.0 - pl)
    mean = 2.0 - ph - pl
    return second - mean * mean


def binary_pair_dependence(high_mean: float, low_mean: float) -> tuple[float, float]:
    """(covariance, correlation) of two pattern-identical binary columns."""
    cov = 0.25 * (high_mean - low_mean) ** 2
    return cov, cov / binary_mixture_variance(high_mean, low_mean)


def snp_pair_dependence(high_allele: float, low_allele: float) -> tuple[float, float]:
    """(covariance, correlation) of two pattern-identical genotype columns."""
    cov = (high_allele - low_allele) ** 2
    return cov, cov / snp_mixture_variance(high_allele, low_allele)


def cluster_means(profile) -> np.ndarray:
    """C x P within-cluster means f_{p,c} = sum_x x phi(x), as plain Python sums."""
    return np.array([
        [sum(x * p for x, p in zip(domain.levels, cell.probs))
         for domain, cell in zip(profile.variables, row)]
        for row in profile.rows
    ])


def marginal_mean(weights: np.ndarray, means_p: np.ndarray) -> float:
    """Mixture mean of one variable from its per-cluster means."""
    return float(weights @ means_p)


def marginal_covariance(weights: np.ndarray, means_p: np.ndarray, means_q: np.ndarray) -> float:
    """Mixture covariance of two distinct variables from cluster means.

    Centering before the weighted product keeps the value exactly zero for
    noise columns, whose cluster means are all equal.
    """
    dev_p = means_p - weights @ means_p
    dev_q = means_q - weights @ means_q
    return float(weights @ (dev_p * dev_q))


def equal_weight_covariance(means_p: np.ndarray, means_q: np.ndarray) -> float:
    """Covariance under equal cluster weights, as a sum over cluster pairs.

    With psi_c = 1/C for all c,

        Cov(x_p, x_q) = (1/C^2) sum_{c < c'} (f_{p,c} - f_{p,c'})(f_{q,c} - f_{q,c'}),

    which makes explicit that only cluster pairs on which both columns'
    means differ contribute.
    """
    c_count = len(means_p)
    total = 0.0
    for a, b in combinations(range(c_count), 2):
        total += (means_p[a] - means_p[b]) * (means_q[a] - means_q[b])
    return total / c_count**2


def within_group_covariance(f_hp: float, f_lp: float, f_hq: float, f_lq: float) -> float:
    """Covariance of two columns whose H/L pattern coincides, balanced design.

    Each column takes its H mean on half the total weight and its L mean on
    the other half, in lockstep, so

        Cov(x_p, x_q) = (1/4) (f_H,p - f_L,p)(f_H,q - f_L,q).
    """
    return 0.25 * (f_hp - f_lp) * (f_hq - f_lq)
