"""Exact first and second moments of the mixture distribution.

Marginally a variable is the mixture sum_c psi_c Categorical(phi_p^c) over
its numeric level codes.  Within a cluster variables are independent, so
every cross moment reduces to sums over cluster means:

    E[x_p]            = sum_c psi_c f_{p,c}
    Cov(x_p, x_q)     = sum_c psi_c (f_{p,c} - E x_p)(f_{q,c} - E x_q),  p != q
    Var(x_p)          = sum_c psi_c Var_c(x_p) + sum_c psi_c (f_{p,c} - E x_p)^2

with f_{p,c} the mean of variable p inside cluster c.  These formulas are
exact, not sample estimates.  Each sum is added term by term in a fixed
order, with no BLAS product, so its bits are the same on every machine.
The tests check them against ``brute_force_moments`` in
``tests/moment_oracles.py``, which enumerates the joint support of small
specs.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import ClusterSpec, ProfileMatrix, level_table


def _stacked(profile: ProfileMatrix) -> tuple[np.ndarray, np.ndarray]:
    """P x M level codes and C x P x M probabilities, zero-padded to the widest variable."""
    levels = level_table(profile.variables)
    sizes = np.array([domain.size for domain in profile.variables])
    declared = np.arange(levels.shape[1]) < sizes[:, None]
    probs = np.zeros((profile.cluster_count, *declared.shape))
    probs[:, declared] = [[x for cell in row for x in cell.probs] for row in profile.rows]
    return levels, probs


def _expect(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Sum over the last axis of values * probs, added level by level."""
    out = np.zeros(probs.shape[:-1])
    for m in range(probs.shape[-1]):
        out += values[..., m] * probs[..., m]
    return out


@dataclass(frozen=True)
class MomentMatrices:
    """Exact mixture moments for a full spec."""

    means: np.ndarray
    variances: np.ndarray
    covariance: np.ndarray
    correlation: np.ndarray


def moment_matrices(profile: ProfileMatrix, clusters: ClusterSpec) -> MomentMatrices:
    """Means, variances, covariance and correlation for every variable.

    The covariance diagonal carries the full variances (within plus
    between).  Correlations involving a constant column are NaN.
    """
    weights = clusters.weight_array()
    p_count = profile.variable_count
    levels, probs = _stacked(profile)
    f = _expect(levels, probs)
    within = _expect((levels - f[:, :, None]) ** 2, probs)
    # Means are taken about the first cluster's: a column with one mean in
    # every cluster gets it exactly, and zero deviations.
    shift, spread = np.zeros((2, p_count))
    for w, f_c, within_c in zip(weights, f, within):
        shift += w * (f_c - f[0])
        spread += w * within_c
    means = f[0] + shift
    dev = f - means
    # Weighting each rounded product keeps cov exactly symmetric and lets
    # equal and opposite cluster terms cancel to an exact zero.
    cov = np.zeros((p_count, p_count))
    for w, d in zip(weights, dev):
        cov += w * np.outer(d, d)
    # Within plus between: exactly 0 for a column degenerate at one level.
    variances = spread + np.diag(cov)
    np.fill_diagonal(cov, variances)
    sd = np.sqrt(variances)
    with np.errstate(divide="ignore", invalid="ignore"):
        cor = cov / np.outer(sd, sd)
    cor[np.isinf(cor)] = np.nan
    np.fill_diagonal(cor, np.where(sd > 0.0, 1.0, np.nan))
    return MomentMatrices(means, variances, cov, cor)
