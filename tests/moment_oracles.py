"""Reference moments by full enumeration, for checking the closed forms.

``synthcat.moments`` computes the mixture moments from per-cluster sums;
this module recomputes them from the joint support of all variables, an
independent route that only small specs can afford.
"""

import numpy as np

from synthcat.model import ClusterSpec, ProfileMatrix, SpecError
from synthcat.moments import MomentMatrices


# Enumeration ceiling for the brute-force check; beyond this the joint
# support is too large to visit.
_MAX_ENUMERATION = 10**6


def brute_force_moments(profile: ProfileMatrix, clusters: ClusterSpec) -> MomentMatrices:
    """Moments by full enumeration of the joint support.

    Visits every point of the product support of all variables, accumulates
    its mixture probability, and forms moments directly.  Exponential in P;
    guarded at 10**6 support points.  Exists to cross-check the closed
    forms, not for production use.
    """
    sizes = [domain.size for domain in profile.variables]
    total = int(np.prod(sizes, dtype=object))
    if total > _MAX_ENUMERATION:
        raise SpecError(f"brute force enumeration needs {total} points, limit is {_MAX_ENUMERATION}")
    weights = clusters.weight_array()
    p_count = profile.variable_count
    grids = np.indices(sizes).reshape(p_count, total)
    # values[j, p]: level code of variable p at support point j
    values = np.empty((total, p_count))
    for p, domain in enumerate(profile.variables):
        values[:, p] = np.asarray(domain.levels, dtype=float)[grids[p]]
    prob = np.zeros(total)
    for c in range(clusters.cluster_count):
        cell_prob = np.ones(total)
        for p in range(p_count):
            cell_prob *= profile.cell(c, p).as_array()[grids[p]]
        prob += weights[c] * cell_prob
    means = prob @ values
    centered = values - means
    cov = (centered * prob[:, None]).T @ centered
    variances = np.diag(cov).copy()
    sd = np.sqrt(variances)
    with np.errstate(divide="ignore", invalid="ignore"):
        cor = cov / np.outer(sd, sd)
    cor[np.isinf(cor)] = np.nan
    np.fill_diagonal(cor, np.where(sd > 0.0, 1.0, np.nan))
    return MomentMatrices(means, variances, cov, cor)
