"""Helpers that only the tests use: a dataset checker and group padding."""

import numpy as np

from synthcat.model import Dataset, SpecError


def dataset_violations(dataset: Dataset) -> list[str]:
    """Every way a dataset disagrees with its own profile and clusters."""
    out = []
    n, width = dataset.positions.shape
    if width != dataset.profile.variable_count:
        out.append("dataset: column count does not match profile")
    if dataset.assignments.shape != (n,):
        out.append("dataset: allocation length does not match subject count")
        return out
    for p, domain in enumerate(dataset.profile.variables):
        if not (dataset.positions[:, p] < domain.size).all():
            out.append(f"dataset: column {domain.name!r} contains illegal level codes")
    c_count = dataset.clusters.cluster_count
    if not ((dataset.assignments >= 1) & (dataset.assignments <= c_count)).all():
        out.append("dataset: allocation outside 1..C")
    tallies = np.bincount(dataset.assignments, minlength=c_count + 1)[1:]
    if tuple(int(t) for t in tallies) != dataset.clusters.counts:
        out.append("dataset: per-cluster tallies do not match declared counts")
    return out


def pad_groups(
    pairs: tuple[tuple[int, float], ...],
    pad_size: int = 2,
    pad_correlation: float = 0.01,
) -> tuple[tuple[int, float], ...]:
    """Pad (size, correlation) groups up to the next power-of-2 count.

    Pads are small essentially-uncorrelated groups appended after the real
    ones; the correlation is kept barely positive so the calibration stays
    well posed.
    """
    k = len(pairs)
    if k == 0:
        raise SpecError("pad_groups: need at least one group")
    target = 1
    while target < k:
        target *= 2
    return tuple(pairs) + ((pad_size, pad_correlation),) * (target - k)
