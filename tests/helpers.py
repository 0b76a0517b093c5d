"""Helpers that only the tests use: a dataset tally check and group padding."""

import numpy as np

from synthcat.model import Dataset, SpecError


def dataset_violations(dataset: Dataset) -> list[str]:
    """Every way a dataset disagrees with its clusters that construction does not check.

    A Dataset refuses bad shapes, positions and assignments itself; what is
    left is whether each cluster holds its declared number of subjects.
    """
    out = []
    c_count = dataset.clusters.cluster_count
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
