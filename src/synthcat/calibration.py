"""Solving for the low profile that meets a dependence target.

Pattern-identical columns take a high profile on the clusters of total
weight w_H and a low profile on the rest, of weight w_L = 1 - w_H.  With
f_H, f_L the two profile means and v_H, v_L their variances, any two such
columns share

    Cov = w_H w_L (f_H - f_L)^2
    Var = w_H v_H + w_L v_L + Cov

and the correlation Cov / Var.  Calibration fixes the high profile and
solves for the low one so that the covariance, or the correlation, hits a
requested target.

A family is its levels plus a map from one parameter t to a probability
vector.  A binary column on (0, 1) takes (1 - t, t), t being its mean; a
genotype column on (0, 1, 2) takes the Hardy-Weinberg vector
(t^2, 2t(1-t), (1-t)^2), t being the reference-allele probability.  In both
families the dependence falls as the low parameter rises from 0 to the high
one, where it vanishes, so one bisection on [0, t_H] solves every family
and target kind.  The dependence at low parameter 0 is the feasibility
ceiling: a target at or above it, or within the solver tolerance below it,
is refused with InfeasibleTargetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DependenceTarget,
    GroupStructure,
    InfeasibleTargetError,
    ProbabilityVector,
    SpecError,
)

# Bisection solutions are accepted when the implied target misses the
# requested one by less than this.
RESIDUAL_TOLERANCE = 1e-10
_MAX_BISECTION_STEPS = 200


# family -> (levels, low/high parameter -> probability vector over them)
PARAMETRIC_FAMILIES = {
    "binary": ((0, 1), lambda t: (1.0 - t, t)),
    "snp": ((0, 1, 2), lambda t: (t * t, 2.0 * t * (1.0 - t), (1.0 - t) * (1.0 - t))),
}


def pair_dependence(
    levels: tuple[int, ...],
    high: tuple[float, ...],
    low: tuple[float, ...],
    high_weight: float,
) -> tuple[float, float]:
    """(covariance, correlation) of two pattern-identical columns.

    ``high`` and ``low`` are probability vectors over ``levels``; the high
    one holds on clusters of total weight ``high_weight``, the low one on
    the rest.
    """
    w_h, w_l = high_weight, 1.0 - high_weight
    f_h = sum(x * p for x, p in zip(levels, high))
    f_l = sum(x * p for x, p in zip(levels, low))
    v_h = sum((x - f_h) ** 2 * p for x, p in zip(levels, high))
    v_l = sum((x - f_l) ** 2 * p for x, p in zip(levels, low))
    cov = w_h * w_l * (f_h - f_l) ** 2
    var = w_h * v_h + w_l * v_l + cov
    return cov, cov / var if var > 0.0 else math.nan


def _bisect(dependence, target: float, high_param: float) -> float:
    """The t in (0, high_param) where the falling ``dependence`` meets ``target``."""
    lo, hi = 0.0, high_param
    for _ in range(_MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if dependence(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GroupCalibration:
    """Solved profiles for one group of pattern-identical columns."""

    group: int
    target: DependenceTarget | None
    high: ProbabilityVector
    low: ProbabilityVector
    low_parameter: float | None
    covariance: float
    correlation: float


@dataclass(frozen=True)
class CalibrationResult:
    family: str
    levels: tuple[int, ...]
    groups: tuple[GroupCalibration, ...]


def calibrate_group(
    groups: GroupStructure,
    family: str,
    high_weights: tuple[float, ...],
    high_prob: float | None = None,
    high: tuple[float, ...] | None = None,
    low: tuple[float, ...] | None = None,
) -> CalibrationResult:
    """Solve every group's target, producing its (H, L) profile pair.

    ``high_weights[v]`` is the total weight of the clusters where group
    v + 1 takes its high profile.  ``family`` picks the parameterisation:
    'binary' and 'snp' solve targets against a shared high parameter
    ``high_prob`` (the high mean, or the high allele probability);
    'explicit' takes literal ``high`` and ``low`` vectors, accepts no
    targets, and reports the dependence they imply on level codes
    0, 1, ...  A parameter the family does not use is a SpecError.
    """
    if len(high_weights) != groups.group_count:
        raise SpecError(
            f"calibration: {len(high_weights)} high weights for {groups.group_count} groups"
        )
    if family == "explicit":
        if high_prob is not None:
            raise SpecError("explicit family: H and L are literal, so pH does not apply")
        if groups.targets is not None:
            raise SpecError("explicit family: profiles are fixed, targets cannot be solved")
        if high is None or low is None:
            raise SpecError("explicit family: both H and L vectors are required")
        if len(high) != len(low):
            raise SpecError("explicit family: H and L lengths disagree")
        levels, high, low = tuple(range(len(high))), tuple(high), tuple(low)
    else:
        if family not in PARAMETRIC_FAMILIES:
            raise SpecError(f"unknown family {family!r}")
        if high is not None or low is not None:
            raise SpecError(f"{family} family: H and L are solved from pH and the targets, not given")
        if high_prob is None:
            raise SpecError(f"{family} family: the shared high parameter is required")
        if not 0.0 < high_prob < 1.0:
            raise SpecError(
                f"{family} family: the high parameter must lie strictly inside (0, 1), "
                f"got {high_prob!r}"
            )
        if groups.targets is None:
            raise SpecError(f"{family} family: per-group targets are required")
        levels, vector = PARAMETRIC_FAMILIES[family]
        high = vector(high_prob)

    solved = []
    targets = groups.targets or (None,) * groups.group_count
    for v, (target, w_h) in enumerate(zip(targets, high_weights), start=1):
        low_param = None
        if target is not None:
            which = 0 if target.kind == "covariance" else 1

            def dependence(t: float) -> float:
                return pair_dependence(levels, high, vector(t), w_h)[which]

            # A target within the solver tolerance of the ceiling cannot be told
            # apart from it, and the ceiling itself needs a degenerate low profile.
            ceiling = dependence(0.0)
            if not 0.0 < target.value < ceiling - RESIDUAL_TOLERANCE:
                raise InfeasibleTargetError(
                    f"group {v}: {family} {target.kind} target {target.value!r} is "
                    f"infeasible: it must be positive and more than {RESIDUAL_TOLERANCE} "
                    f"below the ceiling {ceiling!r}, the {target.kind} at low parameter 0"
                )
            low_param = _bisect(dependence, target.value, high_prob)
            low = vector(low_param)
            residual = abs(dependence(low_param) - target.value)
            if not residual < RESIDUAL_TOLERANCE:
                raise InfeasibleTargetError(
                    f"group {v}: {family} {target.kind} solver residual {residual!r} "
                    f"exceeds {RESIDUAL_TOLERANCE}"
                )
        solved.append(GroupCalibration(
            v, target, ProbabilityVector(high), ProbabilityVector(low), low_param,
            *pair_dependence(levels, high, low, w_h)))
    return CalibrationResult(family, levels, tuple(solved))
