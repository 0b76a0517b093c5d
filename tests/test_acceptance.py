"""Acceptance gate: nine end-to-end criteria, one printed line each.

Every test prints ``ACCEPTANCE <n> PASS: ...`` after its assertions hold, so
a verbose run doubles as a checklist.  Tolerances are pinned here and must
not be loosened.
"""

import math
import time

import numpy as np
import pytest

from synthcat.association import (
    association_matrix,
    chi_square,
    concentration_coefficient,
    crosstab,
    stuart_kendall_tau_c,
    tau_c_pair_scan,
)
from closed_forms import balanced_low_parameter, cluster_means, hardy_weinberg_probs
from moment_oracles import brute_force_moments
from synthcat.generator import GeneratorSpec, bind_pattern, build_spec, generate
from synthcat.model import ClusterSpec, ProbabilityVector, VariableDomain, load_config
from synthcat.moments import moment_matrices
from helpers import pad_groups
from synthcat.patterns import HIGH, balanced_pattern, grouped_pattern
from synthcat.model import GroupStructure
from synthcat.report import RunResult, run_pipeline, within_group_averages

H_PROBS = hardy_weinberg_probs(0.95)
L_PROBS = hardy_weinberg_probs(0.25)

EXPLICIT_CONFIG = {
    "seed": 5,
    "clusters": {"n": 600},
    "groups": {
        "k": 4,
        "sizes": [2, 2, 5, 3],
        "family": "explicit",
        "H": list(H_PROBS),
        "L": list(L_PROBS),
    },
}

SHARED_COVARIANCE_CONFIG = {
    "seed": 8,
    "clusters": {"n": 600},
    "groups": {
        "k": 4,
        "sizes": [2, 2, 5, 3],
        "family": "snp",
        "pH": 0.95,
        "targets": [{"covariance": 0.45}] * 4,
    },
}

LADDER_TARGETS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.6, 0.7, 0.4)

LADDER_CONFIG = {
    "seed": 20240817,
    "clusters": {"n": 800},
    "groups": {
        "k": 8,
        "sizes": [2] * 8,
        "family": "snp",
        "pH": 0.95,
        "targets": [{"correlation": c} for c in LADDER_TARGETS],
    },
}

# 27 linkage groups: (size, within-group correlation) and the sample
# averages the synthetic data is expected to reproduce.
GROUP_SIZES = (2, 2, 3, 2, 2, 3, 2, 2, 3, 2, 2, 2, 21, 5, 2, 2, 3, 2, 3, 4, 2, 7, 2, 3, 2, 2, 2)
GROUP_TARGETS = (
    0.68, 0.96, 0.62, 0.91, 0.96, 0.93, 0.90, 0.98, 0.91, 0.98,
    0.96, 0.98, 0.59, 0.94, 0.32, 0.92, 0.41, 0.96, 0.63, 0.66,
    0.96, 0.60, 0.42, 0.90, 0.43, 0.56, 0.74,
)
GROUP_SAMPLE = (
    0.69, 0.96, 0.63, 0.90, 0.96, 0.93, 0.90, 0.98, 0.91, 0.98,
    0.96, 0.98, 0.59, 0.94, 0.31, 0.92, 0.41, 0.96, 0.64, 0.66,
    0.96, 0.60, 0.43, 0.90, 0.41, 0.55, 0.74,
)

# The 27 groups padded to 32 with near-zero dummy pairs, plus 101 noise
# columns: the 6000 x 200 workflow of criterion 5.
LINKAGE_PADDED = pad_groups(tuple(zip(GROUP_SIZES, GROUP_TARGETS)))

LINKAGE_CONFIG = {
    "seed": 58,
    "clusters": {"n": 6000},
    "groups": {
        "k": 32,
        "sizes": [size for size, _ in LINKAGE_PADDED],
        "family": "snp",
        "pH": 0.99,
        "targets": [{"correlation": value} for _, value in LINKAGE_PADDED],
    },
    "noise": [
        {"name": f"noise{q}", "levels": [0, 1, 2], "probs": [0.25, 0.5, 0.25]}
        for q in range(1, 102)
    ],
}

BALANCED_8X16 = (
    "LLLLLLLLLLLLLLLL",
    "HHHHHHHHHHHHHHHH",
    "LLLLLLLLHHHHHHHH",
    "HHHHHHHHLLLLLLLL",
    "LLLLHHHHLLLLHHHH",
    "HHHHLLLLHHHHLLLL",
    "LLHHLLHHLLHHLLHH",
    "HHLLHHLLHHLLHHLL",
)

GROUPED_6X12_FIRST_5 = (
    "LLLLLLLLLLLL",
    "HHHHHHHHHHHH",
    "LLLLLLHHHHHH",
    "HHHHHHLLLLLL",
    "LLLHHHLLLHHH",
)


def random_profile(rng, cluster_count, variable_count):
    from synthcat.model import ProfileMatrix

    variables = []
    rows = [[] for _ in range(cluster_count)]
    for p in range(variable_count):
        size = int(rng.integers(2, 4))
        variables.append(VariableDomain(f"x{p + 1}", tuple(range(size))))
        for c in range(cluster_count):
            probs = rng.random(size) + 0.05
            rows[c].append(ProbabilityVector(tuple(probs / probs.sum())))
    return ProfileMatrix(tuple(variables), tuple(tuple(row) for row in rows))


def group_blocks(sizes):
    start = 0
    for size in sizes:
        yield start, start + size
        start += size


def test_criterion_1_three_way_covariance_agreement():
    from closed_forms import equal_weight_covariance, marginal_covariance

    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        c_count = int(rng.integers(2, 7))
        p_count = int(rng.integers(2, 5))
        profile = random_profile(rng, c_count, p_count)
        clusters = ClusterSpec.uniform(c_count, c_count)
        weights = clusters.weight_array()
        means = cluster_means(profile)
        matrices = moment_matrices(profile, clusters)
        brute = brute_force_moments(profile, clusters)
        for p in range(p_count):
            for q in range(p + 1, p_count):
                weighted = marginal_covariance(weights, means[:, p], means[:, q])
                pairwise = equal_weight_covariance(means[:, p], means[:, q])
                exact = brute.covariance[p, q]
                worst = max(
                    worst,
                    abs(weighted - pairwise),
                    abs(weighted - exact),
                    abs(matrices.covariance[p, q] - exact),
                )
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 PASS: 1000 random specs, pairwise sum = weighted form = "
        f"brute force, max gap {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_2_within_group_closed_form():
    worst = 0.0
    for config in (EXPLICIT_CONFIG, SHARED_COVARIANCE_CONFIG, LADDER_CONFIG):
        built = build_spec(load_config(config))
        matrices = moment_matrices(built.spec.profile, built.spec.clusters)
        means = cluster_means(built.spec.profile)
        f_h, f_l = means[1], means[0]  # rows 1 and 2 are the all-L/all-H pair
        for lo, hi in group_blocks(built.groups.sizes):
            for p in range(lo, hi):
                for q in range(lo, hi):
                    if p == q:
                        continue
                    closed = 0.25 * (f_h[p] - f_l[p]) * (f_h[q] - f_l[q])
                    worst = max(worst, abs(matrices.covariance[p, q] - closed))
    assert worst < 1e-12

    for c_count in (2, 4, 6, 8, 10, 12):
        depth = c_count // 2 - 1
        pattern = balanced_pattern(c_count, 2 ** (depth + 1))
        column = pattern.column(0)
        nonzero = sum(
            1
            for a in range(c_count)
            for b in range(a + 1, c_count)
            if column[a] != column[b]
        )
        assert nonzero == c_count * c_count // 4
    print(
        "ACCEPTANCE 2 PASS: grouped specs match 0.25(fH-fL)(fqH-fqL) "
        f"(max gap {worst:.2e}); nonzero pair count = C^2/4 for C in 2..12"
    )


def test_criterion_3_calibration_round_trip():
    def pair_config(target, clusters):
        return load_config(
            {
                "seed": 1,
                "clusters": clusters,
                "groups": {
                    "k": 2,
                    "sizes": [2, 2],
                    "family": "snp",
                    "pH": 0.95,
                    "targets": [target, target],
                },
            }
        )

    # Balanced, then unequal weights and unequal counts: each group's own
    # H/L weight split decides its dependence.
    cluster_specs = (
        {"n": 4},
        {"n": 1000, "weights": [0.4, 0.1, 0.4, 0.1]},
        {"counts": [100, 300, 300, 100]},
    )
    pairs = ((0, 1), (2, 3))

    worst_cov = 0.0
    worst_cor = 0.0
    for clusters in cluster_specs:
        for value in np.arange(0.1, 0.4501, 0.05):
            built = build_spec(pair_config({"covariance": float(value)}, clusters))
            matrices = moment_matrices(built.spec.profile, built.spec.clusters)
            for p, q in pairs:
                worst_cov = max(worst_cov, abs(matrices.covariance[p, q] - value))

        for value in (0.4, 0.5, 0.6, 0.7, 0.8):
            built = build_spec(pair_config({"correlation": value}, clusters))
            matrices = moment_matrices(built.spec.profile, built.spec.clusters)
            for p, q in pairs:
                worst_cor = max(worst_cor, abs(matrices.correlation[p, q] - value))
    assert worst_cov < 1e-12
    assert worst_cor < 1e-9

    assert balanced_low_parameter("snp", 0.95, "covariance", 0.45) == 0.95 - math.sqrt(0.45)
    print(
        f"ACCEPTANCE 3 PASS: covariance round-trip gap {worst_cov:.2e}, "
        f"correlation gap {worst_cor:.2e} (equal, unequal weights and counts), "
        f"pL(0.95, 0.45) bit-exact"
    )


def test_criterion_4_sample_reproduction():
    tau_reference = (0.32, 0.43, 0.51, 0.60, 0.69, 0.57, 0.59, 0.33)
    vcc_reference = (0.14, 0.18, 0.23, 0.32, 0.46, 0.28, 0.30, 0.12)
    start = time.perf_counter()
    built = build_spec(load_config(LADDER_CONFIG))
    dataset = generate(built.spec)
    pearson = association_matrix(dataset, "pearson")
    tauc = association_matrix(dataset, "tauc")
    vcc = association_matrix(dataset, "vcc")
    pearson_avg = within_group_averages(pearson, built.groups)
    tau_avg = within_group_averages(tauc, built.groups)
    vcc_avg = within_group_averages(vcc, built.groups)
    elapsed = time.perf_counter() - start

    pearson_gap = max(abs(a - t) for a, t in zip(pearson_avg, LADDER_TARGETS))
    tau_gap = max(abs(a - t) for a, t in zip(tau_avg, tau_reference))
    vcc_gap = max(abs(a - t) for a, t in zip(vcc_avg, vcc_reference))
    assert pearson_gap < 0.07
    assert tau_gap < 0.06
    assert vcc_gap < 0.06
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 4 PASS: n=800 C=8 P=16, pearson gap {pearson_gap:.3f} (<0.07), "
        f"tau_c gap {tau_gap:.3f} (<0.06), vcc gap {vcc_gap:.3f} (<0.06) ({elapsed:.1f}s)"
    )


def test_criterion_5_linkage_group_workflow():
    start = time.perf_counter()
    assert len(LINKAGE_PADDED) == 32
    result = RunResult(load_config(LINKAGE_CONFIG))
    assert result.dataset.values.shape == (6000, 200)
    assert np.bincount(result.dataset.assignments)[1:].tolist() == [500] * 12
    averages = within_group_averages(result.sample_pearson, result.built.groups)
    gaps = [abs(a - s) for a, s in zip(averages[:27], GROUP_SAMPLE)]
    elapsed = time.perf_counter() - start
    assert max(gaps) < 0.02
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 PASS: 27 linkage groups on 6000x200, max sample gap "
        f"{max(gaps):.4f} (<0.02) ({elapsed:.1f}s)"
    )


def rows_as_strings(pattern):
    return tuple("".join(row) for row in pattern.symbols)


def test_criterion_6_pattern_goldens():
    pattern = balanced_pattern(8, 16)
    assert rows_as_strings(pattern) == BALANCED_8X16
    grouped, cluster_count = grouped_pattern(GroupStructure(sizes=(3, 3, 3, 3)))
    assert cluster_count == 6
    assert rows_as_strings(grouped)[:5] == GROUPED_6X12_FIRST_5
    print("ACCEPTANCE 6 PASS: 8x16 balanced pattern and 6x12 grouped rows verbatim")


def test_criterion_7_within_above_between():
    pattern = balanced_pattern(8, 16)
    variables = tuple(VariableDomain(f"x{p + 1}", (0, 1, 2)) for p in range(16))
    profile = bind_pattern(
        pattern, variables, ProbabilityVector(H_PROBS), ProbabilityVector(L_PROBS)
    )
    matrices = moment_matrices(profile, ClusterSpec.uniform(8, 800))
    groups = np.array(pattern.column_groups)
    same = groups[:, None] == groups[None, :]
    off = ~np.eye(16, dtype=bool)
    within = matrices.covariance[same & off]
    between = matrices.covariance[~same]
    spread = within.max() - within.min()
    assert spread < 1e-12
    assert within.min() > between.max()
    print(
        f"ACCEPTANCE 7 PASS: within-group covariances equal (spread {spread:.2e}) "
        f"and all exceed the largest between-group value "
        f"({within.min():.4f} > {between.max():.4f})"
    )


def test_criterion_8_association_oracles():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        m_x = int(rng.integers(2, 5))
        m_y = int(rng.integers(2, 5))
        x = rng.integers(0, m_x, size=n)
        y = rng.integers(0, m_y, size=n)
        table = crosstab(x, y, range(m_x), range(m_y))
        assert stuart_kendall_tau_c(table) == tau_c_pair_scan(x, y, m_x, m_y)

    def table(rows):
        return np.asarray(rows, dtype=np.int64)

    assert concentration_coefficient(table([[10, 10], [10, 10]])) == 0.0
    assert concentration_coefficient(table([[5, 0], [0, 5]])) == 1.0
    assert concentration_coefficient(table([[4, 1], [1, 4]])) == 0.36
    assert chi_square(table([[10, 10], [10, 10]])) == 0.0
    assert chi_square(table([[2, 0], [0, 2]])) == 4.0
    assert chi_square(table([[3, 1], [1, 3]])) == 2.0
    print(
        "ACCEPTANCE 8 PASS: tau_c equals the O(n^2) oracle on 200 instances; "
        "V_cc and chi-square hand values exact"
    )


def test_criterion_9_determinism(tmp_path):
    first = run_pipeline(EXPLICIT_CONFIG, tmp_path / "a", threads=1)
    second = run_pipeline(EXPLICIT_CONFIG, tmp_path / "b", threads=1)
    threaded = run_pipeline(EXPLICIT_CONFIG, tmp_path / "c", threads=8)
    assert sorted(first) == sorted(second) == sorted(threaded)
    for name in first:
        blob = first[name].read_bytes()
        assert blob == second[name].read_bytes()
        assert blob == threaded[name].read_bytes()
    print(
        f"ACCEPTANCE 9 PASS: {len(first)} artifacts byte-identical across reruns "
        "and across 1 vs 8 threads"
    )
