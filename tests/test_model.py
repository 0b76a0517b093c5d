"""Domain types: validation reports, cluster resolution, config round-trips."""

import json
import math

import numpy as np
import pytest

from helpers import dataset_violations
from synthcat.model import (
    ClusterSpec,
    Dataset,
    DependenceTarget,
    GroupStructure,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
    largest_remainder,
    load_config,
    minimum_identifiable_variables,
    resolve_clusters,
    validate_spec,
)


def two_cluster_profile(kind="interval"):
    variables = (
        VariableDomain("x1", (0, 1), kind),
        VariableDomain("x2", (0, 1), kind),
        VariableDomain("x3", (0, 1), kind),
    )
    high = ProbabilityVector((0.1, 0.9))
    low = ProbabilityVector((0.9, 0.1))
    return ProfileMatrix(variables, ((high, high, high), (low, low, low)))


class TestVariableDomain:
    def test_accepts_zero_based_and_one_based_codes(self):
        assert VariableDomain("a", (0, 1, 2)).violations() == []
        assert VariableDomain("b", (1, 2, 3)).violations() == []

    def test_flags_bad_domains(self):
        assert VariableDomain("a", (2,)).violations()
        assert VariableDomain("a", (1, 1, 2)).violations()
        assert VariableDomain("a", (3, 2, 1)).violations()
        assert VariableDomain("a", (0, 1), "continuous").violations()

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_flags_csv_unsafe_names(self, name):
        assert any("comma or a line break" in v for v in VariableDomain(name, (0, 1)).violations())


class TestProbabilityVector:
    def test_sum_tolerance(self):
        assert ProbabilityVector((0.2, 0.8)).violations() == []
        assert ProbabilityVector((0.2, 0.8 + 5e-10)).violations() == []
        assert ProbabilityVector((0.3, 0.8)).violations()
        assert ProbabilityVector((-0.1, 1.1)).violations()

    def test_nan_entries_are_violations(self):
        assert len(ProbabilityVector((math.nan, 0.5, 0.5)).violations()) == 2
        assert ProbabilityVector((math.nan, 1.0)).violations()


class TestClusterSpec:
    def test_largest_remainder_is_exact_and_deterministic(self):
        assert largest_remainder((1 / 3, 1 / 3, 1 / 3), 10) == (4, 3, 3)
        assert largest_remainder((0.5, 0.5), 7) == (4, 3)
        assert largest_remainder((0.2, 0.3, 0.5), 10) == (2, 3, 5)

    def test_uniform_and_from_counts(self):
        spec = ClusterSpec.uniform(8, 800)
        assert spec.counts == (100,) * 8
        assert spec.weights == (0.125,) * 8
        spec = ClusterSpec.from_counts((500,) * 12)
        assert spec.subjects == 6000
        assert spec.weights == (1 / 12,) * 12

    def test_violations(self):
        assert ClusterSpec((0.5, 0.6), (1, 1)).violations()
        assert ClusterSpec((0.5, 0.5), (1,)).violations()
        assert ClusterSpec((-0.5, 1.5), (1, 1)).violations()
        assert ClusterSpec((), ()).violations()

    def test_nan_weights_are_violations(self):
        assert len(ClusterSpec((math.nan, 0.5), (1, 1)).violations()) == 2
        assert DependenceTarget("covariance", math.nan).violations()

    def test_zero_subjects_flagged(self):
        assert ClusterSpec.uniform(4, 0).violations() == ["clusters: at least one subject required"]


class TestGroupStructure:
    def test_column_groups_layout(self):
        groups = GroupStructure((2, 2, 5, 3), noise_count=2)
        assert groups.column_groups() == (1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4)
        assert groups.variable_count == 12

    def test_power_of_two_required(self):
        assert GroupStructure((2, 2, 2)).violations()
        assert GroupStructure((2, 2, 2, 2)).violations() == []

    def test_total_column_count_is_bounded(self):
        # Only arithmetic on the sizes: nothing is laid out at the bound.
        assert GroupStructure((2**24 - 3, 1), noise_count=2).violations() == []
        problems = GroupStructure((2**24 - 3, 1), noise_count=3).violations()
        assert problems == ["groups: 16777217 columns in all, more than the 16777216 allowed"]
        assert "1180591620717411303426 columns" in GroupStructure((2**70, 2)).violations()[0]

    def test_target_count_must_match(self):
        targets = (DependenceTarget("correlation", 0.4),)
        assert GroupStructure((2, 2), targets=targets).violations()

    def test_target_ranges(self):
        assert DependenceTarget("correlation", 1.0).violations()
        assert DependenceTarget("covariance", 0.0).violations()
        assert DependenceTarget("covariance", 0.45).violations() == []
        assert DependenceTarget("entropy", 0.5).violations()


class TestValidateSpec:
    def test_clean_spec(self):
        report = validate_spec(two_cluster_profile(), ClusterSpec.uniform(2, 10))
        assert report.ok
        assert report.warnings == ()

    def test_cluster_row_mismatch(self):
        report = validate_spec(two_cluster_profile(), ClusterSpec.uniform(3, 9))
        assert not report.ok

    def test_cell_length_mismatch(self):
        variables = (VariableDomain("a", (0, 1, 2)),)
        profile = ProfileMatrix(variables, ((ProbabilityVector((0.5, 0.5)),),))
        report = validate_spec(profile, ClusterSpec.uniform(1, 5))
        assert any("entries for 3 levels" in v for v in report.violations)

    def test_identifiability_warning_threshold(self):
        # The P >= 2*ceil(log_M C) + 1 guideline warns, never blocks.
        assert minimum_identifiable_variables(8, 2) == 7
        assert minimum_identifiable_variables(8, 3) == 5
        assert minimum_identifiable_variables(9, 3) == 5
        assert minimum_identifiable_variables(2, 2) == 3
        variables = tuple(VariableDomain(f"x{p}", (0, 1)) for p in range(3))
        high = ProbabilityVector((0.1, 0.9))
        low = ProbabilityVector((0.9, 0.1))
        rows = (
            (high, high, high),
            (high, high, low),
            (high, low, high),
            (high, low, low),
            (low, high, high),
            (low, high, low),
            (low, low, high),
            (low, low, low),
        )
        profile = ProfileMatrix(variables, rows)
        report = validate_spec(profile, ClusterSpec.uniform(8, 80))
        assert report.ok
        assert any("identifiability" in w for w in report.warnings)

    def test_warnings_do_not_depend_on_column_names(self):
        """A violation naming a column ``level_a`` leaves the warning as it is for ``x1``."""

        def warnings(name):
            variables = (VariableDomain(name, (0, 1), "unknown"),)
            rows = ((ProbabilityVector((0.5, 0.5)),),) * 8
            return validate_spec(ProfileMatrix(variables, rows), ClusterSpec.uniform(8, 80)).warnings

        assert warnings("level_a") == warnings("x1") == ("identifiability: P=1 < 7 for C=8, M=2",)


class TestDataset:
    def make(self, positions, assignments, dtype=np.uint8):
        profile = two_cluster_profile()
        clusters = ClusterSpec.uniform(2, len(assignments))
        return Dataset(
            positions=np.asarray(positions, dtype=dtype),
            assignments=np.asarray(assignments),
            profile=profile,
            clusters=clusters,
            seed=1,
        )

    def test_clean(self):
        data = self.make([[0, 1, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1]], [1, 1, 2, 2])
        assert dataset_violations(data) == []

    def test_illegal_codes_flagged(self):
        with pytest.raises(SpecError, match="column 'x3' has values outside"):
            self.make([[0, 1, 5], [1, 1, 1], [0, 0, 0], [1, 0, 1]], [1, 1, 2, 2])

    def test_negative_position_refused(self):
        with pytest.raises(SpecError, match="column 'x2' has values outside"):
            self.make([[0, -1, 0], [1, 1, 1]], [1, 2], dtype=np.int8)

    @pytest.mark.parametrize(
        "positions, assignments",
        [([[0, 1], [1, 1]], [1, 2]), ([[0, 1, 0], [1, 1, 1]], [1, 2, 2]), ([0, 1, 0], [1])],
        ids=["too-few-columns", "too-many-assignments", "one-dimensional"],
    )
    def test_shape_mismatch_refused(self, positions, assignments):
        with pytest.raises(SpecError, match="positions are"):
            self.make(positions, assignments)

    def test_tally_mismatch_flagged(self):
        data = self.make([[0, 1, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1]], [1, 1, 1, 2])
        assert any("tallies" in v for v in dataset_violations(data))


def with_groups(**edits):
    """An edit of a config that replaces the given keys of its groups."""
    return lambda raw: {**raw, "groups": {**raw["groups"], **edits}}


class TestConfigIO:
    def grouped(self):
        return {
            "seed": 99,
            "clusters": {"n": 800},
            "groups": {
                "k": 8,
                "sizes": [2] * 8,
                "family": "snp",
                "pH": 0.95,
                "targets": [{"correlation": c} for c in (0.4, 0.5, 0.6, 0.7, 0.8, 0.6, 0.7, 0.4)],
            },
        }

    def test_round_trip_identity(self):
        raw = self.grouped()
        raw["noise"] = [{"name": "a1", "levels": [0, 1], "probs": [0.5, 0.5]}]
        config = load_config(raw)
        assert load_config(config) == config

    def test_profile_round_trip(self):
        raw = {
            "seed": 5,
            "clusters": {"C": 2, "n": 10},
            "variables": [
                {"name": "x1", "levels": [0, 1], "kind": "ordinal"},
                {"name": "x2", "levels": [1, 2, 3]},
            ],
            "profile": [
                [[0.1, 0.9], [0.2, 0.3, 0.5]],
                [[0.9, 0.1], [0.5, 0.3, 0.2]],
            ],
        }
        config = load_config(raw)
        assert config["variables"][0]["kind"] == "ordinal"
        assert config["variables"][1]["kind"] == "interval"
        assert load_config(config) == config

    def test_exactly_one_of_profile_or_groups(self):
        raw = self.grouped()
        raw["profile"] = [[[0.5, 0.5]]]
        with pytest.raises(SpecError, match="exactly one"):
            load_config(raw)
        del raw["profile"]
        del raw["groups"]
        with pytest.raises(SpecError, match="exactly one"):
            load_config(raw)

    def test_unknown_keys_rejected(self):
        raw = self.grouped()
        raw["extra"] = 1
        with pytest.raises(SpecError, match="unknown keys"):
            load_config(raw)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: [raw], r"config: expected an object, got \["),
            (lambda raw: "seed", r"config: expected an object, got 'seed'"),
            (lambda raw: {k: v for k, v in raw.items() if k != "seed"}, r"config\.seed is required"),
            (
                with_groups(targets=[{"variance": 0.4}] * 8),
                r"config\.groups\.targets\[0\]: unknown keys \['variance'\]",
            ),
            (
                with_groups(targets=[{"covariance": 0.4, "correlation": 0.4}] * 8),
                r"config\.groups\.targets\[0\]: targets must be single-key objects",
            ),
            (with_groups(k=4), r"config\.groups: k does not match the number of sizes"),
        ],
        ids=["list", "string", "missing-seed", "unknown-target-kind", "two-key-target", "mismatched-k"],
    )
    def test_malformed_config_names_its_key(self, tmp_path, edit, message):
        """Read from a file, so a top level that is not an object can be tried."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(edit(self.grouped())))
        with pytest.raises(SpecError, match=f"^{message}"):
            load_config(path)

    def test_integral_float_k_reads_as_int(self):
        raw = self.grouped()
        raw["groups"].update(k=4.0, sizes=[2] * 4, targets=raw["groups"]["targets"][:4])
        k = load_config(raw)["groups"]["k"]
        assert k == 4 and type(k) is int

    def test_integral_floats_read_as_integers(self):
        raw = self.grouped()
        raw["seed"] = 99.0
        raw["clusters"]["n"] = 800.0
        raw["groups"]["sizes"] = [2.0] * 8
        config = load_config(raw)
        assert config == load_config(self.grouped())
        assert isinstance(config["seed"], int) and isinstance(config["clusters"]["n"], int)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.grouped()))
        assert load_config(path) == load_config(self.grouped())


class TestResolveClusters:
    def test_uniform_from_count_and_n(self):
        spec = resolve_clusters({"C": 8, "n": 800})
        assert spec.counts == (100,) * 8

    def test_counts_take_precedence(self):
        spec = resolve_clusters({"counts": (3, 7)})
        assert spec.weights == (0.3, 0.7)

    def test_derived_count_conflicts(self):
        with pytest.raises(SpecError, match="disagrees"):
            resolve_clusters({"C": 4, "n": 100}, derived_count=6)

    def test_weights_with_n(self):
        spec = resolve_clusters({"weights": (0.25, 0.75), "n": 8})
        assert spec.counts == (2, 6)

    def test_no_clusters_is_a_violation_not_a_division_by_zero(self):
        assert resolve_clusters({"C": 0, "n": 10}).violations() == [
            "clusters: at least one cluster required"
        ]

    def test_missing_information(self):
        with pytest.raises(SpecError):
            resolve_clusters({"C": 4})
        with pytest.raises(SpecError):
            resolve_clusters({"n": 100})
