"""Pipeline, artifact writers, manifests, and the CLI surface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import synthcat
from synthcat.association import AssociationMatrix, association_matrix, sample_moments
from synthcat import generator, report
from synthcat.cli import build_parser, main
from synthcat.model import GroupStructure, ReproductionError, SpecError, VariableDomain, load_config
from synthcat.moments import moment_matrices
from synthcat.generator import build_spec, generate
from synthcat.report import (
    RunResult,
    compare_matrices,
    run_from_manifest,
    run_pipeline,
    summarize_groups,
    within_group_averages,
    write_dataset_csv,
    write_matrix_csv,
)
from test_acceptance import EXPLICIT_CONFIG, LADDER_CONFIG

H_PROBS = [0.9025, 0.095, 0.0025]
L_PROBS = [0.0625, 0.375, 0.5625]


def explicit_config(seed=5):
    """Four groups of sizes (2,2,5,3) with literal genotype vectors."""
    return {
        "seed": seed,
        "clusters": {"n": 600},
        "groups": {
            "k": 4,
            "sizes": [2, 2, 5, 3],
            "family": "explicit",
            "H": H_PROBS,
            "L": L_PROBS,
        },
    }


def snp_config(seed=9, kind="correlation", values=(0.4, 0.5, 0.6, 0.7)):
    return {
        "seed": seed,
        "clusters": {"n": 400},
        "groups": {
            "k": 4,
            "sizes": [2, 2, 2, 2],
            "family": "snp",
            "pH": 0.95,
            "targets": [{kind: v} for v in values],
        },
    }


class TestWithinGroupAverages:
    def groups(self, sizes=(2, 2), noise=0):
        return GroupStructure(sizes=sizes, noise_count=noise)

    def test_identity_blocks_average_zero(self):
        matrix = AssociationMatrix(np.eye(4), ("a", "b", "c", "d"), "pearson")
        assert within_group_averages(matrix, self.groups()) == [0.0, 0.0]

    def test_singleton_group_is_nan(self):
        matrix = AssociationMatrix(np.eye(2), ("a", "b"), "pearson")
        out = within_group_averages(matrix, self.groups(sizes=(1, 1)))
        assert all(math.isnan(v) for v in out)

    def test_dimension_mismatch(self):
        matrix = AssociationMatrix(np.eye(3), ("a", "b", "c"), "pearson")
        with pytest.raises(SpecError, match="dimension"):
            within_group_averages(matrix, self.groups())

    def test_trailing_noise_columns_are_ignored(self):
        values = np.eye(5)
        values[4, 0] = values[0, 4] = 0.9
        matrix = AssociationMatrix(values, ("a", "b", "c", "d", "n1"), "pearson")
        out = within_group_averages(matrix, self.groups(noise=1))
        assert out == [0.0, 0.0]

    def test_recovers_shared_group_covariance(self):
        built = build_spec(load_config(snp_config(kind="covariance", values=(0.2,) * 4)))
        moments = moment_matrices(built.spec.profile, built.spec.clusters)
        names = tuple(v.name for v in built.spec.profile.variables)
        matrix = AssociationMatrix(moments.covariance, names, "covariance")
        out = within_group_averages(matrix, built.groups)
        assert out == pytest.approx([0.2] * 4, abs=1e-12)


class TestSummaries:
    def test_fields_and_gap(self):
        built = build_spec(load_config(snp_config()))
        moments = moment_matrices(built.spec.profile, built.spec.clusters)
        names = tuple(v.name for v in built.spec.profile.variables)
        rows = summarize_groups(built.groups, moments, moments, names)
        assert [s.group for s in rows] == [1, 2, 3, 4]
        assert [s.size for s in rows] == [2, 2, 2, 2]
        assert [s.target_kind for s in rows] == ["correlation"] * 4
        assert [s.target_value for s in rows] == [0.4, 0.5, 0.6, 0.7]
        for s in rows:
            assert s.theoretical == pytest.approx(s.target_value, abs=1e-9)
            assert s.gap == 0.0

    def test_mixed_target_kinds_are_each_read_on_their_own_scale(self):
        """One call reads the covariance group in covariance and the correlation group in correlation."""
        config = snp_config()
        config["groups"].update(k=2, sizes=[3, 2], targets=[{"covariance": 0.3}, {"correlation": 0.5}])
        built = build_spec(load_config(config))
        moments = moment_matrices(built.spec.profile, built.spec.clusters)
        sample = sample_moments(generate(built.spec))
        names = tuple(v.name for v in built.spec.profile.variables)
        rows = summarize_groups(built.groups, moments, sample, names)
        assert [(s.target_kind, s.target_value) for s in rows] == [("covariance", 0.3), ("correlation", 0.5)]
        for s, kind in zip(rows, ("covariance", "correlation")):
            assert s.theoretical == pytest.approx(s.target_value, abs=1e-9)
            averages = within_group_averages(AssociationMatrix(getattr(sample, kind), names, kind), built.groups)
            assert s.sample == averages[s.group - 1]

    def test_explicit_groups_have_no_target(self):
        result = RunResult(load_config(explicit_config()))
        assert result.summaries is not None
        assert all(s.target_kind is None for s in result.summaries)


class TestCompareMatrices:
    def test_identical_matrices(self):
        values = np.array([[1.0, 0.4], [0.4, 1.0]])
        matrix = AssociationMatrix(values, ("a", "b"), "pearson")
        report = compare_matrices(matrix, matrix)
        assert report.max_abs_gap == 0.0
        assert report.mean_abs_gap == 0.0
        assert report.sign_agreement == 1.0

    def test_nan_cells_are_excluded(self):
        base = np.array([[1.0, np.nan], [np.nan, 1.0]])
        matrix = AssociationMatrix(base, ("a", "b"), "pearson")
        report = compare_matrices(matrix, matrix)
        assert report.max_abs_gap == 0.0
        assert math.isnan(report.sign_agreement)

    def test_theoretical_zeros_are_not_signed(self):
        # An exact zero and a round-off 1e-17 have no sign; only the 0.3 cell counts.
        theory = np.array([[1.0, 0.0, 1e-17], [0.0, 1.0, 0.3], [1e-17, 0.3, 1.0]])
        sample = np.array([[1.0, 0.02, -0.01], [0.02, 1.0, 0.25], [-0.01, 0.25, 1.0]])
        names = ("a", "b", "c")
        report = compare_matrices(
            AssociationMatrix(theory, names, "pearson"), AssociationMatrix(sample, names, "pearson")
        )
        assert report.sign_agreement == 1.0
        assert report.max_abs_gap == pytest.approx(0.05)
        zeros = AssociationMatrix(np.where(theory == 0.3, 0.0, theory), names, "pearson")
        assert math.isnan(compare_matrices(zeros, zeros).sign_agreement)

    def test_dimension_mismatch(self):
        a = AssociationMatrix(np.eye(2), ("a", "b"), "pearson")
        b = AssociationMatrix(np.eye(3), ("a", "b", "c"), "pearson")
        with pytest.raises(SpecError, match="dimensions"):
            compare_matrices(a, b)

    def test_sample_tracks_theory(self):
        result = RunResult(load_config(snp_config(seed=31)))
        names = tuple(v.name for v in result.built.spec.profile.variables)
        theoretical = AssociationMatrix(result.moments.correlation, names, "pearson")
        report = compare_matrices(theoretical, result.sample_pearson)
        assert report.mean_abs_gap < 0.05
        assert report.sign_agreement == 1.0


class TestBuildRun:
    @pytest.mark.filterwarnings("ignore:identifiability")
    def test_profile_config_has_no_summaries(self):
        config = load_config(
            {
                "seed": 2,
                "clusters": {"C": 2, "n": 40},
                "variables": [{"name": "a", "levels": [0, 1]}],
                "profile": [[[0.2, 0.8]], [[0.8, 0.2]]],
            }
        )
        result = RunResult(config)
        assert result.summaries is None
        assert result.dataset.subjects == 40

    def test_covariance_targets_compare_on_covariance_scale(self):
        result = RunResult(load_config(snp_config(kind="covariance", values=(0.3,) * 4)))
        for s in result.summaries:
            assert s.theoretical == pytest.approx(0.3, abs=1e-12)
            assert abs(s.sample - 0.3) < 0.15

    def test_correlation_targets_compare_on_correlation_scale(self):
        result = RunResult(load_config(snp_config(seed=12)))
        for s, target in zip(result.summaries, (0.4, 0.5, 0.6, 0.7)):
            assert s.theoretical == pytest.approx(target, abs=1e-9)
            assert abs(s.sample - target) < 0.15

    def test_noise_columns_flow_through(self):
        config = snp_config(seed=8)
        config["noise"] = [
            {"name": "a1", "levels": [0, 1, 2], "probs": [0.25, 0.5, 0.25]}
        ]
        result = RunResult(load_config(config))
        assert result.dataset.values.shape == (400, 9)
        assert len(result.summaries) == 4


class TestWriters:
    def test_matrix_csv_round_trip(self, tmp_path):
        values = np.array([[1.0, 0.5], [0.5, 1.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, ("a", "b"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",a,b"
        parsed = np.array(
            [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.array_equal(parsed, values)

    def test_nan_renders_as_nan(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[1.0, np.nan], [np.nan, 1.0]]), ("a", "b"))
        assert "nan" in path.read_text()

    def test_matrix_csv_writes_each_cell_as_its_float_repr(self, tmp_path):
        values = np.array([[1 / 3, -0.0, np.nan], [np.inf, 1e-300, -2.5], [0.1, 7.0, -np.inf]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, ("a", "b", "c"))
        rows = [",".join([name, *(repr(float(x)) for x in row)])
                for name, row in zip("abc", values)]
        assert path.read_text() == "\n".join([",a,b,c", *rows]) + "\n"

    def test_every_artifact_writer_takes_a_str_path(self, tmp_path):
        run = RunResult(load_config(snp_config()))
        paths = report.write_artifacts(run, tmp_path / "path", list(report.ARTIFACTS))
        for name, path in paths.items():
            writer, arguments = report.ARTIFACTS[name]
            text = str(tmp_path / f"str-{name}")
            getattr(report, writer)(text, *arguments(run))
            assert Path(text).read_bytes() == path.read_bytes()


class TestPipeline:
    def test_explicit_run_writes_seven_artifacts(self, tmp_path):
        paths = run_pipeline(explicit_config(), tmp_path / "run")
        assert sorted(paths) == [
            "allocation.txt",
            "dataset.csv",
            "group_summary.csv",
            "manifest.json",
            "sample_pearson.csv",
            "theoretical_correlation.csv",
            "theoretical_covariance.csv",
        ]
        header = (tmp_path / "run" / "dataset.csv").read_text().splitlines()[0]
        assert header.split(",") == [f"x{p}" for p in range(1, 13)]

    def test_targeted_run_adds_the_calibration_report(self, tmp_path):
        paths = run_pipeline(snp_config(), tmp_path / "run")
        assert "calibration_report.csv" in paths
        lines = paths["calibration_report.csv"].read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[1].startswith("1,snp,correlation,0.4,")

    def test_group_summary_reproduces_targets(self, tmp_path):
        paths = run_pipeline(snp_config(), tmp_path / "run")
        lines = paths["group_summary.csv"].read_text().strip().splitlines()
        targets = [float(line.split(",")[3]) for line in lines[1:]]
        theoretical = [float(line.split(",")[4]) for line in lines[1:]]
        assert targets == [0.4, 0.5, 0.6, 0.7]
        assert theoretical == pytest.approx(targets, abs=1e-9)

    def test_group_summary_reports_each_group_in_its_own_kind(self, tmp_path):
        config = {
            "seed": 4,
            "clusters": {"n": 500},
            "groups": {
                "k": 2,
                "sizes": [3, 2],
                "family": "snp",
                "pH": 0.95,
                "targets": [{"correlation": 0.5}, {"covariance": 0.3}],
            },
        }
        paths = run_pipeline(config, tmp_path / "run")
        values = np.loadtxt(paths["dataset.csv"], delimiter=",", skiprows=1)
        sample = {
            "correlation": np.corrcoef(values, rowvar=False),
            "covariance": np.cov(values, rowvar=False, ddof=1),
        }
        lines = paths["group_summary.csv"].read_text().strip().splitlines()
        blocks = [(0, 3), (3, 5)]
        assert len(lines) == 3
        for line, (lo, hi) in zip(lines[1:], blocks):
            _, _, kind, target, theoretical, observed, _ = line.split(",")
            assert float(theoretical) == pytest.approx(float(target), abs=1e-12)
            block = sample[kind][lo:hi, lo:hi]
            expected = block[~np.eye(hi - lo, dtype=bool)].mean()
            assert float(observed) == pytest.approx(expected, abs=1e-12)
        assert [line.split(",")[2] for line in lines[1:]] == ["correlation", "covariance"]

    def test_two_runs_are_byte_identical(self, tmp_path):
        first = run_pipeline(explicit_config(), tmp_path / "a")
        second = run_pipeline(explicit_config(), tmp_path / "b")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_thread_count_never_changes_bytes(self, tmp_path):
        serial = run_pipeline(explicit_config(), tmp_path / "a", threads=1)
        parallel = run_pipeline(explicit_config(), tmp_path / "b", threads=8)
        for name in serial:
            assert serial[name].read_bytes() == parallel[name].read_bytes()

    def test_seed_override_is_recorded_and_matters(self, tmp_path):
        base = run_pipeline(explicit_config(), tmp_path / "a")
        overridden = run_pipeline(explicit_config(), tmp_path / "b", seed=99)
        manifest = json.loads(overridden["manifest.json"].read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["seed"] == 99
        assert base["dataset.csv"].read_bytes() != overridden["dataset.csv"].read_bytes()

    def test_manifest_hashes_match_files(self, tmp_path):
        paths = run_pipeline(explicit_config(), tmp_path / "run")
        manifest = json.loads(paths["manifest.json"].read_text())
        import hashlib

        for name, recorded in manifest["artifacts"].items():
            assert hashlib.sha256(paths[name].read_bytes()).hexdigest() == recorded

    def test_manifest_hash_streams_the_file(self, tmp_path):
        path = tmp_path / "large.bin"
        path.write_bytes(bytes(range(256)) * (1 << 15))  # 8 MiB
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        tracemalloc.start()
        try:
            digest = report._sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == expected
        assert peak < 2 << 20

    def test_rerun_from_manifest(self, tmp_path):
        paths = run_pipeline(snp_config(), tmp_path / "a", shuffle=True)
        rerun = run_from_manifest(paths["manifest.json"], tmp_path / "b")
        for name in paths:
            assert paths[name].read_bytes() == rerun[name].read_bytes()

    def test_tampered_manifest_is_caught(self, tmp_path):
        paths = run_pipeline(explicit_config(), tmp_path / "a")
        manifest = json.loads(paths["manifest.json"].read_text())
        manifest["artifacts"]["dataset.csv"] = "0" * 64
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        with pytest.raises(ReproductionError, match="reproduce artifacts"):
            run_from_manifest(bad, tmp_path / "b")

    @pytest.mark.parametrize(
        "field, change",
        [
            ("artifacts", lambda recorded: {}),
            ("artifacts", lambda recorded: {**recorded, "extra.csv": "0" * 64}),
            ("config_sha256", lambda recorded: "0" * 64),
            ("seed", lambda recorded: recorded + 1),
        ],
        ids=["no-artifacts", "extra-artifact", "config-hash", "seed"],
    )
    def test_every_recorded_field_is_checked(self, tmp_path, field, change):
        """No artifacts, one the re-run does not write, or another config hash or seed is a mismatch."""
        paths = run_pipeline(explicit_config(), tmp_path / "a")
        manifest = json.loads(paths["manifest.json"].read_text())
        manifest[field] = change(manifest[field])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        with pytest.raises(ReproductionError, match=f"reproduce {field}$"):
            run_from_manifest(bad, tmp_path / "b")

    def test_versions_are_not_compared(self, tmp_path):
        paths = run_pipeline(explicit_config(), tmp_path / "a")
        manifest = json.loads(paths["manifest.json"].read_text())
        manifest["versions"] = {"numpy": "0.0"}
        good = tmp_path / "good.json"
        good.write_text(json.dumps(manifest))
        rerun = run_from_manifest(good, tmp_path / "b")
        assert rerun["dataset.csv"].read_bytes() == paths["dataset.csv"].read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"options": {"shuffle": false}}',
            '{"config": {}}',
            '{"config": {}, "options": []}',
            '{"config": {}, "options": {"shuffle": 0}}',
        ],
        ids=["not-an-object", "no-config", "no-options", "options-not-an-object",
             "shuffle-not-boolean"],
    )
    def test_malformed_manifest_is_a_spec_error(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(SpecError, match="boolean options.shuffle"):
            run_from_manifest(bad, tmp_path / "b")
        assert not (tmp_path / "b").exists()


# Malformed configs: (path to the key, new value or DELETE, text the error
# must contain).  Each is applied to ``snp_config()``.
DELETE = object()
MALFORMED = {
    "missing-family": (("groups", "family"), DELETE, "config.groups.family is required"),
    "missing-sizes": (("groups", "sizes"), DELETE, "config.groups.sizes is required"),
    "missing-variable-name": (
        ("variables",), [{"levels": [0, 1, 2]}], "config.variables[0].name is required"
    ),
    "missing-noise-probs": (
        ("noise",), [{"name": "z", "levels": [0, 1]}], "config.noise[0].probs is required"
    ),
    "sizes-not-a-list": (("groups", "sizes"), 5, "config.groups.sizes"),
    "variable-not-an-object": (("variables",), ["a"], "config.variables[0]"),
    "pH-not-a-number": (("groups", "pH"), "high", "config.groups.pH"),
    "pH-too-large": (("groups", "pH"), 10**400, "config.groups.pH"),
    "target-not-a-number": (
        ("groups", "targets"), [{"correlation": "x"}] * 4, "config.groups.targets[0].correlation"
    ),
    "seed-not-a-number": (("seed",), "abc", "config.seed"),
    "seed-not-integral": (("seed",), 1.7, "config.seed"),
    "n-not-integral": (("clusters", "n"), 10.5, "config.clusters.n"),
    "no-subjects": (("clusters", "n"), 0, "at least one subject"),
    "weights-nan": (("clusters", "weights"), [math.nan] * 6, "config.clusters.weights[0]"),
    "noise-prob-nan": (
        ("noise",),
        [{"name": "z", "levels": [0, 1], "probs": [math.nan, 1.0]}],
        "config.noise[0].probs[0]",
    ),
    "unknown-variable-key": (
        ("variables",),
        [{"name": "a", "levels": [0, 1], "knid": "nominal"}],
        "config.variables[0]: unknown keys ['knid']",
    ),
    "unknown-noise-key": (
        ("noise",),
        [{"name": "z", "levels": [0, 1], "probs": [0.5, 0.5], "kind": "nominal"}],
        "config.noise[0]: unknown keys ['kind']",
    ),
    "pH-infinite": (("groups", "pH"), math.inf, "config.groups.pH"),
}


# Each invalid spec and a part of the error it must give.
INVALID_SPECS = {
    "no-subjects": "error",
    "csv-unsafe-name": "error",
    "negative-weight": "error",
    "no-variables": "error",
    "level-2**64": "[-2**63, 2**63)",
    "level-2**63": "[-2**63, 2**63)",
    "level-below-int64": "[-2**63, 2**63)",
    "duplicate-name": "'x1' is used 2 times",
    "weights-and-counts": "give weights or counts, not both",
    "noise-with-profile": "'noise' needs 'groups'",
    "variables-with-groups": "'variables' needs 'profile'",
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


class TestCli:
    def test_generate(self, tmp_path, capsys):
        config = write_config(tmp_path, explicit_config())
        assert main(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "dataset.csv").exists()
        assert (tmp_path / "o" / "allocation.txt").exists()
        assert "600 x 12" in capsys.readouterr().out

    def test_moments(self, tmp_path):
        config = write_config(tmp_path, explicit_config())
        assert main(["moments", "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "theoretical_covariance.csv").exists()
        assert (tmp_path / "o" / "theoretical_correlation.csv").exists()

    def test_calibrate(self, tmp_path):
        config = write_config(tmp_path, snp_config())
        assert main(["calibrate", "--config", config, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "calibration_report.csv").exists()

    def test_calibrate_needs_groups(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "seed": 2,
                "clusters": {"C": 2, "n": 40},
                "variables": [{"name": "a", "levels": [0, 1]}],
                "profile": [[[0.2, 0.8]], [[0.8, 0.2]]],
            },
        )
        assert main(["calibrate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_infeasible_target_exits_three(self, tmp_path, capsys):
        config = write_config(tmp_path, snp_config(values=(0.4, 0.99, 0.4, 0.4)))
        assert main(["calibrate", "--config", config, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "error" in err
        for part in ("group 2", "snp", "correlation", "ceiling 0.95"):
            assert part in err

    @pytest.mark.parametrize(
        "config, key",
        [
            ([[i, i + 1] for i in range(50_000)], "config:"),
            ({**explicit_config(), "groups": {**explicit_config()["groups"], "sizes": "2" * 500_000}},
             "config.groups.sizes:"),
        ],
        ids=["top-level-list-of-lists", "sizes-string"],
    )
    def test_half_megabyte_bad_value_gives_a_short_error(self, tmp_path, capsys, config, key):
        config = write_config(tmp_path, config)
        assert Path(config).stat().st_size > 500_000
        assert main(["pipeline", "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert err.startswith(f"error: {key}")

    def test_half_megabyte_variable_name_gives_a_short_error(self, tmp_path, capsys):
        """A spec message quotes a variable's name, bounded as a parse error's value is."""
        config = {
            "seed": 1,
            "clusters": {"C": 2, "n": 4},
            "variables": [{"name": "v" * 500_000, "levels": [0, 1], "kind": "cardinal"}],
            "profile": [[[0.2, 0.8]], [[0.8, 0.2]]],
        }
        argv = ["pipeline", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert "unknown kind 'cardinal'" in err

    def test_associate_csv_half_megabyte_repeated_name_gives_a_short_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        name = "a" * 500_000
        data.write_text(f"{name},{name}\n0,1\n1,0\n")
        assert main(["associate", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert "is used 2 times" in err

    def test_parser_is_built_once_per_process(self, tmp_path):
        assert build_parser() is build_parser()
        config = write_config(tmp_path, explicit_config())
        assert main(["generate", "--config", config, "--out", str(tmp_path / "g"), "--shuffle"]) == 0
        assert main(["moments", "--config", config, "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "g" / "dataset.csv").exists()
        assert (tmp_path / "m" / "theoretical_covariance.csv").exists()

    def test_associate_from_csv(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n0,1\n1,0\n0,1\n1,1\n")
        out = tmp_path / "o"
        assert main(["associate", "--data", str(data), "--measure", "v", "--out", str(out)]) == 0
        assert (out / "v_matrix.csv").exists()
        assert (out / "v_long.csv").read_text().startswith("p,q,value")

    def test_associate_csv_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        text = "a,b\n0,1\n1,0\n0,1\n1,1\n"
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "marked.csv").write_text(text, encoding="utf-8-sig")
        for name in ("plain", "marked"):
            argv = ["associate", "--data", str(tmp_path / f"{name}.csv"), "--measure", "v"]
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        for written in ("v_matrix.csv", "v_long.csv"):
            marked = (tmp_path / "marked" / written).read_bytes()
            assert marked == (tmp_path / "plain" / written).read_bytes()
        assert (tmp_path / "marked" / "v_matrix.csv").read_bytes().startswith(b",a,b\na,")
        assert (tmp_path / "marked" / "v_long.csv").read_bytes().startswith(b"p,q,value\na,a,")

    def test_associate_csv_refuses_a_repeated_column_name(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,a,b\n0,1,0\n1,0,1\n0,1,1\n1,1,0\n")
        out = tmp_path / "o"
        assert main(["associate", "--data", str(data), "--measure", "v", "--out", str(out)]) == 2
        assert "column name 'a' is used 2 times" in capsys.readouterr().err
        assert not out.exists()

    def test_associate_from_config(self, tmp_path):
        config = write_config(tmp_path, explicit_config())
        out = tmp_path / "o"
        assert main(["associate", "--config", config, "--measure", "tauc", "--out", str(out)]) == 0
        assert (out / "tauc_matrix.csv").exists()

    def test_associate_needs_exactly_one_source(self, tmp_path, capsys):
        config = write_config(tmp_path, explicit_config())
        data = tmp_path / "data.csv"
        data.write_text("a\n0\n1\n")
        out = str(tmp_path / "o")
        assert main(["associate", "--out", out]) == 2
        assert main(["associate", "--config", config, "--data", str(data), "--out", out]) == 2
        capsys.readouterr()

    def test_associate_rejects_bad_csv(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n0,x\n")
        assert main(["associate", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "integer CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["", "a,b\n", "a,b\n0,1\n1,0,1\n", "a,b\n0,1,1\n1,0,1\n"],
        ids=["empty", "header-only", "ragged-row", "rows-wider-than-header"],
    )
    def test_associate_rejects_malformed_csv(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert main(["associate", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_associate_csv_matches_in_memory_dataset(self, tmp_path, capsys):
        dataset = generate(build_spec(load_config(explicit_config())).spec)
        data = tmp_path / "dataset.csv"
        write_dataset_csv(data, dataset)
        observed = tuple(
            VariableDomain(v.name, tuple(int(x) for x in np.unique(dataset.values[:, p])))
            for p, v in enumerate(dataset.profile.variables)
        )
        out = tmp_path / "o"
        for measure in ("v", "vcc", "tauc"):
            assert main(["associate", "--data", str(data), "--measure", measure,
                         "--out", str(out)]) == 0
            rows = (out / f"{measure}_matrix.csv").read_text().splitlines()[1:]
            written = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
            expected = association_matrix((dataset.values, observed), measure).values
            assert np.array_equal(written, expected, equal_nan=True)
        capsys.readouterr()

    def test_report(self, tmp_path):
        config = write_config(tmp_path, snp_config())
        out = tmp_path / "o"
        assert main(["report", "--config", config, "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert set(comparison) == {"max_abs_gap", "mean_abs_gap", "sign_agreement"}
        assert (out / "group_summary.csv").exists()

    def test_pipeline(self, tmp_path):
        config = write_config(tmp_path, explicit_config())
        out = tmp_path / "o"
        assert main(["pipeline", "--config", config, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_verify_exits_zero_two_or_three(self, tmp_path, capsys):
        """0 on a fresh run's manifest, 2 on a malformed one, 3 on a mismatch."""
        config = write_config(tmp_path, explicit_config())
        run, rerun = tmp_path / "run", tmp_path / "rerun"
        assert main(["pipeline", "--config", config, "--out", str(run), "--shuffle"]) == 0
        manifest = run / "manifest.json"
        assert main(["verify", "--manifest", str(manifest), "--out", str(rerun), "--threads", "2"]) == 0
        for name in os.listdir(run):
            assert (rerun / name).read_bytes() == (run / name).read_bytes()
        recorded = json.loads(manifest.read_text())
        recorded["artifacts"]["allocation.txt"] = "0" * 64
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(recorded))
        assert main(["verify", "--manifest", str(tampered), "--out", str(tmp_path / "t")]) == 3
        assert "does not reproduce artifacts" in capsys.readouterr().err
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"config": {}}')
        out = str(tmp_path / "m")
        assert main(["verify", "--manifest", str(malformed), "--out", out]) == 2
        assert "options.shuffle" in capsys.readouterr().err
        malformed.write_text("{")
        assert main(["verify", "--manifest", str(malformed), "--out", out]) == 2
        assert main(["verify", "--manifest", str(tmp_path / "none.json"), "--out", out]) == 2
        capsys.readouterr()

    def test_tauc_gives_nan_for_a_constant_column(self, tmp_path, capsys):
        """A one-level column has NaN tau_c cells; the other measures still see it."""
        data = tmp_path / "f.csv"
        data.write_text("a,b,c\n0,1,0\n1,1,1\n0,1,0\n1,1,1\n")
        for measure in ("v", "vcc", "pearson", "tauc"):
            argv = ["associate", "--data", str(data), "--measure", measure]
            assert main([*argv, "--out", str(tmp_path / measure)]) == 0
        rows = (tmp_path / "tauc" / "tauc_matrix.csv").read_text().splitlines()
        assert rows == [
            ",a,b,c",
            "a,1.0,nan,1.0",
            "b,nan,1.0,nan",
            "c,1.0,nan,1.0",
        ]
        capsys.readouterr()

    def test_seed_flag_changes_output(self, tmp_path):
        config = write_config(tmp_path, explicit_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", config, "--out", str(a), "--seed", "1"]) == 0
        assert main(["generate", "--config", config, "--out", str(b), "--seed", "2"]) == 0
        assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["generate", "--config", missing, "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_config_exits_two(self, tmp_path, capsys, case):
        path, value, message = MALFORMED[case]
        config = snp_config()
        *parents, key = path
        holder = config
        for parent in parents:
            holder = holder[parent]
        if value is DELETE:
            del holder[key]
        else:
            holder[key] = value
        argv = ["pipeline", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, key, value",
        [("binary", "H", [0.2, 0.8]), ("snp", "L", L_PROBS), ("explicit", "pH", 0.95)],
    )
    def test_key_the_family_does_not_use_exits_two(self, tmp_path, capsys, family, key, value):
        config = explicit_config() if family == "explicit" else snp_config(values=(0.2,) * 4)
        config["groups"].update({"family": family, key: value})
        argv = ["pipeline", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"{family} family:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_csv_unsafe_variable_name_exits_two(self, tmp_path, capsys, name):
        config = snp_config()
        config["noise"] = [{"name": name, "levels": [0, 1], "probs": [0.5, 0.5]}]
        argv = ["pipeline", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "comma or a line break" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "command", ["generate", "moments", "calibrate", "report", "pipeline", "associate"]
    )
    @pytest.mark.parametrize("bad", list(INVALID_SPECS))
    def test_invalid_spec_exits_two_in_every_subcommand(self, tmp_path, capsys, command, bad):
        config = snp_config()
        if bad == "no-variables":
            config = {"seed": 1, "clusters": {"C": 2, "n": 4}, "variables": [], "profile": [[], []]}
        elif bad == "noise-with-profile":
            config = {
                "seed": 1,
                "clusters": {"C": 2, "n": 4},
                "variables": [{"name": "a", "levels": [0, 1]}],
                "profile": [[[0.2, 0.8]], [[0.8, 0.2]]],
                "noise": [{"name": "z", "levels": [0, 1], "probs": [0.5, 0.5]}],
            }
        elif bad == "variables-with-groups":
            config["variables"] = [{"name": f"x{p}", "levels": [0, 1, 5]} for p in range(1, 9)]
        elif bad == "no-subjects":
            config["clusters"] = {"n": 0}
        elif bad == "negative-weight":
            config["clusters"] = {"n": 400, "weights": [-0.5, 0.5, 0.5, 0.25, 0.25, 0.0]}
        elif bad == "weights-and-counts":
            config["clusters"] = {"counts": [100] * 6, "weights": [0.5] + [0.1] * 5}
        else:
            name, levels = {"csv-unsafe-name": ("a,b", [0, 1]), "duplicate-name": ("x1", [0, 1]),
                            "level-2**64": ("a1", [0, 2**64]), "level-2**63": ("a1", [0, 2**63]),
                            "level-below-int64": ("a1", [-(2**63) - 1, 0])}[bad]
            config["noise"] = [{"name": name, "levels": levels, "probs": [0.5, 0.5]}]
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == 2
        assert INVALID_SPECS[bad] in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command", ["generate", "moments", "calibrate", "report", "pipeline", "associate"]
    )
    @pytest.mark.parametrize("sizes", [[2**70, 2], [2**24, 1]])
    def test_too_many_group_columns_exit_two(self, tmp_path, capsys, command, sizes):
        config = snp_config()
        config["groups"].update(k=len(sizes), sizes=sizes)
        del config["groups"]["targets"]
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == 2
        assert f"groups: {sum(sizes)} columns in all" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["generate", "moments", "calibrate", "report", "pipeline", "associate"]
    )
    def test_level_codes_at_the_int64_bounds_run(self, tmp_path, capsys, command):
        config = snp_config()
        levels = [-(2**63), 2**63 - 1]
        config["noise"] = [{"name": "a1", "levels": levels, "probs": [0.5, 0.5]}]
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        capsys.readouterr()
        if command in ("generate", "pipeline"):
            column = [line.split(",")[-1] for line in (out / "dataset.csv").read_text().split()]
            assert column[0] == "a1"
            assert sorted(set(column[1:]), key=int) == [str(code) for code in levels]

    def test_zero_threads_exits_two_before_any_pool(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(generator, "ThreadPoolExecutor", no_pool)
        config = write_config(tmp_path, explicit_config())
        for command in ("generate", "pipeline"):
            argv = [command, "--config", config, "--out", str(tmp_path / "o"), "--threads", "0"]
            assert main(argv) == 2
            assert "threads must be at least 1" in capsys.readouterr().err

    def test_bad_spec_config(self, tmp_path, capsys):
        config = write_config(tmp_path, {"clusters": {"n": 10}})
        assert main(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["generate", "moments", "calibrate", "report", "pipeline", "associate"]
    )
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_two_in_every_subcommand(self, tmp_path, capsys, command, seed):
        config = write_config(tmp_path, snp_config())
        out = tmp_path / "o"
        assert main([command, "--config", config, "--seed", seed, "--out", str(out)]) == 2
        assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": 1, "clusters": {"n": 10}, "note": "caf\xe9"}')
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_csv_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"a,caf\xe9\n0,1\n1,0\n")
        assert main(["associate", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSeedOverride:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_invalid_seed_raises_before_writing(self, tmp_path, seed):
        with pytest.raises(SpecError, match="seed"):
            run_pipeline(explicit_config(), tmp_path / "run", seed=seed)
        assert not (tmp_path / "run").exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        paths = run_pipeline(explicit_config(), tmp_path / "run", seed=2**64 - 1)
        assert json.loads(paths["manifest.json"].read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize("pair", [(2**64 - 1, 2**64 - 2), (2**63, 2**63 + 1)])
    def test_neighbouring_large_seeds_give_different_datasets(self, tmp_path, pair):
        """Seeds at and above 2**63 key their streams exactly, not through float64."""
        first, second = (
            run_pipeline(explicit_config(), tmp_path / str(seed), seed=seed, shuffle=True)
            for seed in pair
        )
        for name in ("dataset.csv", "allocation.txt"):
            assert first[name].read_bytes() != second[name].read_bytes()


STAGED = {
    "explicit": (EXPLICIT_CONFIG, []),
    "ladder": (LADDER_CONFIG, []),
    "snp-shuffled": (snp_config(), ["--shuffle"]),
}


class TestStagedRun:
    """Every config subcommand writes files of the same staged run."""

    @pytest.mark.parametrize("name", sorted(STAGED))
    def test_subcommand_files_equal_pipeline_files(self, tmp_path, capsys, name):
        config, flags = STAGED[name]
        path = write_config(tmp_path, config)
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "pipeline")] + flags) == 0
        pipeline = {f.name: f.read_bytes() for f in (tmp_path / "pipeline").iterdir()}
        written = {}
        for command in ("generate", "moments", "calibrate"):
            argv = [command, "--config", path, "--out", str(tmp_path / command)]
            assert main(argv + (flags if command == "generate" else [])) == 0
            written.update((f.name, f.read_bytes()) for f in (tmp_path / command).iterdir())
        capsys.readouterr()
        assert sorted(written) == [
            "allocation.txt",
            "calibration_report.csv",
            "dataset.csv",
            "theoretical_correlation.csv",
            "theoretical_covariance.csv",
        ]
        # The pipeline writes the calibration report only for configs with targets.
        has_targets = "targets" in config["groups"]
        assert ("calibration_report.csv" in pipeline) == has_targets
        for file, data in written.items():
            if file in pipeline:
                assert data == pipeline[file], file

    def test_report_comparison_holds_the_runs_comparison(self, tmp_path):
        config = snp_config(seed=31)
        out = tmp_path / "o"
        assert main(["report", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        run = RunResult(load_config(config))
        theoretical = AssociationMatrix(run.moments.correlation, run.names, "pearson")
        expected = compare_matrices(theoretical, run.sample_pearson)
        assert json.loads((out / "comparison.json").read_text()) == {
            "max_abs_gap": expected.max_abs_gap,
            "mean_abs_gap": expected.mean_abs_gap,
            "sign_agreement": expected.sign_agreement,
        }

    @pytest.mark.parametrize("command", ["moments", "calibrate"])
    def test_moments_and_calibrate_never_generate(self, tmp_path, capsys, monkeypatch, command):
        def no_generate(*args, **kwargs):
            raise AssertionError("generate was called")

        monkeypatch.setattr(report, "generate", no_generate)
        config = write_config(tmp_path, snp_config())
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_spec_is_validated_once_per_pipeline(self, tmp_path, monkeypatch):
        calls = []
        validate = generator.validate_spec
        monkeypatch.setattr(
            generator, "validate_spec", lambda *args: calls.append(1) or validate(*args)
        )
        run_pipeline(snp_config(), tmp_path / "run")
        assert len(calls) == 1

    def test_stages_are_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            report, "generate", lambda *args, **kwargs: calls.append(1) or generate(*args, **kwargs)
        )
        run = RunResult(load_config(snp_config()))
        assert run.summaries is run.summaries
        assert run.sample_pearson is run.sample_pearson
        assert run.dataset is run.dataset
        assert len(calls) == 1


def run_cli_in_c_locale(cwd, *argv) -> subprocess.CompletedProcess:
    """The CLI in a process whose locale encoding is ASCII."""
    src = str(Path(synthcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "synthcat.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, errors="replace",
    )


class TestTextEncoding:
    """Every text file is read and written as UTF-8, whatever the locale."""

    def test_utf8_names_round_trip_in_an_ascii_locale(self, tmp_path):
        config = {
            "seed": 3,
            "clusters": {"counts": [20, 30]},
            "variables": [{"name": "café", "levels": [0, 1, 2]}, {"name": "b", "levels": [0, 1]}],
            "profile": [[[0.2, 0.3, 0.5], [0.5, 0.5]], [[0.6, 0.3, 0.1], [0.1, 0.9]]],
        }
        (tmp_path / "c.json").write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        done = run_cli_in_c_locale(tmp_path, "pipeline", "--config", "c.json", "--out", "o")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "o" / "dataset.csv").read_bytes().startswith("café,b\n".encode())
        assert "café" in (tmp_path / "o" / "sample_pearson.csv").read_text(encoding="utf-8")
        argv = ["associate", "--data", "o/dataset.csv", "--measure", "v", "--out", "a"]
        done = run_cli_in_c_locale(tmp_path, *argv)
        assert done.returncode == 0, done.stderr
        assert "\ncafé,café,1.0\n" in (tmp_path / "a" / "v_long.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv", [["pipeline", "--config", "bad.json"], ["associate", "--data", "bad.json"]]
    )
    def test_undecodable_file_exits_two_and_names_it(self, tmp_path, argv):
        (tmp_path / "bad.json").write_bytes(b'{"seed": 1, "x": "\xff"}\n')
        done = run_cli_in_c_locale(tmp_path, *argv, "--out", "o")
        assert done.returncode == 2
        assert "bad.json" in done.stderr and "UTF-8" in done.stderr
        assert not (tmp_path / "o").exists()
