"""Tests of the benchmark itself: metric names, the tracer and the correctness gate.

    python3 -m pytest -q perfbench/test_bench.py

The gate tests corrupt an operation's output and assert that every
operation of the run is counted as failed.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import synthcat  # noqa: E402
from synthcat import association, cli, generator, model, report, sampling  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["linkage-60k", "associate-6k"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_tracer_rebinds_every_namespace_and_restores():
    originals = (generator.generate, model.validate_spec, association.association_matrix)
    t = tracer.Tracer()
    t.install()
    try:
        assert report.generate is generator.generate is synthcat.generate
        assert generator.generate is not originals[0]
        assert generator.validate_spec is model.validate_spec is not originals[1]
        assert cli.association_matrix is association.association_matrix is not originals[2]
        assert t.absent == []
    finally:
        t.uninstall()
    assert (report.generate, generator.validate_spec, cli.association_matrix) == originals


def test_tracer_records_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(sampling, "band_edges")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["sampling.band_edges"]
    totals = tracer.layer_totals(t.spans)
    assert totals["sampling.band_edges"] == {"busy_s": 0.0, "self_s": 0.0, "calls": 0}


def test_worker_thread_spans_are_children_of_generate():
    built = generator.build_spec(model.load_config(workloads.linkage_config(300, 5)))
    t = tracer.Tracer()
    t.install()
    try:
        generator.generate(built.spec, threads=2)
    finally:
        t.uninstall()
    by_id = {s.id: s for s in t.spans}
    (root,) = [s for s in t.spans if s.name == "generator.generate"]
    workers = [s for s in t.spans if s.thread != threading.get_ident()]
    assert workers
    for s in t.spans:
        if s is root:
            continue
        while s.parent != root.id:
            assert s.parent is not None, s
            s = by_id[s.parent]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tracer.Span(1, None, "generator.generate", 1, 0.0, 10.0),
        tracer.Span(2, 1, "sampling.column_uniforms", 2, 1.0, 4.0),
        tracer.Span(3, 1, "sampling.column_uniforms", 3, 3.0, 6.0),
    ]
    totals = tracer.layer_totals(spans)
    assert totals["generator.generate"] == {"busy_s": 10.0, "self_s": 5.0, "calls": 1}
    assert totals["sampling.column_uniforms"]["calls"] == 2


def test_association_oracles_match_the_library():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 3, 500)
    y = (x + rng.integers(0, 2, 500)) % 4
    counts = checks.contingency(x, y)
    table = association.crosstab(x, y, (0, 1, 2), (0, 1, 2, 3))
    assert abs(checks.cramers_v_paper(counts) - association.cramers_v(table)) < 1e-14
    assert abs(checks.concentration(counts) - association.concentration_coefficient(table)) < 1e-14
    assert abs(checks.tau_c(counts) - association.tau_c_pair_scan(x, y, 3, 4)) < 1e-14


def flip_significant_digit(path: Path, line: int, field: int) -> None:
    """Change the first non-zero digit of one CSV field."""
    lines = path.read_text().split("\n")
    cells = lines[line].split(",")
    cell = cells[field]
    i = next(i for i, ch in enumerate(cell) if ch in "123456789")
    cells[field] = cell[:i] + str(int(cell[i]) % 9 + 1) + cell[i + 1 :]
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines))


def flip_code(path: Path) -> None:
    """Change one level code in the last row: a single byte, still a valid level."""
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] == ord("0") else ord("0")
    path.write_bytes(bytes(data))


def measure(workload, seed, tmp_path):
    ops, _ = run.measure(workload, seed, 0.0, False, tmp_path)
    return ops


def test_clean_run_has_no_failures(tmp_path):
    ops = measure(workloads.WORKLOADS["wide-512"](), 11, tmp_path)
    assert len(ops) == 2
    assert [op.problems for op in ops] == [[], []]


@pytest.mark.parametrize(
    "seed, artifact, corrupt",
    [
        (7, "dataset.csv", flip_code),
        (11, "dataset.csv", flip_code),
        (11, "sample_pearson.csv", lambda path: flip_significant_digit(path, 1, 2)),
        (11, "theoretical_covariance.csv", lambda path: flip_significant_digit(path, 1, 2)),
    ],
)
def test_corrupted_artifact_fails_every_operation(tmp_path, seed, artifact, corrupt):
    workload = workloads.WORKLOADS["wide-512"]()
    clean_run = workload.run

    def corrupted_run(out):
        paths = clean_run(out)
        corrupt(paths[artifact])
        return paths

    workload.run = corrupted_run
    ops = measure(workload, seed, tmp_path)
    assert len(ops) == 2
    assert all(op.problems for op in ops)


def test_corrupted_association_cell_fails_every_operation(tmp_path, monkeypatch):
    p, q = checks.sample_pairs(64)[5]
    clean = association.association_matrix

    def corrupted(*args, **kwargs):
        matrix = clean(*args, **kwargs)
        values = matrix.values.copy()
        values[p, q] += 1e-6
        values[q, p] += 1e-6
        return association.AssociationMatrix(values, matrix.names, matrix.measure)

    monkeypatch.setattr(cli, "association_matrix", corrupted)
    ops = measure(workloads.WORKLOADS["associate-6k"](), 58, tmp_path)
    assert len(ops) == 2
    for op in ops:
        assert len(op.problems) == 3, op.problems
        assert all("oracle" in problem for problem in op.problems)
