"""The benchmark's workloads: inputs made from a seed, one operation, its gate.

Each operation calls the entry point a user would call: ``run_pipeline``
for the two pipeline workloads, ``cli.main(["associate", ...])`` for the
analysis workload.

linkage-60k  The acceptance-criterion-5 linkage config (27 groups padded to
             32, snp, pH 0.99, 101 noise columns: P=200, C=12) at n=60000,
             generated with 2 threads and shuffled.  The size the project's
             speed goals are about; sampling, generator and
             report.write_dataset_csv do most of the work, and it is the
             only workload that uses the thread pool.
wide-512     256 groups of 2 columns (P=512, C=18), snp, pH 0.95, targets
             cycling 0.3..0.8, n=1000, 1 thread.  The P^2 and C x P layers
             dominate: the moment_matrices double loop, three 512 x 512
             matrix CSVs and 9216 band_edges calls; 256 groups make
             calibration cost visible.  Not listed in BENCHMARK.json: runs
             must be long (45 s) to average out the speed drift of a shared
             host, and a third workload at that length would not fit the
             time allowed for a full set of runs; linkage-60k measures the
             same layers.  Run it by name.
associate-6k v, vcc and tauc over a 6000 x 64 CSV (every third column of the
             shuffled 6000-subject linkage dataset, grouped and noise
             columns mixed).  Association (2016 pairs per measure) and the
             CLI's CSV read do almost all the work; nothing is generated.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import numpy as np

from synthcat import cli, generator, model, report

import checks

LINKAGE_GROUPS = (
    (2, 0.68), (2, 0.96), (3, 0.62), (2, 0.91), (2, 0.96), (3, 0.93), (2, 0.90),
    (2, 0.98), (3, 0.91), (2, 0.98), (2, 0.96), (2, 0.98), (21, 0.59), (5, 0.94),
    (2, 0.32), (2, 0.92), (3, 0.41), (2, 0.96), (3, 0.63), (4, 0.66), (2, 0.96),
    (7, 0.60), (2, 0.42), (3, 0.90), (2, 0.43), (2, 0.56), (2, 0.74),
) + ((2, 0.01),) * 5


def linkage_config(subjects: int, seed: int) -> dict:
    return {
        "seed": seed,
        "clusters": {"n": subjects},
        "groups": {
            "k": len(LINKAGE_GROUPS),
            "sizes": [size for size, _ in LINKAGE_GROUPS],
            "family": "snp",
            "pH": 0.99,
            "targets": [{"correlation": value} for _, value in LINKAGE_GROUPS],
        },
        "noise": [
            {"name": f"noise{q}", "levels": [0, 1, 2], "probs": [0.25, 0.5, 0.25]}
            for q in range(1, 102)
        ],
    }


def wide_config(seed: int) -> dict:
    targets = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    return {
        "seed": seed,
        "clusters": {"n": 1000},
        "groups": {
            "k": 256,
            "sizes": [2] * 256,
            "family": "snp",
            "pH": 0.95,
            "targets": [{"correlation": targets[g % len(targets)]} for g in range(256)],
        },
    }


class Pipeline:
    """``report.run_pipeline`` of one config into a fresh directory."""

    def __init__(self, name, default_seed, make_config, threads, shuffle) -> None:
        self.name = name
        self.default_seed = default_seed
        self.make_config = make_config
        self.threads = threads
        self.shuffle = shuffle

    def parse(self, seed: int):
        return model.load_config(self.make_config(seed))

    def prepare(self, seed: int, workdir: Path) -> None:
        """Build the spec the gate's oracles need; not part of any timing."""
        self.config = self.make_config(seed)
        self.built = generator.build_spec(model.load_config(self.config))
        spec = self.built.spec
        profile = spec.profile
        levels = [np.asarray(v.levels, dtype=float) for v in profile.variables]
        probs = [[profile.cell(c, p).as_array() for p in range(profile.variable_count)]
                 for c in range(profile.cluster_count)]
        means = np.array([[lv @ pr for lv, pr in zip(levels, row)] for row in probs])
        squares = np.array([[(lv**2) @ pr for lv, pr in zip(levels, row)] for row in probs])
        self.cells = spec.clusters.subjects * profile.variable_count
        self.expectation = checks.PipelineExpectation(
            names=[v.name for v in profile.variables],
            levels=[v.levels for v in profile.variables],
            means=means,
            variances=squares - means**2,
            weights=spec.clusters.weights,
            counts=spec.clusters.counts,
            pinned=checks.PINNED[self.name] if seed == self.default_seed else None,
        )

    def run(self, out: Path) -> dict[str, Path]:
        return report.run_pipeline(self.config, out, threads=self.threads, shuffle=self.shuffle)

    def generate(self, threads: int):
        return generator.generate(self.built.spec, threads=threads, shuffle=self.shuffle)


ASSOCIATE_COLUMNS = tuple(range(0, 192, 3))


def write_associate_input(seed: int, path: Path) -> None:
    """Write the associate-6k input: 64 columns of the shuffled 6000-subject linkage dataset."""
    built = generator.build_spec(model.load_config(linkage_config(6000, seed)))
    dataset = generator.generate(built.spec, shuffle=True)
    names = [dataset.variable_names[p] for p in ASSOCIATE_COLUMNS]
    values = dataset.values[:, ASSOCIATE_COLUMNS]
    np.savetxt(path, values, fmt="%d", delimiter=",", header=",".join(names), comments="")


class Associate:
    """``synthcat associate`` for v, vcc and tauc over one input CSV."""

    name = "associate-6k"
    default_seed = 58
    threads = 0

    def argv(self, data: Path, measure: str, out: Path) -> list[str]:
        return ["associate", "--data", str(data), "--measure", measure, "--out", str(out)]

    def parse(self, seed: int):
        return cli.build_parser().parse_args(self.argv(Path("input.csv"), "v", Path("out")))

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write the input CSV and derive the oracles from the file.

        The input is generated in a child process, so that generating it
        does not set the benchmark process's peak memory.
        """
        self.data = workdir / "associate_input.csv"
        script = Path(__file__).resolve().parent / "associate_input.py"
        # subprocess.run waits for the child and kills it on timeout; unlike
        # multiprocessing's spawn it leaves no resource-tracker process behind.
        subprocess.run([sys.executable, str(script), str(seed), str(self.data)],
                       check=True, timeout=120)
        with open(self.data) as f:
            names = f.readline().rstrip("\n").split(",")
        values = np.loadtxt(self.data, dtype=np.int64, delimiter=",", skiprows=1)
        self.cells = len(checks.MEASURES) * values.size
        self.expectation = checks.AssociationExpectation(names, values)

    def run(self, out: Path) -> dict[str, Path]:
        with contextlib.redirect_stdout(io.StringIO()):
            for measure in checks.MEASURES:
                code = cli.main(self.argv(self.data, measure, out))
                if code != 0:
                    raise RuntimeError(f"synthcat associate --measure {measure} exited {code}")
        return {
            f"{measure}_{kind}.csv": out / f"{measure}_{kind}.csv"
            for measure in checks.MEASURES
            for kind in ("matrix", "long")
        }


# Name -> constructor; ``prepare`` fills in a fresh instance per run.
WORKLOADS = {
    "linkage-60k": lambda: Pipeline(
        "linkage-60k", 58, lambda seed: linkage_config(60000, seed), threads=2, shuffle=True
    ),
    "wide-512": lambda: Pipeline("wide-512", 7, wide_config, threads=1, shuffle=False),
    "associate-6k": Associate,
}
