"""Golden digests: pinned configs must keep producing the same bytes.

Criterion 9 compares runs made by one build; these digests compare across
code versions.  A change to the generation path that alters any of them
changes what a (config, seed) pair means, and must not be re-pinned to
make this test pass.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synthcat.cli import main
from synthcat.generator import GeneratorSpec, generate
from synthcat.model import ClusterSpec, ProbabilityVector, ProfileMatrix, VariableDomain, load_config
from synthcat.report import RunResult, run_pipeline, write_artifacts
from test_acceptance import EXPLICIT_CONFIG, LADDER_CONFIG, LINKAGE_CONFIG

GOLDEN = {
    "explicit": (
        EXPLICIT_CONFIG,
        False,
        "89cbf60635a2fa6c19d39d8e48490d8d9cdf56354adcf3ccce4c16aca8b3bfdb",
        "6a0f60b2052fe4f120b86b9fe475a34b2541733ab3278171e1c46bf6a66449a6",
    ),
    "ladder": (
        LADDER_CONFIG,
        False,
        "9b2672eb35094825f16c1e47e646ec933e3e1fc121e9571322fa803b494730b3",
        "9f7cd00e03f83455577c9b5ae38654718f04794e3d7c4ec04a9dddc0bb23f703",
    ),
    "linkage-shuffled": (
        LINKAGE_CONFIG,
        True,
        "01a89baf9dc8cdd45720f5a2bd6a0ecf7ba82061e0cdc467abbdcb2d8a7b6b6e",
        "4f75ed314a686107243787e207fc3744a270f8e6258c58b60ad9549c17ead5a3",
    ),
}


def explicit_spec(widths, counts, seed):
    """A profile over 0-based levels whose cells mix zero and positive probabilities.

    Level j of column p in cluster c has weight (3c + 7j + p) mod 5, so
    every fifth level or so has probability 0, and no cell is all zeros.
    """
    variables = tuple(VariableDomain(f"x{p}", tuple(range(m))) for p, m in enumerate(widths))
    rows = []
    for c in range(len(counts)):
        row = []
        for p, m in enumerate(widths):
            weights = [(3 * c + 7 * j + p) % 5 for j in range(m)]
            row.append(ProbabilityVector(tuple(w / sum(weights) for w in weights)))
        rows.append(tuple(row))
    return GeneratorSpec(ClusterSpec.from_counts(counts), ProfileMatrix(variables, tuple(rows)), seed)


# The arrays ``generate`` returns, pinned below any writer: name -> (widths,
# counts, seed, positions dtype, sha256 of positions.tobytes(), sha256 of
# assignments.tobytes()), each drawn shuffled on 3 threads.
GENERATED = {
    "mixed-widths": (
        (2, 3, 5, 17, 2, 3, 5, 17, 3),
        (13, 0, 58, 129),
        2024,
        "uint8",
        "05a3d99bd8f27e91ba0050abec406c9907a0c0b6934dd4041cab004eb35a5a2b",
        "98e596bc4f581ef1b51c01f7c9e6cc2577ef44bedb4f7a47fe9eef638461c88b",
    ),
    "uint16": (
        (300, 2, 3),
        (97, 203),
        99,
        "uint16",
        "7a0d57c4808dc33c2aa4bdbedaedef33b99c663d9981acc3d3b1ce5159677602",
        "fe6daeda8036912bbbb0f9410fbd7717553ae7d4101ce69094a878e7c165e9da",
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_arrays_match_golden_digests(name):
    widths, counts, seed, dtype, positions_digest, assignments_digest = GENERATED[name]
    dataset = generate(explicit_spec(widths, counts, seed), threads=3, shuffle=True)
    assert str(dataset.positions.dtype) == dtype
    assert hashlib.sha256(dataset.positions.tobytes()).hexdigest() == positions_digest
    assert hashlib.sha256(dataset.assignments.tobytes()).hexdigest() == assignments_digest


# Artifacts made only of Python float arithmetic and json/hashlib, so their
# digests hold on every machine: name -> (manifest config_sha256,
# calibration_report.csv digest or None for a config without targets).
PURE_PYTHON = {
    "explicit": (
        "a5f0593c349db81dfb388a53fa7a8885824f030d368284434eef4a25e899ba93",
        None,
    ),
    "ladder": (
        "017997993580fa08e170efb55222e07a15540b48477a6b5f1e42edd7b1137af3",
        "b80243b61ec2cab47b8fb21abc4b64b00f93fb2203d5e0c65afd305981ba73bf",
    ),
    "linkage-shuffled": (
        "d074eced2b40cb7ce61fd144fe1fffe4865979f895b9696f488cdc58b2bec4ac",
        "7f599cd5bae1f1a076c4414419b829ebd88e831a778c3ebe61810c6f729767db",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_bytes_match_golden_digests(name, tmp_path):
    config, shuffle, dataset_digest, allocation_digest = GOLDEN[name]
    paths = run_pipeline(config, tmp_path, shuffle=shuffle)
    assert sha256(paths["dataset.csv"]) == dataset_digest
    assert sha256(paths["allocation.txt"]) == allocation_digest


@pytest.mark.parametrize("name", sorted(PURE_PYTHON))
def test_config_and_calibration_digests_match_golden(name, tmp_path):
    config, shuffle, _, _ = GOLDEN[name]
    config_digest, calibration_digest = PURE_PYTHON[name]
    paths = run_pipeline(config, tmp_path, shuffle=shuffle)
    manifest = json.loads(paths["manifest.json"].read_text())
    assert manifest["config_sha256"] == config_digest
    if calibration_digest is None:
        assert "calibration_report.csv" not in paths
    else:
        assert sha256(paths["calibration_report.csv"]) == calibration_digest


# sample_pearson.csv of each golden run.  Its sums are exact integers in
# float64 and its last steps are elementwise IEEE operations, so these
# digests hold on every machine and BLAS build.
SAMPLE_PEARSON = {
    "explicit": "6c7d688afe27c443844d3b3c096ad9ba645ce250aa61e25b9ed6cea6eea8a257",
    "ladder": "1b923d4cb7de1a52d7a78e947737f7822225eeeca7fc3b3c590a5eb1a387f327",
    "linkage-shuffled": "fe2adb14f8bc05ac66997327f3875fba9d7a12b77d81c6381de1f92a524e1dfb",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_PEARSON))
def test_sample_pearson_digests_match_golden(name, tmp_path):
    config, shuffle, _, _ = GOLDEN[name]
    paths = run_pipeline(config, tmp_path, shuffle=shuffle)
    assert sha256(paths["sample_pearson.csv"]) == SAMPLE_PEARSON[name]


# The other artifacts of each golden run that are computed in floating point,
# comparison.json (written by ``report``, not ``run_pipeline``) included.  The
# theoretical moments are fixed-order elementwise IEEE operations with no
# BLAS product, so these digests hold on every machine and BLAS build too.
THEORETICAL = {
    "explicit": {
        "theoretical_covariance.csv": "1b9965187bac096a3f77ba637fe6fc43299a5f6991cfe94566e8886d75788236",
        "theoretical_correlation.csv": "125b415a1628a1488a1341ad3b7039b51b1d4c7da31de55223b19e29febc360d",
        "group_summary.csv": "ea65d7644e22e3d873d75d69ed8ec8a8de01e2e8095fd4a10140bef17d956140",
        "comparison.json": "bdb88076361fcde40605625b23c1f2b0ba3aef7507df678124b9f2db6308c64a",
    },
    "ladder": {
        "theoretical_covariance.csv": "276b26e655a067d1ea13612f4344e6bb1bbca6f2d94ac693df8c5f228568ff60",
        "theoretical_correlation.csv": "88e5a0bc3678ad4821cd71b6e2990c6c62a59655798faafcbf73e0d6537f0199",
        "group_summary.csv": "627f591e31394fa2a4b561d842261b100e343ec91607de2af05525ee7c3c58b2",
        "comparison.json": "c7c30e2e6911ccb16c24be6e848a6aa24fc3de6af6495f8ec87f32861c47e33f",
    },
    "linkage-shuffled": {
        "theoretical_covariance.csv": "3cdc2e676bf9a2a4e0776cba85c61dc1aa71a2de90ac9514c16a500a3debcc80",
        "theoretical_correlation.csv": "102eade60977f48a0372c0859bcee7295cf94adef5c1aeacc197c57878b52840",
        "group_summary.csv": "912267f60b37ac900afc3866e1d4295731b76c47027892b05477ce23f6f04524",
        "comparison.json": "0319163e2e61bba702357abd72bb0f4758908803100f0ff92e81a5539779e32b",
    },
}


def pinned_digests(name):
    """Every artifact digest pinned above for one golden config."""
    _, _, dataset_digest, allocation_digest = GOLDEN[name]
    pins = {"dataset.csv": dataset_digest, "allocation.txt": allocation_digest}
    if PURE_PYTHON[name][1] is not None:
        pins["calibration_report.csv"] = PURE_PYTHON[name][1]
    pins["sample_pearson.csv"] = SAMPLE_PEARSON[name]
    pins.update(THEORETICAL[name])
    return pins


@pytest.mark.parametrize("name", sorted(THEORETICAL))
def test_theoretical_digests_match_golden(name, tmp_path):
    config, shuffle, _, _ = GOLDEN[name]
    paths = run_pipeline(config, tmp_path, shuffle=shuffle)
    paths.update(write_artifacts(RunResult(config, shuffle=shuffle), tmp_path, ["comparison.json"]))
    assert {artifact: sha256(paths[artifact]) for artifact in THEORETICAL[name]} == THEORETICAL[name]


# The canonical form of configs that together use every schema key, integral
# floats included: the sha256 of json.dumps(load_config(config),
# sort_keys=True), which is the text a manifest's config_sha256 is taken over.
CANONICAL = {
    "profile-weights": (
        {
            "seed": 7.0,
            "clusters": {"C": 2.0, "n": 10.0, "weights": [0.25, 0.75]},
            "variables": [
                {"name": "x1", "levels": [0.0, 1.0], "kind": "ordinal"},
                {"name": "x2", "levels": [1, 2, 3]},
            ],
            "profile": [
                [[0.1, 0.9], [0.2, 0.3, 0.5]],
                [[1, 0], [0.5, 0.3, 0.2]],
            ],
        },
        "158f3bcdbb7ebefcc61c9b0ccb8927ced0efb349076f1a125b76e4c1ec1b93b6",
    ),
    "profile-counts": (
        {
            "seed": 3,
            "clusters": {"counts": [4.0, 6]},
            "variables": [{"name": "a", "levels": [0, 1], "kind": "nominal"}],
            "profile": [[[0.5, 0.5]], [[0.25, 0.75]]],
        },
        "4c20da59d23dcc49f314b2a184922f3d85cd5a4c33c2286afa6e5330f90d393e",
    ),
    "snp-correlation": (
        {
            "seed": 11,
            "clusters": {"n": 600.0},
            "groups": {
                "k": 4.0,
                "sizes": [2, 3.0, 2, 2],
                "family": "snp",
                "pH": 0.9,
                "targets": [
                    {"correlation": 0.3}, {"correlation": 0.4},
                    {"correlation": 0.2}, {"correlation": 0.5},
                ],
            },
            "noise": [{"name": "z1", "levels": [0, 1.0, 2], "probs": [0.25, 0.5, 0.25]}],
        },
        "c5d97c9ea08de67b298e9b411d216990af177eb1735dca0cda5c5aa865f13439",
    ),
    "binary-covariance": (
        {
            "seed": 2**64 - 1,
            "clusters": {"C": 4, "n": 100, "weights": [0.1, 0.2, 0.3, 0.4]},
            "groups": {
                "sizes": [2, 2],
                "family": "binary",
                "pH": 1,
                "targets": [{"covariance": 0.05}, {"covariance": 0.02}],
            },
            "noise": [],
        },
        "68cdd8de669107875c397d049f6bee32f0d14a8cb3edbb14b7cea0f160314a3e",
    ),
    "explicit": (
        {
            "seed": 0,
            "clusters": {"C": 6, "counts": [5, 5, 5, 5, 5, 5]},
            "groups": {
                "k": 4,
                "sizes": [1, 1, 1, 1],
                "family": "explicit",
                "H": [0.2, 0.8],
                "L": [0.8, 0.2],
            },
            "noise": [
                {"name": "n1", "levels": [-1, 1], "probs": [0.5, 0.5]},
                {"name": "n2", "levels": [0, 5, 9], "probs": [0.2, 0.3, 0.5]},
            ],
        },
        "85421c0304203df641b6094f4eb7ed504a35bd8d4654666f558dcb23d167feb6",
    ),
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_config_digests_match_golden(name):
    raw, digest = CANONICAL[name]
    config = load_config(raw)
    assert hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest() == digest
    assert load_config(config) == config


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_manifest_config_reloads_to_itself(name, tmp_path):
    config, shuffle, _, _ = GOLDEN[name]
    paths = run_pipeline(config, tmp_path, shuffle=shuffle)
    manifest = json.loads(paths["manifest.json"].read_text())
    assert json.loads(json.dumps(load_config(manifest["config"]))) == manifest["config"]


# Run in a fresh interpreter: rerun a ladder manifest (argv[1]) into argv[2],
# add comparison.json, and print every artifact's digest.
_LADDER_RERUN = """
import hashlib, json, sys
from pathlib import Path
from synthcat.report import RunResult, run_from_manifest, write_artifacts
from test_acceptance import LADDER_CONFIG
paths = run_from_manifest(sys.argv[1], sys.argv[2])
paths.update(write_artifacts(RunResult(LADDER_CONFIG), sys.argv[2], ["comparison.json"]))
del paths["manifest.json"]
print(json.dumps({k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}))
"""


@pytest.mark.parametrize("coretype", [None, "Prescott", "SandyBridge"])
def test_ladder_digests_hold_under_other_blas_kernels(coretype, tmp_path):
    """The nearest thing to a second machine that one host offers.

    OPENBLAS_CORETYPE makes an OpenBLAS built for several CPUs use another
    CPU's kernels (other BLAS builds ignore it).  The manifest is written
    here and verified by ``run_from_manifest`` under the other kernels; an
    artifact that passed through a BLAS product would change its bytes.
    """
    manifest = run_pipeline(LADDER_CONFIG, tmp_path / "run")["manifest.json"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    tests = Path(__file__).parent
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run(
        [sys.executable, "-c", _LADDER_RERUN, str(manifest), str(tmp_path / "rerun")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == pinned_digests("ladder")


def _ladder_dataset(tmp_path):
    """The ladder run's dataset.csv: one digit per field, as ``d,d,...,d\\n``."""
    return run_pipeline(LADDER_CONFIG, tmp_path / "run")["dataset.csv"]


def _recoded_ladder_dataset(tmp_path):
    """The ladder dataset with code c of column p written as 13 ((c + p) mod 3) - 12.

    Its codes are -12, 1 and 14, in another order in two of every three columns.
    """
    lines = _ladder_dataset(tmp_path).read_text().splitlines()
    rows = [
        ",".join(str(13 * ((int(x) + p) % 3) - 12) for p, x in enumerate(line.split(",")))
        for line in lines[1:]
    ]
    path = tmp_path / "recoded.csv"
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return path


# ``synthcat associate --data`` on two fixed inputs: name -> (input maker,
# {file: sha256}) for the v, vcc and tauc matrix and long files.
ASSOCIATE = {
    "one-digit": (
        _ladder_dataset,
        {
            "v_matrix.csv": "637a95352d4d9463882b2fec634c7520f76fa18c062539a90b94db6985dc179c",
            "v_long.csv": "a931d7ece983bac3492e6852c401710769f3bd170d0662d0d559dc17df85b6ec",
            "vcc_matrix.csv": "e7c70017f97d8dea62c1d4bebea69a917d0f106069428db05e99ea922a1d87b7",
            "vcc_long.csv": "d8ebcf0bdda391160fff55e03b0b9a95afb0b0bf91e7129b33c4331b5d871388",
            "tauc_matrix.csv": "97faccf8694684fe5184b444b9ae47d71b8851d62bf51dd892b0ed9a2a9bf934",
            "tauc_long.csv": "5c231141c4fafb88a159446c29afdf93fe7f7d75bb92bce090b0ab3e8aa498c5",
        },
    ),
    "multi-digit": (
        _recoded_ladder_dataset,
        {
            "v_matrix.csv": "428dbc3cf0345cb990c844580343d58a950f40daccdfd1ce7d2be92cbbc8bad5",
            "v_long.csv": "6b31d71cc300ab95e01bff849f5ae43565dc6745e6e304c227101e943c8893df",
            "vcc_matrix.csv": "4ccf67c9599be0bfb25e2f2e2343aec115feab7cbf83cae9c4de7f24aaa094d3",
            "vcc_long.csv": "e288a593af8a5545a7e50a3e77aeecae42ac3804f705f127e24186ce85ef4c80",
            "tauc_matrix.csv": "5b02f7a993cc565ea6fcaa9ab6c0b62319fdaccc63a16f9c5bc06048a28ab173",
            "tauc_long.csv": "19b5268cbf4ca045e33247c7c1a4e680568b226391dae66c422d3a9f0ff69bb4",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(ASSOCIATE))
def test_associate_digests_match_golden(name, tmp_path):
    make_input, digests = ASSOCIATE[name]
    data = make_input(tmp_path)
    out = tmp_path / "associate"
    for measure in ("v", "vcc", "tauc"):
        assert main(["associate", "--data", str(data), "--measure", measure, "--out", str(out)]) == 0
    assert {artifact: sha256(out / artifact) for artifact in digests} == digests
