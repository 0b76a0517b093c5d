"""Golden digests: pinned configs must keep producing the same bytes.

Criterion 9 compares runs made by one build; these digests compare across
code versions.  A change to the generation path that alters any of them
changes what a (config, seed) pair means, and must not be re-pinned to
make this test pass.
"""

import hashlib
import json

import pytest

from synthcat.report import run_pipeline
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
