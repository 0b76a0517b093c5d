"""The package's public names: ``__all__`` and the imported names agree, and
the README's library example runs as written."""

import inspect
import json
from pathlib import Path

import synthcat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_exists():
    missing = [name for name in synthcat.__all__ if not hasattr(synthcat, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(synthcat.__all__) == len(set(synthcat.__all__))


def test_exports_are_the_public_attributes():
    public = {
        name
        for name, value in vars(synthcat).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(synthcat.__all__) - {"__version__"} == public


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    raw = {
        "seed": 3,
        "clusters": {"n": 200},
        "groups": {
            "sizes": [3, 2],
            "family": "snp",
            "pH": 0.9,
            "targets": [{"correlation": 0.3}, {"correlation": 0.4}],
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(code, namespace)
    assert namespace["config"] == synthcat.load_config(raw)
    assert namespace["data"].positions.shape == (200, 5)
    assert namespace["exact"].correlation.shape == namespace["pearson"].values.shape == (5, 5)
