"""The package's public names: ``__all__`` and the imported names agree."""

import inspect

import synthcat


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
