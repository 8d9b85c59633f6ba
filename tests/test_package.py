"""The package namespace is lazy: `import translink` loads nothing else,
and every public name resolves to its defining module's object."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import translink

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_submodule_and_no_numpy():
    probe = (
        "import sys, translink; print(*sorted(m for m in sys.modules "
        "if m == 'numpy' or m.startswith(('numpy.', 'translink.'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "\n")


def test_public_names_are_the_defining_modules_objects():
    submodules = [
        importlib.import_module(f"translink.{info.name}")
        for info in pkgutil.iter_modules(translink.__path__)
    ]
    for name in translink.__all__:
        value = getattr(translink, name)
        holders = [m for m in submodules if name in vars(m)]
        assert holders, name
        assert all(vars(m)[name] is value for m in holders), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert vars(sys.modules[value.__module__])[name] is value, name


def test_dir_covers_all():
    assert set(translink.__all__) <= set(dir(translink))
    assert "__version__" in dir(translink)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        translink.no_such_name


def test_version_is_tool_version():
    from translink.config_io import TOOL_VERSION

    assert translink.__version__ is TOOL_VERSION
