"""The package namespace is lazy: `import translink` loads nothing else,
and every public name resolves to its defining module's object. The
declared dependencies cover every third-party import of the tests and
the benchmark."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_declared_extras_cover_third_party_imports():
    """A fresh install of the package with its `test` extra can import every
    module that tests/ and bench/ import, apart from the standard library and
    their own modules."""
    import tomllib

    root = SRC.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower() for req in requirements}
    files = [*root.glob("tests/*.py"), *root.glob("bench/**/*.py")]
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    own = {path.stem for path in files} | {"translink"}
    third_party = imported - set(sys.stdlib_module_names) - own
    assert "numpy" in third_party and "pytest" in third_party
    assert third_party - declared == set()
