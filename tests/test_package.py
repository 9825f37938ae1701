"""The package's public surface."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import twistsense

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
README = ROOT / "README.md"


def test_every_exported_name_resolves_once():
    names = twistsense.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(twistsense, name)] == []


def test_exports_are_the_names_the_readme_documents():
    # Every name in backticks in the Library section, up to its example.
    section = README.read_text().split("## Library", 1)[1].split("```python", 1)[0]
    assert set(re.findall(r"`(\w+)`", section)) == set(twistsense.__all__)


def test_the_package_keeps_three_caches():
    # One memo per carrier (its mode holds the generators, each memoizing its
    # own eigensystem) and the one D block of the field derivative. Every
    # functools cache defined in a module or a class of the package, by
    # qualified name, with its maxsize.
    caches = {}
    for info in pkgutil.walk_packages(twistsense.__path__, "twistsense."):
        module = importlib.import_module(info.name)
        owners = [module] + [
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for owner in owners:
            for value in vars(owner).values():
                fn = getattr(value, "__func__", value)
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    name = f"{fn.__module__}.{fn.__qualname__}"
                    caches[name] = fn.cache_parameters()["maxsize"]
    assert caches == {
        "twistsense.protocols.spin_mode": 32,
        "twistsense.bosonic_limit.fock_mode": 32,
        "twistsense.spin_core._in_eigenbasis": 1,
    }


def test_dense_reference_check_runs_on_numpy_alone():
    # The runtime depends on numpy only, so the command line, its dense
    # reference check and the README's library example must never import
    # scipy.
    script = (
        "import re, sys, twistsense.cli\n"
        "assert twistsense.cli.main(['validate', '--only', 'dense_reference']) == 0\n"
        "text = open(sys.argv[1]).read()\n"
        "(block,) = re.findall(r'```python\\n(.*?)```', text, re.S)\n"
        "exec(block, {})\n"
        "assert 'scipy' not in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script, str(README)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "PASS protocols.dense_reference" in run.stdout
