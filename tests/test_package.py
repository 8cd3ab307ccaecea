"""The package namespace: each public name imports its home module on first
access and is then an ordinary attribute of the package."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import selfpower


def test_every_public_name_is_its_home_modules_object():
    names = dir(selfpower)
    for name in selfpower.__all__:
        assert name in names
        value = getattr(selfpower, name)
        if name == "BACKEND":
            continue
        home = sys.modules[f"selfpower.{selfpower._HOME[name]}"]
        assert value is getattr(home, name)
        if isinstance(value, (type, types.FunctionType)):
            # the module that defines it, not one that imported it
            assert value.__module__ == home.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from selfpower import *", namespace)
    for name in selfpower.__all__:
        assert namespace[name] is getattr(selfpower, name)


def test_plain_attributes_and_unknown_names():
    assert vars(selfpower)["BACKEND"] == "pure"
    assert vars(selfpower)["__version__"] == "0.1.0"
    with pytest.raises(AttributeError, match="module 'selfpower' has no attribute 'nope'"):
        selfpower.nope
    with pytest.raises(ImportError):
        exec("from selfpower import nope", {})


def test_import_loads_a_module_only_when_a_name_needs_it():
    probe = (
        "import sys, selfpower\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('selfpower.'))\n"
        "listed = set(selfpower.__all__) <= set(dir(selfpower))\n"
        "before = loaded()\n"
        "selfpower.solve\n"
        "print((listed, before, loaded(), 'solve' in vars(selfpower)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    solver = ["selfpower.arith", "selfpower.errors", "selfpower.minpoly", "selfpower.solver"]
    assert proc.stdout.strip() == repr((True, [], solver, True))
