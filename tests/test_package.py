"""The package namespace: each public name imports its home module on first
access and is then an ordinary attribute of the package."""

import ast
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
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


def test_readme_library_example_runs_and_states_its_values():
    # README's python block runs as written; each bare expression's value is
    # the one its comment states
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace: dict = {}
    values = []
    for statement in ast.parse(blocks[0]).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    solutions, rational, interval = values
    assert namespace["binomial"] == (6561, 9, 256)
    assert namespace["target"] is namespace["binomial"]
    assert solutions == (Fraction(8, 27), Fraction(4, 9))
    assert rational == (2, 1, 3)
    lo, hi = interval
    assert 0 < hi - lo <= Fraction(1, 10**9)
    # the exact bracket of x^x = 2
    compare = selfpower.compare_self_power_to_rational
    assert compare(lo, Fraction(2)) is selfpower.Ordering.LESS
    assert compare(hi, Fraction(2)) is selfpower.Ordering.GREATER


def _sources_python_o_could_change(root: Path) -> list[str]:
    """Each place in root's .py files where python -O could change what the
    code does (an assert, a __debug__ name, a sys.flags read), and each line
    naming set_int_max_str_digits, the process-wide int/str digit limit."""
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        for number, line in enumerate(text.splitlines(), 1):
            if "set_int_max_str_digits" in line:
                found.append(f"{path.name}:{number}: set_int_max_str_digits")
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Assert):
                what = "assert"
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                what = "__debug__"
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "flags"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                what = "sys.flags"
            else:
                continue
            found.append(f"{path.name}:{node.lineno}: {what}")
    return found


def test_source_holds_nothing_python_o_changes():
    # a check that guards an answer must be an explicit raise, since python -O
    # strips asserts; with no assert, __debug__ or sys.flags in the package,
    # -O runs the same code.  The package reads and writes long integers in
    # pieces instead of setting the process-wide int/str digit limit
    root = Path(__file__).resolve().parents[1] / "src"
    assert sorted(root.rglob("*.py"))
    assert _sources_python_o_could_change(root) == []
