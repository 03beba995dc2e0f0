"""Layout guard: ``src/attribank`` holds only code that a run reaches.

Every top-level function or class of the package, and every public method,
must be referenced outside its own definition, in the package (``__init__``
does not count: re-exporting is not using) or in ``perfbench/``. Only
``Name``, ``Attribute`` and import nodes count, never strings. Code that
only tests call belongs in ``tests/``.

Likewise every ``TrainConfig`` field must be changed from its default
somewhere outside the tests: by a ``configs/*.json`` train section, by a
``*_TRAIN`` dict of ``perfbench/workloads.py``, or by the CLI (a sweep axis
or ``--seed``).
"""

import ast
import dataclasses
import json
import pathlib
import sys

from attribank import cli
from attribank.trainer import TrainConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "attribank"

# The ATRB writer stays beside its reader, so the file format lives in one module.
ALLOWED = {"write_embedding_file"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def definitions():
    """(qualified name, bare name, path, node) of every checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, _DEFS):
                continue
            yield node.name, node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, path, item


def references():
    """(name, path, line) of every Name, Attribute and imported name."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, node.lineno
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield alias.name.rsplit(".", 1)[-1], path, node.lineno


def unreferenced():
    refs = {}
    for name, path, line in references():
        refs.setdefault(name, []).append((path, line))
    return sorted(
        qualified for qualified, name, path, node in definitions()
        if not any(p != path or not node.lineno <= line <= node.end_lineno
                   for p, line in refs.get(name, ())))


def test_every_definition_is_referenced_outside_itself():
    assert unreferenced() == sorted(ALLOWED)



def changed_train_fields():
    """TrainConfig fields that a bundled config, a benchmark workload or the CLI varies."""
    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    sections = [json.loads(path.read_text()).get("train", {})
                for path in sorted((ROOT / "configs").glob("*.json"))]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    sections += [value for name, value in vars(workloads).items() if name.endswith("_TRAIN")]
    changed = {k for section in sections for k, v in section.items() if v != defaults[k]}
    return changed | set(cli._SWEEP_AXES.values()) | {"seed"}  # seed: every --seed flag


def test_every_train_setting_is_changed_outside_tests():
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert sorted(fields - changed_train_fields()) == []
