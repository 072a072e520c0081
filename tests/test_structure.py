"""Where the library keeps its file-writing policy, and the names the
benchmark tracer wraps.

Every CSV goes through ``natsel.trainer``'s table writer, which owns the
cell format and the write-then-rename that keeps an artifact complete or
absent.  So no other module may import ``csv`` or call ``os.replace``.

``perfbench/tracer.py`` rebinds library attributes from outside and
counts ``GradTape._entries``; a name it cannot find blanks that layer's
metrics, so each one must resolve.
"""

import ast
import types
from pathlib import Path

import pytest

import natsel
from natsel.tensor import GradTape

SOURCES = sorted(Path(natsel.__file__).parent.glob("*.py"))
WRITER = "trainer.py"


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names
                      if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "csv":
                found.append("from csv import ...")
            elif node.module == "os" and any(a.name == "replace"
                                             for a in node.names):
                found.append("from os import replace")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "replace"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "os"):
            found.append(f"os.replace call on line {node.lineno}")
    return found


def test_only_the_table_writer_module_writes_csv_or_renames():
    assert WRITER in [path.name for path in SOURCES]
    bad = {path.name: _violations(ast.parse(path.read_text()))
           for path in SOURCES if path.name != WRITER}
    assert not {name: v for name, v in bad.items() if v}


def test_the_check_sees_each_form():
    text = ("import csv\nfrom csv import writer\nfrom os import replace\n"
            "import os\nos.replace('a', 'b')\n")
    assert len(_violations(ast.parse(text))) == 4
    assert _violations(ast.parse(
        "import os\n'a'.replace('a', 'b')\nos.path.join('a')\n")) == []


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip(f"no benchmark tracer at {path}")
    # compiled from its text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_name_the_tracer_wraps_resolves():
    tracer = _tracer_module()
    missing = [f"{owner}.{attr}" for owner, attr, _ in tracer.WRAPPED
               if getattr(tracer._resolve(owner), attr, None) is None]
    assert missing == []
    assert isinstance(GradTape()._entries, list)
