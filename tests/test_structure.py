"""Where the library keeps its file-writing policy.

Every CSV goes through ``natsel.trainer``'s table writer, which owns the
cell format and the write-then-rename that keeps an artifact complete or
absent.  So no other module may import ``csv`` or call ``os.replace``.
"""

import ast
from pathlib import Path

import natsel

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
