"""Where the library keeps its file-writing policy, and the names the
benchmark tracer wraps and the counts it takes.

Every CSV goes through ``natsel.trainer``'s table writer, which owns the
cell format and the write-then-rename that keeps an artifact complete or
absent.  So no other module may import ``csv`` or call ``os.replace``.

The posterior has one home, ``natsel.model.softmax_rows``: scoring, the
loss and evaluation all read it, so no module but ``model.py`` may
reach for ``np.exp``.

A metrics row is built in one place per split: ``_train_record`` builds
the train row, ``evaluate`` the test row and ``read_metrics_csv`` reads
rows back, so no other function may construct a ``MetricsRecord``.

``perfbench/tracer.py`` rebinds library attributes from outside and
counts ``GradTape._entries``; a name it cannot find blanks that layer's
metrics, so each one must resolve.  Its composite and tape-record counts
must also agree with what a run of stacked seeds writes.

The conv stage walks its input run by run and block by block in one
place, ``Classifier._blocks``: the conv forward and its pullback each
loop over that walk, so no other code in ``natsel/model.py`` loops over
``self._block``.

The parameter layout lives in ``natsel.model``: the training loop
steps a classifier's whole ``vector`` with one gradient and one
velocity, so ``natsel/trainer.py`` never reads ``.parameters``.

Every setting of ``ExperimentConfig`` has one home, the ``config._SCHEMA``
key that sets it, so no field can be left half-wired with a placeholder.

A stack's training settings are ``train``'s argument, one
``TrainConfig``, so no field of ``natsel.trainer.Run`` holds one.

The criterion-3 reference loop, ``tests/conftest.py::train_erm``, takes
its step from ``natsel.trainer``'s public API only.  It shares the row
builders ``_Step`` and ``_train_record`` on purpose, so both loops'
rows are built alike; any other private name would lend it the
subject's own step.
"""

import ast
import collections
import dataclasses
import types
import typing
from pathlib import Path

import pytest

import natsel
import natsel.trainer
from natsel.cli import run_experiment
from natsel.config import _SCHEMA, ExperimentConfig, parse_config, set_keys
from natsel.tensor import GradTape
from natsel.trainer import Run, TrainConfig, read_metrics_csv

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


POSTERIOR = "model.py"


def _exp_uses(tree: ast.AST) -> list[str]:
    """Every reach for numpy's ``exp``: imported by name, or read as an
    attribute of ``np`` or ``numpy``, called or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "numpy" and any(a.name == "exp"
                                              for a in node.names):
                found.append("from numpy import exp")
        elif (isinstance(node, ast.Attribute) and node.attr == "exp"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.append(f"{node.value.id}.exp on line {node.lineno}")
    return found


def test_only_the_model_module_exponentiates():
    assert POSTERIOR in [path.name for path in SOURCES]
    bad = {path.name: _exp_uses(ast.parse(path.read_text()))
           for path in SOURCES if path.name != POSTERIOR}
    assert not {name: v for name, v in bad.items() if v}


def test_the_exp_check_sees_each_form():
    text = ("import numpy as np\nimport numpy\nfrom numpy import exp\n"
            "np.exp(1.0)\nnumpy.exp(2.0)\nf = np.exp\n")
    assert len(_exp_uses(ast.parse(text))) == 4
    assert _exp_uses(ast.parse(
        "np.expm1(1.0)\nmath.exp(1.0)\nnp.log(1.0)\nx.exp()\n")) == []


ROW_BUILDERS = {"_train_record", "evaluate", "read_metrics_csv"}


def _row_constructions(tree: ast.AST) -> list[str]:
    """Every ``MetricsRecord(...)`` call outside ``ROW_BUILDERS``, named
    by its enclosing function (``<module>`` at the top level) and
    line."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "MetricsRecord" and where not in ROW_BUILDERS:
                found.append(f"{where}, line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_the_row_builders_construct_metrics_records():
    bad = {path.name: _row_constructions(ast.parse(path.read_text()))
           for path in SOURCES}
    assert not {name: v for name, v in bad.items() if v}


def test_the_row_check_sees_a_constructor_call_elsewhere():
    text = ("def evaluate():\n    return MetricsRecord(0)\n"
            "def train():\n    rows.append(trainer.MetricsRecord(1))\n"
            "    def inner():\n        MetricsRecord(2)\n"
            "ROW = MetricsRecord(3)\n")
    assert _row_constructions(ast.parse(text)) == [
        "train, line 4", "inner, line 6", "<module>, line 7"]
    assert _row_constructions(ast.parse(
        "def train():\n    replace(row, seconds=1.0)\n")) == []


ORACLE = Path(__file__).resolve().parent / "conftest.py"
ORACLE_SHARED = {"_Step", "_train_record"}


def _oracle_trainer_names(tree: ast.Module) -> set[str]:
    """The ``natsel.trainer`` names that ``train_erm`` uses: those it
    imports itself, those it reads of the module's imports from there,
    and ``natsel.trainer.<name>`` attributes."""
    imported = {alias.asname or alias.name: alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module == "natsel.trainer"
                for alias in node.names}
    (loop,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "train_erm"]
    used = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.ImportFrom) and node.module == "natsel.trainer":
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and node.id in imported:
            used.add(imported[node.id])
        elif (isinstance(node, ast.Attribute)
              and ast.unparse(node.value) == "natsel.trainer"):
            used.add(node.attr)
    return used


def _oracle_private_names(tree: ast.Module) -> list[str]:
    return sorted(_oracle_trainer_names(tree)
                  - set(natsel.trainer.__all__) - ORACLE_SHARED)


def test_the_reference_loop_uses_public_trainer_names_and_the_row_builders():
    tree = ast.parse(ORACLE.read_text())
    assert ORACLE_SHARED <= _oracle_trainer_names(tree)
    assert _oracle_private_names(tree) == []


def test_the_oracle_check_sees_a_private_name_each_way():
    text = ("from natsel.trainer import _check_finite, _Step, evaluate\n"
            "def train_erm():\n"
            "    from natsel.trainer import _taped_step, _train_record\n"
            "    _check_finite(_Step, evaluate)\n"
            "    natsel.trainer._gather()\n"
            "def other():\n"
            "    from natsel.trainer import _replacing\n")
    assert _oracle_private_names(ast.parse(text)) == [
        "_check_finite", "_gather", "_taped_step"]


LOOP = "trainer.py"


def _parameter_reads(tree: ast.AST) -> list[str]:
    """Every ``<expr>.parameters`` attribute, read or written."""
    return [f"{ast.unparse(node)} on line {node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "parameters"]


def test_the_training_loop_never_reads_the_parameter_views():
    (path,) = [path for path in SOURCES if path.name == LOOP]
    assert _parameter_reads(ast.parse(path.read_text())) == []


def test_the_parameter_check_sees_each_read():
    text = ("velocity = [np.zeros_like(p) for p in model.parameters]\n"
            "tape.register(*runs[0].model.parameters)\n"
            "params = getattr(model, 'vector')\n")
    assert _parameter_reads(ast.parse(text)) == [
        "model.parameters on line 1", "runs[0].model.parameters on line 2"]
    assert _parameter_reads(ast.parse(
        "tape.register(model.vector)\nparameters = 1\n")) == []


WALKER = "model.py"


def _block_loops(tree: ast.AST) -> list[str]:
    """Every ``for`` loop or comprehension whose iterable reads
    ``self._block``, directly or through a name a function binds to it,
    named by its enclosing class and method and the line of its
    iterable.  A loop in a nested function counts for its method."""
    found = []

    def is_block(node, aliases):
        return (isinstance(node, ast.Attribute) and node.attr == "_block"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self") or (
            isinstance(node, ast.Name) and node.id in aliases)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{where}.{child.name}" if where else child.name
                walked = list(ast.walk(child))
                aliases = {target.id for n in walked
                           if isinstance(n, ast.Assign)
                           and is_block(n.value, ())
                           for target in n.targets
                           if isinstance(target, ast.Name)}
                found.extend(
                    f"{name}, line {n.iter.lineno}" for n in walked
                    if isinstance(n, (ast.For, ast.AsyncFor,
                                      ast.comprehension))
                    and any(is_block(m, aliases) for m in ast.walk(n.iter)))

    visit(tree, "")
    return found


def test_only_the_block_walker_loops_over_the_conv_block():
    (path,) = [path for path in SOURCES if path.name == WALKER]
    loops = _block_loops(ast.parse(path.read_text()))
    assert [loop.split(",")[0] for loop in loops] == ["Classifier._blocks"]


def test_the_block_check_sees_a_second_loop():
    text = ("class Classifier:\n"
            "    def _blocks(self, xs):\n"
            "        for s in range(0, len(xs), self._block):\n"
            "            yield s\n"
            "    def _conv_act(self, xs):\n"
            "        step = self._block\n"
            "        for s in range(0, len(xs), step):\n"
            "            pass\n"
            "    def _conv_grad(self, xs):\n"
            "        def pull():\n"
            "            return [s for s in range(0, 9, self._block)]\n")
    assert _block_loops(ast.parse(text)) == [
        "Classifier._blocks, line 3", "Classifier._conv_act, line 7",
        "Classifier._conv_grad, line 11"]
    assert _block_loops(ast.parse(
        "class C:\n    def f(self, xs):\n"
        "        buf = np.zeros(min(len(xs), self._block))\n"
        "        for blk in self._blocks(xs):\n            buf += blk\n"
        "        for s in range(0, 9, other._block):\n            pass\n"
        )) == []


# Dataclass fields that one key sets as a whole.
WHOLE = {"train.layout"}


def _leaf_paths(obj, prefix=""):
    """The dotted path of every field of ``obj``, recursing into nested
    dataclasses other than those in ``WHOLE``."""
    for f in dataclasses.fields(obj):
        path = prefix + f.name
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value) and path not in WHOLE:
            yield from _leaf_paths(value, path + ".")
        else:
            yield path


def _homeless(config) -> list[str]:
    """Leaf fields of ``config`` that no key, or more than one, sets."""
    homes = collections.Counter(key.path for key in _SCHEMA.values())
    return [path for path in _leaf_paths(config) if homes[path] != 1]


def test_every_config_field_is_set_by_one_key():
    assert _homeless(ExperimentConfig()) == []


def test_the_key_check_sees_a_nested_field_without_a_key():
    extra = dataclasses.make_dataclass(
        "Extra", [("seed", int, 0)], bases=(TrainConfig,), frozen=True)
    config = ExperimentConfig(train=extra(
        **{f.name: getattr(ExperimentConfig().train, f.name)
           for f in dataclasses.fields(TrainConfig)}))
    assert _homeless(config) == ["train.seed"]


def _holds(hint, kind) -> bool:
    """Whether the type ``hint`` is ``kind`` or has it among its
    arguments, at any depth (``kind | None``, ``tuple[kind, ...]``)."""
    return hint is kind or any(_holds(arg, kind)
                               for arg in typing.get_args(hint))


def _settings_fields(run_type) -> list[str]:
    """Fields of the named tuple ``run_type`` whose type holds a
    ``TrainConfig``."""
    hints = typing.get_type_hints(run_type)
    return [name for name in run_type._fields
            if _holds(hints[name], TrainConfig)]


def test_no_run_field_holds_the_stack_settings():
    assert _settings_fields(Run) == []


def test_the_settings_check_sees_a_field_that_holds_them():
    old = typing.NamedTuple("Old", [
        ("config", TrainConfig), ("seed", int),
        ("plans", tuple[TrainConfig, ...] | None)])
    assert _settings_fields(old) == ["config", "plans"]


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


@pytest.mark.parametrize("keys", [
    {},
    {"dataset.channels": "3", "model.conv_kernel": "3",
     "grouping.layout": "1x2", "experiment.seeds": "2024,2025"},
], ids=["mlp", "conv"])
def test_the_tracer_counts_a_stacked_run_as_its_csvs_do(tmp_path, keys):
    # Two epochs of the reference config's seeds (its three for the MLP,
    # two of 8x8x3 images through a 3x3 conv in 1x2 groups), one stack:
    # one backward per stacked step, two tape records each, and one
    # traced scoring call per seed per step, whose composites the CSVs
    # count.
    root = Path(__file__).resolve().parents[1]
    config = set_keys(
        parse_config((root / "configs" / "reference.ini").read_text()),
        {"train.epochs": "2", "experiment.output_dir": str(tmp_path),
         **keys})
    tracer = _tracer_module().Tracer(run_id="stacked")
    tracer.install()
    try:
        run_experiment(config, echo=lambda *args, **kwargs: None)
    finally:
        tracer.uninstall()
    composites = sum(
        r.ns_forward_passes for seed in config.seeds
        for r in read_metrics_csv(tmp_path / config.label
                                  / f"metrics_{seed}.csv"))
    assert tracer.missing == []
    assert tracer.composites == composites > 0
    assert tracer.steps == 2 * 32
    assert tracer.tape_records / tracer.steps == 2
