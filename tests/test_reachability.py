"""Every definition in ``src/bayescomplex`` is reached from an entry point.

The entry points are the CLI (its console script and ``cli.COMMANDS``), the
demos, and the functions ``perfbench/tracing.py`` times. Reachability is by
name, read with ``ast``: a reached definition reaches every definition whose
name appears in its body, as a bare name or as an attribute. Reaching a class
reaches its class body and its dunder methods; other methods are reached by
their attribute name. A module-level name bound by an assignment (annotated
or not) is a definition too, and reaching it reaches the names in its value.
Name matching over-approximates the call graph, so a definition this test
calls unreached has no caller anywhere outside tests, and the package keeps
none: what only tests use lives under ``tests/``. In the same way, every
field of a package class is read somewhere outside tests.
"""

import ast
import importlib
import inspect
import re
import threading
from pathlib import Path

from bayescomplex import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bayescomplex"

def _names(nodes) -> set[str]:
    """Bare names and attribute names used anywhere inside nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _package(package: Path = PACKAGE) -> tuple[dict[str, str], dict[str, set[str]]]:
    """(defs, uses). defs is {module.qualname: name} for each top-level
    function, class, class method and name a module-level assignment binds.
    uses is {name: names used in the bodies of that name's definitions}; a
    class's body and its dunder methods count as the class's, and an
    assignment's value counts as its targets', so that an alias (or a table
    such as cli.SCHEMAS or cli.COMMANDS) passes reach on."""
    defs, uses = {}, {}

    def add(name, nodes, key=None):
        if key is not None:
            defs[key] = name
        uses.setdefault(name, set()).update(_names(nodes))

    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, [node], f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                body = []
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        add(item.name, [item], f"{module}.{node.name}.{item.name}")
                    else:
                        body.append(item)
                add(node.name, node.bases + body, f"{module}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            add(name.id, [node.value], f"{module}.{name.id}")
    return defs, uses


def _roots() -> set[str]:
    """Names the entry points use."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    roots = set(re.findall(r'"bayescomplex\.cli:(\w+)"', pyproject))
    assert roots, "no console script found in pyproject.toml"
    roots.add("COMMANDS")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(demo.read_text())
        roots |= _names([tree])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                roots |= {alias.name for alias in node.names}
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tracing.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            for entry in node.value.elts:
                roots |= set(entry.elts[1].value.split("."))
    return roots


def _unreached(package: Path = PACKAGE, roots: set[str] | None = None) -> set[str]:
    defs, uses = _package(package)
    reached, frontier = set(), list(_roots() if roots is None else roots)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(uses.get(name, ()))
    return {key for key, name in defs.items() if name not in reached}


def test_every_definition_is_reached():
    assert sorted(_unreached()) == []


def _unread_fields(package: Path = PACKAGE, readers: tuple[Path, ...] = ()) -> set[str]:
    """module.Class.field for each annotated name in a class body of package,
    and each self.<name> its __init__ assigns, that no .py file under readers
    reads as an attribute (an ast.Load; assigning it does not count)."""
    read = set()
    for path in sorted(p for reader in readers for p in reader.rglob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
    unread = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            fields = set()
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields.add(item.target.id)
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    fields |= {
                        sub.attr for sub in ast.walk(item)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                    }
            unread |= {f"{path.stem}.{node.name}.{name}" for name in fields - read}
    return unread


def test_every_record_field_is_read():
    """A field of a package class that only tests read is surface that no
    command, demo or benchmark uses, and the package keeps none."""
    readers = tuple(ROOT / name for name in ("src", "demos", "perfbench", "scripts"))
    assert sorted(_unread_fields(readers=readers)) == []


_RECORDS = """
from dataclasses import dataclass

@dataclass
class Record:
    used: int
    written: int
    unread: str = ""

class Failure(Exception):
    def __init__(self, value, spare):
        super().__init__(f"bad {value}")
        self.value = value
        self.spare = spare

def make():
    record = Record(used=1, written=2)
    record.written = 3
    try:
        raise Failure(record.used, 4)
    except Failure as exc:
        return exc.value
"""


def test_field_walk_names_written_and_unread_fields(tmp_path):
    (tmp_path / "toy.py").write_text(_RECORDS)
    assert _unread_fields(tmp_path, (tmp_path,)) == {
        "toy.Record.written", "toy.Record.unread", "toy.Failure.spare",
    }


# Every command, at budgets well under a second. A result check may fail at
# such a budget (exit 1); a configuration or numerical error (exit 2 or 3)
# may not.
_COMMAND_RUNS = [
    ["linear_complexity", "mc_samples=20000"],
    ["pacbayes", "n_trials=2", "n_replicas=2"],
    ["sgld_check", "steps=7000", "burn_in=1000"],
    ["nn_complexity", "eps_grid=0.2,0.14,0.1", "n_per_eps=2000", "--workers", "2"],
    ["one_change", "n_samples=2000"],
    ["codim", "n_samples=20000"],
    ["periodic", "n_grid=200"],
    ["projection_check", "n_trials=5"],
]


def _package_methods():
    """(class, attribute name, key) for each method and property, dunders
    aside, of each class a module of the package defines."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"bayescomplex.{path.stem}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            for name, attr in vars(cls).items():
                if not name.startswith("__") and (
                    inspect.isfunction(attr)
                    or isinstance(attr, (property, staticmethod, classmethod))
                ):
                    yield cls, name, f"{path.stem}.{cls.__name__}.{name}"


def test_every_method_runs_in_a_command(monkeypatch, capsys):
    """The walk above matches methods by attribute name, so a method of one
    class counts as reached when a same-named method of another class is
    called. This runs every command with every method and property of every
    package class wrapped by a call recorder, and fails on one that no
    command called."""
    assert sorted(argv[0] for argv in _COMMAND_RUNS) == sorted(cli.COMMANDS)
    called, lock = set(), threading.Lock()

    def recorder(key, fn):
        def recorded(*args, **kwargs):
            with lock:
                called.add(key)
            return fn(*args, **kwargs)
        return recorded

    methods = set()
    for cls, name, key in _package_methods():
        attr = vars(cls)[name]
        if isinstance(attr, property):
            wrapped = property(recorder(key, attr.fget), attr.fset, attr.fdel, attr.__doc__)
        elif isinstance(attr, (staticmethod, classmethod)):
            wrapped = type(attr)(recorder(key, attr.__func__))
        else:
            wrapped = recorder(key, attr)
        methods.add(key)
        monkeypatch.setattr(cls, name, wrapped)
    for argv in _COMMAND_RUNS:
        rc = cli.main(argv)
        assert rc in (0, 1), (argv, capsys.readouterr().err)
    capsys.readouterr()
    assert sorted(methods - called) == []


_TOY = """
from typing import Callable

def main():
    return SCHEMAS["run"]()

def _run():
    return _GRID

def unused():
    return _run()

class Model:
    def __init__(self):
        self.scale = SCALE

    def fit(self):
        return 1

    def stale(self):
        return 2

_GRID = (1, 2)
SCALE = 3
UNUSED_CONSTANT = 4
SCHEMAS: dict[str, Callable] = {"run": _run}
"""


def test_walk_names_unused_function_method_and_constant(tmp_path):
    (tmp_path / "toy.py").write_text(_TOY)
    assert _unreached(tmp_path, {"main", "Model", "fit"}) == {
        "toy.unused", "toy.Model.stale", "toy.UNUSED_CONSTANT",
    }


def test_annotated_table_passes_reach_on(tmp_path):
    # Without the AnnAssign case, SCHEMAS's value would reach nothing and
    # _run and _GRID would be reported although main calls them through it.
    (tmp_path / "toy.py").write_text(_TOY)
    unreached = _unreached(tmp_path, {"main"})
    assert "toy.SCHEMAS" not in unreached
    assert {"toy._run", "toy._GRID"}.isdisjoint(unreached)
    assert "toy.Model" in unreached and "toy.SCALE" in unreached
