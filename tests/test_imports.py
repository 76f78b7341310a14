"""No module imports a name it does not use, no package module imports
another module's private name, and no configuration field is dead.

Every module of the package and of the tests is parsed with the standard
``ast`` module.  An imported name must be read somewhere in its module or
be listed in the module's ``__all__``; ``from __future__`` imports are
exempt.  An attribute chain such as ``np.fft.fft2`` reads its root name.
A name with one leading underscore is private to its module: the package
may not import one (``from .measures import _blocks``), while tests may,
since some check private helpers on purpose.  Every ExperimentConfig
field must be read as an attribute somewhere in the package outside
``config._validate`` and ``ExperimentConfig.as_dict``: a key that is only
validated and echoed into report bodies changes no result.
"""

import ast
import dataclasses
from pathlib import Path

from expsqlab import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "expsqlab").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that ``source`` never reads
    and does not export."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


def test_scan_finds_a_stray_import():
    assert unused_imports("import os\nimport numpy as np\nx = np.pi\n") == [(1, "os")]
    assert unused_imports("from a import b, c\n__all__ = ['b']\nc()\n") == []


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every private name that ``source`` imports from
    another module (dunder names such as ``__version__`` are public)."""
    return [
        (node.lineno, a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    ]


def test_scan_finds_a_private_import():
    assert private_imports("from .measures import _blocks, sample_ensemble\n") == [(1, "_blocks")]
    assert private_imports("from . import __version__\nfrom .a import b\n") == []


def test_no_private_imports_in_package():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for line, name in private_imports(path.read_text())
    ]
    assert found == []


def attribute_reads(source: str, skip=()) -> set[str]:
    """Names of the attributes ``source`` reads (``x.name`` in load
    context), outside the functions and classes whose dotted qualified
    names are in ``skip``."""
    reads = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if prefix + child.name not in skip:
                    visit(child, prefix + child.name + ".")
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.add(child.attr)
            visit(child, prefix)

    visit(ast.parse(source), "")
    return reads


def test_scan_finds_attribute_reads():
    source = (
        "class C:\n"
        "    def echo(self):\n        return self.a\n"
        "    def run(self):\n        self.b = self.c\n"
        "def check(cfg):\n    cfg.d\n"
    )
    assert attribute_reads(source) == {"a", "c", "d"}
    assert attribute_reads(source, {"C.echo", "check"}) == {"c"}


def test_every_config_field_is_read():
    skip = {"config.py": {"_validate", "ExperimentConfig.as_dict"}}
    read = set().union(*(attribute_reads(p.read_text(), skip.get(p.name, ())) for p in PACKAGE))
    assert [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in read] == []
