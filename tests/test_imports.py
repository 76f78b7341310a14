"""No module imports a name it does not use, no package module imports
another module's private name, no configuration field is dead and no
exported name is unread.

Every module of the package and of the tests is parsed with the standard
``ast`` module.  An imported name must be read somewhere in its module or
be listed in the module's ``__all__``; ``from __future__`` imports are
exempt.  An attribute chain such as ``np.fft.fft2`` reads its root name.
A name with one leading underscore is private to its module: the package
may not import one (``from .measures import _blocks``), while tests may,
since some check private helpers on purpose.  Every field of
ExperimentConfig, SqeConfig, WickParams and CutoffProfile must be read as
an attribute somewhere in the package outside ``config._validate``,
``ExperimentConfig.as_dict`` and the class's own ``__post_init__``: a
value that is only validated and echoed into report bodies changes no
result.  Every name in ``expsqlab.__all__`` must be read outside its own
definition by the package, the acceptance battery or the benchmark, or
be on the short ``UNREAD_EXPORTS`` list with its reason: a public name
that only its unit tests call is surface without a use.
"""

import ast
import dataclasses
from pathlib import Path

import expsqlab
from expsqlab import CutoffProfile, ExperimentConfig, SqeConfig, WickParams

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "expsqlab").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted(
    [*PACKAGE, ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
)
CONFIG_CLASSES = (ExperimentConfig, SqeConfig, WickParams, CutoffProfile)

# exported names that no reader loads, each kept for its reason
UNREAD_EXPORTS = {
    # a constructor, the counterpart of zero_field
    "constant_field",
    # the one reader of the dump format that save_fields writes
    "load_fields",
    # the reference test_blocked compares invariance_test's resampling against
    "resample_stationary",
    # read by the benchmark child through getattr, so no load names it
    "KERNEL_BACKEND",
    # wrapped by the benchmark's tracer, which names its targets as strings
    "solve_sqe_projected",
}


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
    for cls in CONFIG_CLASSES:
        module = cls.__module__.rpartition(".")[2] + ".py"
        skip.setdefault(module, set()).add(f"{cls.__qualname__}.__post_init__")
    read = set().union(*(attribute_reads(p.read_text(), skip.get(p.name, ())) for p in PACKAGE))
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in CONFIG_CLASSES
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []


def name_reads(source: str) -> set[str]:
    """Names ``source`` loads, bare (``f``) or as an attribute
    (``mod.f``), except inside the function or class that defines them."""
    reads = set()

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, owners | {child.name})
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                name = child.id if isinstance(child, ast.Name) else child.attr
                if name not in owners:
                    reads.add(name)
            visit(child, owners)

    visit(ast.parse(source), frozenset())
    return reads


def test_scan_finds_name_reads():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    other = C\n"
        "def g():\n    return mod.h(f)\n"
        "X = 1\n"
    )
    assert name_reads(source) == {"mod", "h", "f", "n"}


def test_every_export_is_read():
    read = set().union(*(name_reads(p.read_text()) for p in READERS))
    assert sorted(set(expsqlab.__all__) - read) == sorted(UNREAD_EXPORTS)
