"""No module imports a name it does not use, no package module imports
another module's private name, no configuration field is dead and no
exported name or method is unread.

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
that only its unit tests call is surface without a use.  The same holds
for every public method and property that a class in ``__all__``
defines (dunders and dataclass fields aside), read as an attribute, with
``UNREAD_METHODS`` as its list.  No package function takes a
``CutoffProfile`` next to a ``WickParams``, and ``SqeConfig`` holds no
``CutoffProfile``: the Wick parameters carry the cutoff their C_N was
computed from, and a second profile beside them could disagree with it.
Some facts are call-site rules: a kind of site (an import, a read, a
raise, a call) stands only in the functions named for it.  Each row of
``SITES`` is one rule: a matcher of the site and the sorted list of
(module, owner) that hold it, one site each, where an owner is the
dotted name of the enclosing function or class.  A rule with no owners
bans its site from the package.  The comment on a row gives its reason.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

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
    # the one reader of the dump format that save_fields writes
    "load_fields",
    # read by the benchmark child through getattr, so no load names it
    "KERNEL_BACKEND",
    # wrapped by the benchmark's tracer, which names its targets as strings
    "solve_sqe_projected",
    # the command drivers: the command line runs them from
    # experiments.COMMANDS, where their decorator records them, and the
    # benchmark child through getattr
    "cmd_invariance",
    "cmd_norms_bench",
    "cmd_sample_gff",
    "cmd_sqe",
    "cmd_wick_converge",
}

# public methods and properties of exported classes that no reader
# loads, as "Class.name", each kept for its reason
UNREAD_METHODS: set[str] = set()


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


def public_methods(cls) -> list[str]:
    """Names of the public methods and properties that ``cls`` defines
    itself; dunders, private names and dataclass fields are not counted."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and name not in fields
        and (callable(value) or isinstance(value, (property, staticmethod, classmethod)))
    ]


def test_scan_finds_public_methods():
    @dataclasses.dataclass(frozen=True)
    class C:
        field: int
        other: int = 0

        def method(self):
            pass

        @property
        def prop(self):
            return 1

        @staticmethod
        def static():
            pass

        def _private(self):
            pass

        def __len__(self):
            return 0

    assert public_methods(C) == ["method", "prop", "static"]


def test_every_export_is_read():
    read = set().union(*(name_reads(p.read_text()) for p in READERS))
    assert sorted(set(expsqlab.__all__) - read) == sorted(UNREAD_EXPORTS)
    classes = [c for c in map(expsqlab.__dict__.get, expsqlab.__all__) if isinstance(c, type)]
    unread = [
        f"{cls.__name__}.{name}"
        for cls in classes
        for name in public_methods(cls)
        if name not in read
    ]
    assert sorted(unread) == sorted(UNREAD_METHODS)


def _annotation_names(node) -> set[str]:
    """Names an annotation mentions, bare, as an attribute or inside a
    string annotation."""
    names = set()
    for n in ast.walk(node) if node is not None else ():
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= _annotation_names(ast.parse(n.value, mode="eval"))
    return names


def split_cutoffs(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function with a ``WickParams``-annotated and
    a ``CutoffProfile``-annotated parameter, and of every
    ``CutoffProfile`` field of a class named ``SqeConfig``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = (*a.posonlyargs, *a.args, *a.kwonlyargs)
            kinds = set().union(*(_annotation_names(x.annotation) for x in params))
            if {"WickParams", "CutoffProfile"} <= kinds:
                found.append((node.lineno, node.name))
        elif isinstance(node, ast.ClassDef) and node.name == "SqeConfig":
            found += [
                (f.lineno, f"SqeConfig.{f.target.id}")
                for f in node.body
                if isinstance(f, ast.AnnAssign)
                and "CutoffProfile" in _annotation_names(f.annotation)
            ]
    return found


def test_scan_finds_a_split_cutoff():
    source = (
        "def f(x, params: WickParams, psi: 'wick.CutoffProfile | None' = None):\n    pass\n"
        "def g(params: WickParams, *, psi: wick.CutoffProfile):\n    pass\n"
        "def h(params: WickParams, grid: TorusGrid):\n    pass\n"
        "def k(psi: CutoffProfile, level: int):\n    pass\n"
        "class SqeConfig:\n    params: WickParams\n    psi: CutoffProfile\n"
        "class WickParams:\n    psi: CutoffProfile\n"
    )
    assert split_cutoffs(source) == [(1, "f"), (3, "g"), (11, "SqeConfig.psi")]


def test_no_cutoff_travels_beside_wick_params():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for line, name in split_cutoffs(path.read_text())
    ]
    assert found == []


def owned_matches(source: str, match) -> list[tuple[int, str]]:
    """(line, dotted qualified name of the enclosing function or class, or
    ``<module>``) of every node of ``source`` that ``match`` accepts."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if match(child):
                found.append((child.lineno, owner or "<module>"))
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _uses_numpy_fft(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.fft") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return node.module.startswith("numpy.fft") or (
            node.module == "numpy" and any(a.name == "fft" for a in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "fft"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _raises(name: str):
    def match(node) -> bool:
        exc = node.exc if isinstance(node, ast.Raise) else None
        return _name(exc.func if isinstance(exc, ast.Call) else exc) == name

    return match


def _calls(name: str):
    def match(node) -> bool:
        return isinstance(node, ast.Call) and _name(node.func) == name

    return match


def _norm_of_a_temporary(node) -> bool:
    if not (
        isinstance(node, ast.Call)
        and _name(node.func) in ("sobolev_norm", "sobolev_norms")
        and node.args
    ):
        return False
    arg = node.args[0]
    return (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)) or (
        isinstance(arg, ast.Call) and _name(arg.func) == "SpectralField"
    )


# rule -> (matcher of one site, the sorted (module, owner) of every site
# the package may hold, one site each)
SITES = {
    # numpy's FFT module, used or imported: the one forward FFT, the
    # inverse transform and the grid's mode axis
    "numpy.fft": (_uses_numpy_fft, [
        ("spectral.py", "TorusGrid.__init__"),
        ("spectral.py", "scaled_fft"),
        ("spectral.py", "to_values"),
    ]),
    # the overflow bound, bare or as an attribute: the one guard of the
    # flows and the one of the Wick exponential read it, and the error's
    # message names it
    "OVERFLOW_EXPONENT": (
        lambda node: _name(node) == "OVERFLOW_EXPONENT" and isinstance(node.ctx, ast.Load),
        [
            ("dynamics.py", "_guarded"),
            ("wick.py", "WickOverflowError.__init__"),
            ("wick.py", "wick_exp_values"),
        ],
    ),
    # the same two guards raise the overflow error
    "raise WickOverflowError": (_raises("WickOverflowError"), [
        ("dynamics.py", "_guarded"),
        ("wick.py", "wick_exp_values"),
    ]),
    # a lost finiteness fails its guard as an overflow, never bare
    "raise FloatingPointError": (_raises("FloatingPointError"), []),
    # the norm kernel takes a difference through ``minus`` and a block
    # stack as one bare array, so no norm is handed a subtraction or a
    # field wrapped around an array for the call
    "norm of a temporary": (_norm_of_a_temporary, []),
    # the one Wick exponential and the two flows' exponentials of grid
    # values that no cutoff projects
    "scaled_exp": (_calls("scaled_exp"), [
        ("dynamics.py", "_full_flow"),
        ("dynamics.py", "_shifted_flow"),
        ("wick.py", "wick_exp"),
    ]),
    # the flows' one exponential-Euler step applies the heat multiplier;
    # the OU chain and a stored path's increments decay by the same one
    "heat_multiplier": (_calls("heat_multiplier"), [
        ("dynamics.py", "_mild_step"),
        ("dynamics.py", "_ou_increments"),
        ("randomfields.py", "ou_chain"),
    ]),
    # a run's root stream, named after its command: the driver builds it
    # and hands it to the command's body
    "RngStream": (_calls("RngStream"), [("experiments.py", "_driver.decorate.cmd")]),
    # the step transforms the drift's forcing; the field constructor and
    # the Wick gaps of one replica are the forward transform's other callers
    "to_coeffs": (_calls("to_coeffs"), [
        ("dynamics.py", "_mild_step"),
        ("experiments.py", "cmd_wick_converge.one"),
        ("spectral.py", "to_spectral"),
    ]),
}


def sites(source: str, rules=SITES) -> list[tuple[int, str, str]]:
    """(line, owner, rule) of every site in ``source`` that a rule of
    ``rules`` matches, owners as ``owned_matches`` gives them, in line
    order."""
    return sorted(
        (line, owner, rule)
        for rule, (match, _) in rules.items()
        for line, owner in owned_matches(source, match)
    )


# sources with sites where the rules allow none, and every site each holds
STRAYS = {
    "numpy.fft": (
        "import numpy as np\n"
        "from numpy.fft import rfft\n"
        "class G:\n    def __init__(self):\n        self.k = np.fft.fftfreq(4)\n"
        "def f(x):\n    return numpy.fft.ifft(x)\n"
        "def g(x):\n    fft = np.fft\n    return fft.fft(x)\n"
        "def h(x):\n    from numpy import fft\n    return np.sum(x)\n",
        [(2, "<module>", "numpy.fft"), (5, "G.__init__", "numpy.fft"), (7, "f", "numpy.fft"),
         (9, "g", "numpy.fft"), (12, "h", "numpy.fft")],
    ),
    "guard": (
        "OVERFLOW_EXPONENT = 700.0\n"
        "def _guarded(peaks):\n"
        "    if peaks > OVERFLOW_EXPONENT:\n        raise WickOverflowError(peaks)\n"
        "class Flow:\n    def step(self, x):\n"
        "        if x > wick.OVERFLOW_EXPONENT:\n            raise FloatingPointError('lost')\n"
        "def f():\n    raise wick.WickOverflowError\n"
        "def g():\n    raise ValueError(OVERFLOW)\n",
        [
            (3, "_guarded", "OVERFLOW_EXPONENT"),
            (4, "_guarded", "raise WickOverflowError"),
            (7, "Flow.step", "OVERFLOW_EXPONENT"),
            (8, "Flow.step", "raise FloatingPointError"),
            (10, "f", "raise WickOverflowError"),
        ],
    ),
    "norm": (
        "def f(a, b):\n    return sobolev_norm(a - b, 0.0)\n"
        "def g(grid, c):\n    return spectral.sobolev_norm(SpectralField(grid, c), -1.0)\n"
        "class K:\n    def h(self, a, b, grid):\n"
        "        return sobolev_norms(a - b, grid, (0.0,))\n"
        "def ok(a, b, grid, field, w):\n"
        "    sobolev_norms(a, grid, (0.0,), minus=b)\n"
        "    sobolev_norms(field.coeffs * w, grid, (0.0,))\n"
        "    sobolev_norm(a + b, 0.5)\n"
        "    sobolev_norm(field, 0.5) - sobolev_norm(field, 0.0)\n",
        [(2, "f", "norm of a temporary"), (4, "g", "norm of a temporary"),
         (7, "K.h", "norm of a temporary")],
    ),
    "scaled_exp": (
        "def wick_exp(c):\n    return scaled_exp(to_values(c), 1.0, 0.0)\n"
        "class Flow:\n    def step(self, v):\n"
        "        scaled_exp(v, 1.0, 0.0)\n        return wick.scaled_exp(v, 2.0, 0.0)\n"
        "def ok(v):\n    return wick_exp(v), scaled_exp\n",
        [(2, "wick_exp", "scaled_exp"), (5, "Flow.step", "scaled_exp"),
         (6, "Flow.step", "scaled_exp")],
    ),
    "step": (
        "def _mild_step(state, forcing, grid, dt, spec):\n"
        "    state -= to_coeffs(forcing, grid, out=spec)\n"
        "    state *= heat_multiplier(grid, dt)\n"
        "class Flow:\n    def step(self, state, grid):\n"
        "        state *= spectral.heat_multiplier(grid, 0.1)\n"
        "def f(v, grid):\n    return to_coeffs(v, grid), heat_multiplier\n",
        [
            (2, "_mild_step", "to_coeffs"),
            (3, "_mild_step", "heat_multiplier"),
            (6, "Flow.step", "heat_multiplier"),
            (8, "f", "to_coeffs"),
        ],
    ),
    "RngStream": (
        "def _driver(command):\n    def decorate(run):\n"
        "        def cmd(cfg):\n            return run(RngStream(cfg.seed, purpose=command))\n"
        "def cmd_sqe(cfg, grid):\n    stream = rng.RngStream(cfg.seed, purpose='sqe')\n"
        "def ok(stream: RngStream):\n    return stream.child('init').for_replica(2)\n",
        [(4, "_driver.decorate.cmd", "RngStream"), (6, "cmd_sqe", "RngStream")],
    ),
}


@pytest.mark.parametrize("source, expected", STRAYS.values(), ids=STRAYS)
def test_scan_finds_stray_sites(source, expected):
    assert sites(source) == expected


@pytest.mark.parametrize("rule", SITES)
def test_sites_of_each_rule(rule):
    found = [
        (path.name, owner)
        for path in PACKAGE
        for _, owner, _ in sites(path.read_text(), {rule: SITES[rule]})
    ]
    assert sorted(found) == SITES[rule][1]
