"""Every top-level function and class in the package, and every method of
its classes but the dunders, has a user.

A definition counts as used when its name appears as an AST `Name` or
`Attribute` somewhere in `src/sumprod` outside its own definition and outside
`__init__.py` (whose re-exports use nothing), or as a string in a
`bench/*.py` file, which is how `bench/tracer.py` names the functions it
wraps (a method as "Class.method"). A method's own definition is its body; a
class's is the whole class, so its methods calling each other do not use it.
Tests do not count: a route only tests call is a test helper.

A name that only states a type is not a use: a type annotation, the class
argument of `isinstance`, or a member of a module-level alias `X = A | B`.
A class named only there is never built, so its branches never run.

Every name a module imports must appear in that module as an AST `Name` or
`Attribute`, type positions included: an import nothing reads is dead too.
`__future__` imports are directives, not names, and `__init__.py` imports
to re-export.

Every defaulted parameter of a top-level function that the package calls is
passed by some call in the package, by keyword, by position or through
`*args`: a knob no caller turns is an option that only its default runs.

No parameter of a top-level function is given the same literal by every
call in the package: with one value in use, the parameter is a constant.
A call that leaves out a defaulted parameter passes its default; one that
leaves out a required parameter, or names one the function lacks, calls a
same-named method and is skipped; one with `*args` or `**kw` varies. A
parameter no call passes is left to the knob guard above.

Every name a module-level assignment binds is read by some other statement
of the package, as an AST `Name` or `Attribute`; here a type annotation
counts as a read, so a type alias used only in annotations is live.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sumprod"
BENCH = ROOT / "bench"

# kept without a caller in the package, each for its reason
ALLOWED = {
    # the Bezout check of acceptance criterion 4: two curves of the family
    # meet in at most k^2 points unless they share a component
    "geometry.curve_pair_solutions",
    # the writer of the JSON wire format that `load_poly` reads back through
    # `poly_from_json`; the CLI itself writes no polynomial in that format
    "parsing.poly_to_json",
    # the re-check of a reducible-fiber certificate against its fiber, which
    # the tests run on every hit; the CLI reports the certificate only
    "spectrum.SigmaHit.revalidate",
    # the points a pruned grid removed; the class stays for the benchmark
    # tracer, which names `remove_sigma_rows`
    "spectrum.PrunedGrid.removed_count",
}


# defaulted parameters no call in the package passes, each for its reason
ALLOWED_KNOBS = {
    # the console entry point; `bench/run.py` and the tests pass argv
    "cli.main(argv)",
}


def _type_positions(stmt: ast.stmt) -> list[ast.AST]:
    """The subtrees of `stmt` that only state a type."""
    found = []
    if isinstance(stmt, ast.Assign) and isinstance(getattr(stmt.value, "op", None), ast.BitOr):
        found.append(stmt.value)
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            found += [a.annotation for a in every if a and a.annotation]
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2:
                found.append(node.args[1])
    return found


def _referenced(stmt: ast.stmt) -> set[str]:
    skip = {id(sub) for tree in _type_positions(stmt) for sub in ast.walk(tree)}
    names = set()
    for sub in ast.walk(stmt):
        if id(sub) in skip:
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _strings(tree: ast.AST) -> set[str]:
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _units(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of a top-level statement whose names are read apart: each
    statement of a class body, and the class's decorators and bases
    together; any other statement whole."""
    if not isinstance(stmt, ast.ClassDef):
        return [stmt]
    header = [*stmt.decorator_list, *stmt.bases, *(k.value for k in stmt.keywords)]
    return [ast.Module(body=[ast.Expr(e) for e in header], type_ignores=[]), *stmt.body]


def unused_definitions(src: Path, bench: Path) -> list[str]:
    """`module.name` of every top-level def or class, and `module.Class.name`
    of every method but the dunders, that nothing uses."""
    defs = []  # (label, name, the units of its own definition)
    units = []  # (unit, names it references)
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = _units(stmt)
            units += [(unit, _referenced(unit)) for unit in own]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, own))
            if isinstance(stmt, ast.ClassDef):
                defs += [
                    (f"{path.stem}.{stmt.name}.{sub.name}", sub.name, [sub])
                    for sub in stmt.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    strings = set().union(*(_strings(ast.parse(p.read_text())) for p in sorted(bench.glob("*.py"))))
    unused = []
    for label, name, own in defs:
        # the tracer names a method as "Class.method"
        used = name in strings or label.split(".", 1)[1] in strings or any(
            name in refs for unit, refs in units if not any(unit is mine for mine in own)
        )
        if not used:
            unused.append(label)
    return unused


def unused_imports(src: Path) -> list[str]:
    """`module.name` of every imported name its module never reads."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    return unused


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter; keyword-only ones have
    position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg == name for kw in call.keywords):
        return True
    return position is not None and any(
        isinstance(arg, ast.Starred) or k == position for k, arg in enumerate(call.args)
    )


def _functions_and_calls(src: Path) -> tuple[list, dict[str, list[ast.Call]]]:
    """(module, definition) of every top-level function of the package, and
    its calls by the name they call."""
    functions = []
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        functions += [(path.stem, s) for s in tree.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return functions, calls


def unused_knobs(src: Path) -> list[str]:
    """`module.function(parameter)` of every defaulted parameter of a
    top-level function with a caller in the package that no such call
    passes."""
    functions, calls = _functions_and_calls(src)
    unused = []
    for module, fn in functions:
        callers = calls.get(fn.name, [])
        if callers:
            unused += [
                f"{module}.{fn.name}({name})"
                for position, name in _defaulted(fn)
                if not any(_passes(call, position, name) for call in callers)
            ]
    return unused


def _bound(fn: ast.FunctionDef | ast.AsyncFunctionDef, call: ast.Call) -> dict[str, ast.expr] | None:
    """The expression each parameter of `fn` takes at `call`, defaults
    filled in; None when the call does not fit the signature."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = dict(zip([a.arg for a in positional][len(positional) - len(args.defaults):], args.defaults))
    defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    if len(call.args) > len(positional):
        return None
    bound = {a.arg: v for a, v in zip(positional, call.args)}
    bound.update((kw.arg, kw.value) for kw in call.keywords)
    names = [a.arg for a in positional + args.kwonlyargs]
    if not set(bound) <= set(names):
        return None
    for name in names:
        if name not in bound:
            if name not in defaults:
                return None
            bound[name] = defaults[name]
    return bound


def constant_arguments(src: Path) -> list[str]:
    """`module.function(parameter)` of every parameter of a top-level
    function that each package call fitting its signature gives one and the
    same literal."""
    functions, calls = _functions_and_calls(src)
    constant = []
    for module, fn in functions:
        defaults = {id(d) for d in fn.args.defaults + fn.args.kw_defaults if d is not None}
        callers = calls.get(fn.name, [])
        if any(isinstance(a, ast.Starred) for c in callers for a in c.args) or any(
            kw.arg is None for c in callers for kw in c.keywords
        ):
            continue
        bindings = [b for c in callers if (b := _bound(fn, c)) is not None]
        for name in bindings[0] if bindings else ():
            values = {ast.dump(b[name]) if isinstance(b[name], ast.Constant) else None for b in bindings}
            passed = any(id(b[name]) not in defaults for b in bindings)
            if passed and len(values) == 1 and None not in values:
                constant.append(f"{module}.{fn.name}({name})")
    return constant


def unused_constants(src: Path) -> list[str]:
    """`module.name` of every name a module-level assignment binds that no
    other top-level statement of the package reads."""
    bound = []  # (label, name, the statement binding it)
    statements = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += tree.body
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound += [(f"{path.stem}.{n.id}", n.id, stmt) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    reads = []
    for stmt in statements:
        nodes = list(ast.walk(stmt))
        names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads.append((stmt, names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}))
    return [label for label, name, own in bound if not any(name in names for stmt, names in reads if stmt is not own)]


def test_every_definition_has_a_user():
    unused = unused_definitions(SRC, BENCH)
    assert sorted(set(unused) - ALLOWED) == []
    # an exception whose definition went, or gained a user, is dropped here
    assert sorted(ALLOWED - set(unused)) == []


def test_guard_ignores_self_reference_and_init(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .m import exported\n")
    (src / "m.py").write_text(
        "def exported():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def called():\n    return 2\n\n"
        "def traced():\n    return 3\n\n"
        "class Used:\n    pass\n\n"
        "class Typed:\n    pass\n\n"
        "Alias = Used | Typed\n\n"
        "def user(x: Typed) -> Typed:\n"
        "    y: Typed = x\n"
        "    return called() if isinstance(y, Typed) else Used()\n"
    )
    (bench / "t.py").write_text("TARGETS = ('traced', 'user')\n")
    assert unused_definitions(src, bench) == ["m.exported", "m.recursive", "m.Typed"]


def test_guard_flags_an_unused_method(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.v = self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    def traced(self):\n        return 2\n\n"
        "    def orphan(self):\n        return 3\n\n"
        "def user():\n    return Box().v\n"
    )
    (bench / "t.py").write_text("TARGETS = ('Box.traced', 'user')\n")
    assert unused_definitions(src, bench) == ["m.Box.recursive", "m.Box.orphan"]


def test_every_import_is_read():
    assert unused_imports(SRC) == []


def test_import_guard_flags_an_unread_name(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import f\n")
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import compress, chain as ch\n"
        "from typing import Any\n\n"
        "def f(x: Any):\n"
        "    return ch(os.path.sep, x)\n"
    )
    assert unused_imports(tmp_path) == ["m.compress"]


def test_every_knob_is_turned():
    unused = unused_knobs(SRC)
    assert sorted(set(unused) - ALLOWED_KNOBS) == []
    assert sorted(ALLOWED_KNOBS - set(unused)) == []


def test_knob_guard_reads_keyword_position_and_star(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import uncalled\n")
    (tmp_path / "m.py").write_text(
        "def uncalled(a, b=1):\n    return a + b\n\n"
        "def by_keyword(a, b=1, *, c=2):\n    return a + b + c\n\n"
        "def by_position(a, b=1, c=2):\n    return a + b + c\n\n"
        "def by_star(a, b=1):\n    return a + b\n\n"
        "def user(xs):\n"
        "    return by_keyword(1, c=3) + by_position(1, 2) + by_star(*xs)\n"
    )
    assert unused_knobs(tmp_path) == ["m.by_keyword(b)", "m.by_position(c)"]


def test_every_argument_varies():
    assert constant_arguments(SRC) == []


def test_argument_guard_reads_defaults_methods_and_stars(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import uncalled\n")
    (tmp_path / "m.py").write_text(
        "def uncalled(a, b='x'):\n    return a + b\n\n"
        "def one_value(a, var):\n    return a + var\n\n"
        "def by_default(a, b=1):\n    return a + b\n\n"
        "def varied(a, b=1):\n    return a + b\n\n"
        "def never_passed(a, b=1):\n    return a + b\n\n"
        "def starred(a, b):\n    return a + b\n\n"
        "def double_starred(a, b):\n    return a + b\n\n"
        "def method(a, b):\n    return a + b\n\n"
        "def user(u, v, xs, kw, box):\n"
        "    return (one_value(u, 'x') + one_value(v, 'x') + by_default(u, 1) + by_default(v)\n"
        "            + varied(u, 2) + varied(v) + never_passed(u) + starred(u, 1) + starred(*xs)\n"
        "            + double_starred(u, b=1) + double_starred(u, **kw) + method(u, 1) + box.method(2))\n"
    )
    assert constant_arguments(tmp_path) == ["m.one_value(var)", "m.by_default(b)", "m.method(b)"]


def test_every_constant_is_read():
    assert unused_constants(SRC) == []


def test_constant_guard_counts_annotations_and_attributes(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import EXPORTED\n")
    (tmp_path / "m.py").write_text(
        "import re\n\n"
        "EXPORTED = 1\n"
        "_TOKEN = re.compile('x')\n"
        "_USED = 2\n"
        "_VIA_ATTRIBUTE = 3\n"
        "_TYPED: int = 4\n"
        "_SELF = [_SELF for _SELF in range(2)]\n"
        "Alias = int | str\n\n"
        "def f(x: Alias) -> int:\n"
        "    return _USED + x\n"
    )
    (tmp_path / "n.py").write_text("from . import m\n\ndef g():\n    return m._VIA_ATTRIBUTE\n")
    assert unused_constants(tmp_path) == ["m.EXPORTED", "m._TOKEN", "m._TYPED", "m._SELF"]
