"""Every import of a sibling package module made inside a function closes a
module-level import cycle.

A module imports a sibling inside a function only when the sibling, through
its own module-level imports, already imports the module back, so that a
module-level import would run into a partly initialised module. Any other
function-level import of a sibling is a module-level import put off for no
reason: it hides a dependency and pays the lookup on every call.

`__init__.py` re-exports the package and is not a node of the graph.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sumprod"


def _siblings(node: ast.Import | ast.ImportFrom, modules: set[str]) -> set[str]:
    """The sibling modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".")[1] for a in node.names if a.name.startswith("sumprod.")]
    elif node.level == 1 and node.module is None:
        names = [a.name for a in node.names]
    elif node.level == 1 or (node.module or "").startswith("sumprod."):
        names = [node.module.rpartition(".")[2]]
    else:
        names = []
    return {n for n in names if n in modules}


def acyclic_local_imports(src: Path) -> list[str]:
    """`module->sibling` for every function-level import of a sibling module
    whose module-level imports do not reach back to `module`."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    modules = set(trees)
    top = {
        name: set().union(*(_siblings(s, modules) for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))))
        for name, tree in trees.items()
    }

    def reaches(start: str, goal: str) -> bool:
        seen, stack = set(), [start]
        while stack:
            here = stack.pop()
            if here == goal:
                return True
            if here not in seen:
                seen.add(here)
                stack += top[here]
        return False

    found = []
    for name, tree in trees.items():
        local = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in tree.body]
        for node in local:
            found += [f"{name}->{m}" for m in sorted(_siblings(node, modules)) if not reaches(m, name)]
    return found


def test_every_local_import_closes_a_cycle():
    assert acyclic_local_imports(SRC) == []


def test_guard_flags_a_local_import_without_a_cycle(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text(
        "import json\n\n"
        "def f():\n"
        "    from .b import g  # b imports c, which imports a\n"
        "    from .leaf import h\n"
        "    from . import leaf\n"
        "    import sumprod.leaf\n"
        "    return g, h, leaf, json\n"
    )
    (tmp_path / "b.py").write_text("from . import c\n\ndef g():\n    return c\n")
    (tmp_path / "c.py").write_text("from .a import f\n")
    (tmp_path / "leaf.py").write_text("import json\n\ndef h():\n    return json\n")
    assert acyclic_local_imports(tmp_path) == ["a->leaf", "a->leaf", "a->leaf"]
