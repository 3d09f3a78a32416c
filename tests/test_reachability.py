"""Every function, class and method of the library is named by the library.

A definition that only the tests reach belongs in the tests (``oracles.py``).
This walks each module's syntax tree with the standard library, as
``test_unused_imports`` does.  A definition counts as reached when its name
appears as a name or an attribute anywhere in ``src/bdspin`` outside its own
body; the re-exports of ``bdspin/__init__.py`` do not count, and dunder
methods are exempt, since Python calls them.

Matching is by short name: ``Trajectory.b_max`` would count as reached by any
``.b_max``, such as the kernels' own, and ``Box.volume`` by
``Window.volume()``.  A member that shares its name with a used one is
therefore not caught here and has to be found by hand.
"""

import ast
from collections import Counter

from test_unused_imports import MODULES

# reached only from tests or the benchmark today, each for a stated reason
ALLOWED = {
    "birth_death.Trajectory.present_ids": "bench/checks.py counts the final state with it",
}


def _names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreached(sources: dict[str, str]) -> list[str]:
    """Qualified names (``module.name`` or ``module.Class.method``) of the
    top-level definitions and methods that no other code in ``sources``
    (module name -> source text) names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [qualname for qualname, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and named[node.name] == Counter(_names(node))[node.name]]


def test_guard_flags_an_unused_name():
    source = ("def used():\n    return 1\n"
              "def unused():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Box:\n"
              "    def __len__(self):\n        return used()\n"
              "    def size(self):\n        return len(self)\n"
              "    def spare(self):\n        return 0\n"
              "Box().size\n")
    assert unreached({"m": source}) == ["m.unused", "m.recursive", "m.Box.spare"]


def test_every_definition_is_reached():
    found = unreached({p.stem: p.read_text() for p in MODULES})
    assert sorted(found) == sorted(ALLOWED)


# the id-keyed view of a trajectory; everything else reads its phantom table
ID_KEYED = {"presence"}


def test_only_birth_death_reads_the_id_keyed_phantom():
    """``Trajectory.__post_init__`` derives the phantom table, whose row k is
    the k-th smallest phantom id, and no other module derives it again."""
    readers = {p.stem: Counter(name for name in _names(ast.parse(p.read_text()))
                               if name in ID_KEYED)
               for p in MODULES if p.stem != "birth_death"}
    assert {module: dict(reads) for module, reads in readers.items() if reads} == {}

