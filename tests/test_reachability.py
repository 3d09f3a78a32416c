"""Every function, class and method of the library is named by the library,
and every defaulted parameter is set by some call in it.

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

A default that no library call overrides is a parameter only the tests set;
its value belongs in the body as a literal.  Calls are matched by short name
in the same way.

An annotated class field counts as read when its name is loaded, as a name
or an attribute, anywhere in ``src/bdspin``; a store such as
``self.field = ...`` does not count.  The short-name limit holds here too: a
field named ``func`` would count as read by the coefficient terms' ``.func``.
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


# the verify reports, which ``cli`` writes whole with ``dataclasses.asdict``
WRITTEN_WHOLE = {"DominationReport", "BoundsCheckReport", "CutoffStudyReport",
                 "GronwallReport", "MomentGrowthReport", "CadlagReport"}


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` for every annotated field of a top-level class
    in ``sources`` (module name -> source text) whose name no code there
    loads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loaded = {sub.id if isinstance(sub, ast.Name) else sub.attr
              for tree in trees.values() for sub in ast.walk(tree)
              if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
    return [f"{module}.{node.name}.{field.target.id}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for field in node.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in loaded]


def test_field_guard_flags_an_unread_field():
    source = ("class Point:\n"
              "    x: float\n    y: float\n    label: str = ''\n"
              "    def __post_init__(self):\n        self.label = str(self.x)\n"
              "class Report:\n    passed: bool\n"
              "Point(1.0, 2.0).x\n")
    assert unread_fields({"m": source}) == ["m.Point.y", "m.Point.label", "m.Report.passed"]


def test_every_field_is_read():
    found = unread_fields({p.stem: p.read_text() for p in MODULES})
    assert [qualname for qualname in found if qualname.split(".")[1] not in WRITTEN_WHOLE] == []


# the id-keyed view of a trajectory; everything else reads its phantom table
ID_KEYED = {"presence"}


def test_only_birth_death_reads_the_id_keyed_phantom():
    """``Trajectory.__post_init__`` derives the phantom table, whose row k is
    the k-th smallest phantom id, and no other module derives it again."""
    readers = {p.stem: Counter(name for name in _names(ast.parse(p.read_text()))
                               if name in ID_KEYED)
               for p in MODULES if p.stem != "birth_death"}
    assert {module: dict(reads) for module, reads in readers.items() if reads} == {}



# defaulted parameters no library call sets, each for a stated reason
UNSET_ALLOWED = {
    "cli.main.argv": "the console entry point calls main(); tests pass argv",
}


def _functions(body, prefix: str, in_class: bool = False):
    """(qualified name, node, takes self or cls) for every function in
    ``body``, nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}.{node.name}", in_class=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                         for d in node.decorator_list)
            yield f"{prefix}.{node.name}", node, bound
            yield from _functions(node.body, f"{prefix}.{node.name}")


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` (at call position
    ``position``, None for keyword-only); a ``*`` or ``**`` argument may pass
    any parameter after it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) or i == position for i, arg in
               enumerate(call.args[:position + 1]))


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """``module.function.parameter`` for every defaulted parameter in
    ``sources`` (module name -> source text) that no call there sets, by
    keyword or by position.  A call through an attribute does not pass the
    ``self`` or ``cls`` of a method, and a class's name calls its
    ``__init__``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        for qualname, node, bound in _functions(tree.body, module):
            name = qualname.split(".")[-2] if node.name == "__init__" else node.name
            params = node.args.posonlyargs + node.args.args
            defaulted = [(arg.arg, i - bound) for i, arg in enumerate(params)
                         if i >= len(params) - len(node.args.defaults)]
            defaulted += [(arg.arg, None) for arg, default in
                          zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
            found += [f"{qualname}.{param}" for param, position in defaulted
                      if not any(_sets(call, param, position) for call in calls.get(name, ()))]
    return found


def test_parameter_guard_flags_an_unset_default():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
              "f(0, 1)\nf(0, e=5)\n"
              "def g(a, b=1):\n    return a\n"
              "g(*[0, 1])\n"
              "class Box:\n"
              "    def __init__(self, side=1.0):\n        self.side = side\n"
              "    def scaled(self, f=2.0, g=3.0):\n        return f * g\n"
              "Box(2.0).scaled(0.5)\n")
    assert unset_defaults({"m": source}) == ["m.f.c", "m.f.d", "m.Box.scaled.g"]


def test_every_default_is_set_by_the_library():
    found = unset_defaults({p.stem: p.read_text() for p in MODULES})
    assert sorted(found) == sorted(UNSET_ALLOWED)
