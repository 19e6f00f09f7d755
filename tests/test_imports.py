"""Nothing is left behind in the grpf sources when code is deleted.

No linter ships with the project, so these are the checks:

* every module-level import is used in its own module (``__init__.py`` is
  exempt: its imports are the package's re-exports);
* every module-level def and class is mentioned somewhere in ``src/grpf``
  outside its own body;
* every method of a module-level class in ``src/grpf`` (dunders exempt) is
  mentioned somewhere in ``src/grpf``, ``tests`` or ``demos`` outside its
  own body: test oracles and public API may be used only there;
* the package keeps no module state beyond the version, the verify items
  and the CLI parser: no module-level assignment else, and no
  ``functools`` cache on any function;
* the README module map and the ``grpf`` package docstring name every
  module (the dunder ones aside), and neither names a module that is gone.
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "grpf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, gcd\n"
        "print(os.sep, comb(3, 2))\n"
    )
    assert unused_imports(source) == [(3, "osp"), (4, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(tree):
    """Every name a module mentions: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_definitions(sources):
    """Module-level defs and classes that no code outside their own body mentions.

    ``sources`` maps a module name to its source text; the result lists
    (module, name) pairs.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    counts = Counter(ref for tree in trees.values() for ref in _references(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = sum(ref == node.name for ref in _references(node))
                if counts[node.name] == inside:
                    dead.append((module, node.name))
    return sorted(dead)


def test_dead_definition_detector():
    sources = {
        "a": "def used():\n    return 1\n\ndef unused():\n    return unused()\n",
        "b": "from a import used\n\nclass Kept:\n    pass\n\nprint(used(), Kept)\n",
        "c": "import a\n\ndef helper():\n    pass\n\nx = a.helper\n",
    }
    assert dead_definitions(sources) == [("a", "unused")]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_definitions(sources) == []


def dead_methods(sources, owners):
    """Methods of module-level classes in ``owners`` that no code mentions.

    ``sources`` maps a module name to its source text and ``owners`` names
    the modules whose classes are checked; a method counts as used when
    any module mentions its name outside the method's own body.  Dunders
    are called by the language, so they are exempt.  The result lists
    (module, "Class.method") pairs.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    counts = Counter(ref for tree in trees.values() for ref in _references(tree))
    dead = []
    for module in owners:
        for cls in trees[module].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                inside = sum(ref == node.name for ref in _references(node))
                if counts[node.name] == inside:
                    dead.append((module, f"{cls.name}.{node.name}"))
    return sorted(dead)


def test_dead_method_detector():
    sources = {
        "a": (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.x = self.used_here()\n"
            "    def used_here(self):\n"
            "        return 1\n"
            "    def oracle(self):\n"
            "        return 2\n"
            "    def dead(self):\n"
            "        return self.dead()\n"
        ),
        "test_a": "from a import Box\n\nassert Box().oracle() == 2\n",
    }
    assert dead_methods(sources, ["a"]) == [("a", "Box.dead")]


def test_every_method_is_referenced():
    paths = [*SRC.glob("*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    owners = [str(p.relative_to(ROOT)) for p in SRC.glob("*.py")]
    assert dead_methods(sources, owners) == []


def module_state(sources):
    """Module-level assignments and functools-cached functions, as (module, name)."""
    state = []
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                state += [(module, ast.unparse(t)) for t in targets]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    head = deco.func if isinstance(deco, ast.Call) else deco
                    if ast.unparse(head).split(".")[-1] in ("cache", "lru_cache", "cached_property"):
                        state.append((module, f"{node.name} (cached)"))
    return sorted(state)


def test_module_state_detector():
    sources = {
        "a": (
            "import functools\n"
            "from functools import cache\n"
            "X = 1\n"
            "y: int = 2\n"
            "@functools.lru_cache(maxsize=8)\n"
            "def f(n):\n"
            "    local = n\n"
            "    return local\n"
            "class K:\n"
            "    attr = 3\n"
            "    @cache\n"
            "    def g(self):\n"
            "        return 1\n"
        ),
    }
    assert module_state(sources) == [
        ("a", "X"), ("a", "f (cached)"), ("a", "g (cached)"), ("a", "y"),
    ]


def test_only_module_state_is_version_items_and_parser():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert module_state(sources) == [
        ("__init__.py", "__version__"), ("cli.py", "_PARSER"), ("verify.py", "ITEMS"),
    ]


def module_map(readme):
    """The modules named in the first column of the README's module map."""
    section = readme.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return sorted(name for row in rows for name in re.findall(r"`grpf\.(\w+)`", row))


def test_module_map_detector():
    readme = (
        "# x\n\n## Module map\n\n| module | contents |\n| --- | --- |\n"
        "| `grpf.a`, `grpf.b` | uses `grpf.c` |\n| `grpf.d` | d |\n\n"
        "Prose naming `grpf.e`.\n\n## Next\n\n| `grpf.f` | f |\n"
    )
    assert module_map(readme) == ["a", "b", "d"]


def test_docs_name_every_module():
    modules = sorted(p.stem for p in MODULES if not p.stem.startswith("__"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert module_map(readme) == modules
    # nowhere else in the README, and nowhere in the package docstring, is a
    # module named that does not exist
    assert set(re.findall(r"grpf\.(\w+)", readme)) <= set(modules)
    package_doc = ast.get_docstring(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")))
    assert sorted(set(re.findall(r":mod:`grpf\.(\w+)`", package_doc))) == modules
    assert set(re.findall(r"grpf\.(\w+)", package_doc)) <= set(modules)
