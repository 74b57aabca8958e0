"""No dead code in ``src/``: every function, method and class defined there
is referenced by name from ``src/`` or from the benchmark
(``perfbench/*.py``), outside its own body.

The scan is by name, not by binding: a method counts as reached when any
attribute, name, import or identifier string (as ``getattr`` and
``mock.patch.object`` take) of that name appears elsewhere.  So it misses
a dead method that shares its name with a live one.  Names Python calls itself (``__init__`` and the
like) are exempt.  A name reached only through a string built at run
time would be flagged; none is.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Oracles that only tests call, each the plain form of what a run computes
# another way.
TEST_ORACLES = {
    "experiment.BuiltExperiment.eval_model": "the eval model averaged from the "
    "servers' models, against which the tests hold ``_Evaluator``'s buffered one",
    "models.loss": "the cross-entropy alone, which the gradient checks (acceptance "
    "criterion 02 among them) difference; runs get it from ``loss_and_grad``",
    "models.local_sgd_step": "one SGD step, the reference that acceptance "
    "criterion 01 and the tests fold into ``local_training``'s in-place steps",
}


def _references(tree: ast.AST) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs[node.value] += 1
    return refs


def _definitions(tree: ast.AST, module: str):
    """(qualified name, def node) of every function, method and class."""
    defs = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{prefix}.{child.name}", child))
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return defs


def unreached(src: Path = SRC, users=()) -> list[str]:
    """Qualified names of the definitions under ``src`` that neither ``src``
    nor the ``users`` files reference outside their own bodies."""
    refs, defs = Counter(), []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        refs += _references(tree)
        module = ".".join(path.relative_to(src).with_suffix("").parts[1:])
        defs += _definitions(tree, module or path.stem)
    for path in users:
        refs += _references(ast.parse(path.read_text(), str(path)))
    dead = []
    for qualname, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own = sum(_references(stmt)[name] for stmt in node.body)
        if refs[name] <= own:
            dead.append(qualname)
    return dead


def test_every_definition_in_src_is_reached():
    dead = unreached(users=sorted((ROOT / "perfbench").glob("*.py")))
    extra = sorted(set(dead) - set(TEST_ORACLES))
    assert not extra, f"defined in src/ but referenced nowhere: {', '.join(extra)}"


def test_every_test_oracle_is_still_defined_and_unreached():
    # An oracle that a run starts to call, or that is deleted, leaves the list.
    dead = unreached(users=sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(TEST_ORACLES) == sorted(set(dead) & set(TEST_ORACLES))


def test_the_scan_sees_dead_code(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import functools\n"
        "def used(): return recursive(3)\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def dead(): return dead()\n"
        "def by_string(): pass\n"
        "class Box:\n"
        "    def __init__(self): self.open()\n"
        "    def open(self): pass\n"
        "    def shut(self): pass\n"
        "    def helper(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "patched = getattr(functools, 'by_string', None)\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from pkg.mod import Box, used\nBox().helper\nused()\n")
    assert unreached(tmp_path, [user]) == ["mod.dead", "mod.Box.shut"]
