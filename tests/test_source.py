import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prymrep"


def test_every_private_helper_is_referenced():
    # a private function or class that no name, attribute or import in the
    # package refers to is dead code; a string that names it does not count
    defined, used = {}, set()
    for src in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(src.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, f"{src.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined, SRC
    assert sorted(f"{at} {name}" for name, at in defined.items() if name not in used) == []


def _names(tree):
    """Every name, attribute and imported name in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _public_defs(tree):
    """The public module-level functions and classes of a module, and the
    public methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_public_name_is_used():
    # a public module-level function or class, or a public method or
    # property of a class, that no module of the package names (__init__
    # only re-exports), no benchmark file names and no README code span
    # documents serves the tests alone, and belongs with them; cli.main
    # reaches the cmd_* functions through globals()
    modules = {src.name: ast.parse(src.read_text())
               for src in sorted(SRC.glob("*.py")) if src.name != "__init__.py"}
    used = set().union(*map(_names, modules.values()))
    for bench in sorted((ROOT / "benchmarks").glob("*.py")):
        used |= _names(ast.parse(bench.read_text()))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        used.update(re.findall(r"\w+", span))
    assert len(modules) > 5 and "evaluate" in used
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in modules.items() for node in _public_defs(tree)
              if not node.name.startswith("_") and node.name not in used
              and not (name == "cli.py" and node.name.startswith("cmd_"))]
    assert unused == []


def test_each_input_rule_has_one_message():
    # the modulus rule and the block-shape rule are each stated in one place,
    # which every route passes through (euler_phi, BlockMat)
    text = "".join(src.read_text() for src in sorted(SRC.glob("*.py")))
    assert text.count('"modulus d must be >= 2"') == 1
    assert len(re.findall(r"\{[\w.]*rows\}x\{[\w.]*cols\}", text)) == 1
