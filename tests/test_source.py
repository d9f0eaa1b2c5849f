import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prymrep"


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
