import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opfeyn"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(path: Path) -> list[str]:
    """Private names a module takes from another module or object, as
    'file:line name'; its own attributes through self and cls are fine."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            found.append((node.lineno, node.attr))
    return [f"{path.name}:{line} {name}" for line, name in found]


def test_no_module_reads_another_modules_private_name():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [r for p in files for r in _foreign_private_reads(p)] == []
