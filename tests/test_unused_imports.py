import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, as 'file:line name'."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or any(NOQA in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            # a quoted annotation such as -> "LambdaParam"
            used.add(node.value)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    files = ([p for p in sorted((ROOT / "src" / "opfeyn").glob("*.py"))
              if p.name != "__init__.py"]
             + sorted((ROOT / "tools").glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py")))
    assert files
    assert [u for p in files for u in _unused_imports(p)] == []
