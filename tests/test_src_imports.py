"""Module boundaries in src: a module uses only the public names of its
siblings, so a private name's callers all live in the module that owns it."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "depthlab"


def sibling_imports(path: Path):
    """(line, module, name) for every name the module at path imports from
    another depthlab module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "depthlab"
        ):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                yield node.lineno, source, alias.name


def test_no_module_imports_a_private_name_from_a_sibling():
    paths = sorted(SRC.glob("*.py"))
    imports = [(p.name, *imp) for p in paths for imp in sibling_imports(p)]
    assert len(paths) >= 10 and len(imports) >= 50  # the scan sees the package
    private = [imp for imp in imports if imp[3].startswith("_")]
    assert private == []
