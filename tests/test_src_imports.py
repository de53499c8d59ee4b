"""Module boundaries in src: a module uses only the public names of its
siblings, so a private name's callers all live in the module that owns it.
Start-up: a CLI process imports no module that only records would need."""
import ast
import os
import subprocess
import sys
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


def test_no_module_imports_dataclasses():
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append((path.name, node.module))
    assert len(imported) >= 30  # the scan sees the package
    assert [imp for imp in imported if imp[1].split(".")[0] == "dataclasses"] == []


# Runs in a fresh interpreter: pytest itself imports inspect and dataclasses.
STARTUP_SCRIPT = """
import contextlib, io, sys
from depthlab.cli import main
for argv in (
    ["kfs", "--bits", "0110", "--k", "12"],
    ["ratio", "--recipe", "b", "--k", "9", "--stages", "3",
     "--compressor", "half-compressor(9,9,0)", "--grid", "1:300:7"],
    ["compose", "--outer", "id.pdc", "--inner", "id.fst"],
    ["pdc-run", "--machine", "id.pdc", "--bits", "0110"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_cli_process_loads_neither_dataclasses_nor_inspect(tmp_path):
    (tmp_path / "id.pdc").write_text("pdc 1 1 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n")
    (tmp_path / "id.fst").write_text("fst 1 1\n1 0 -> 1 0\n1 1 -> 1 1\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
