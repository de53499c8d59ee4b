"""Module boundaries in src: a module uses only the public names of its
siblings, so a private name's callers all live in the module that owns it.
Start-up: a CLI process imports no module that only records would need,
and no engine its command does not run; the package root imports a module
only when one of its names is first used."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Each command, run in a fresh interpreter, with the engines it loads besides
# cli, errors and fst.
COMMAND_ENGINES = {
    "kfs": (["kfs", "--bits", "0110", "--k", "12"], {"fscomplexity", "codec"}),
    "fst-run": (["fst-run", "--machine", "id.fst", "--bits", "0110"], set()),
    "pdc-run": (["pdc-run", "--machine", "id.pdc", "--bits", "0110"], {"pushdown"}),
    "compose": (["compose", "--outer", "id.pdc", "--inner", "id.fst"], {"pushdown"}),
    "lz": (["lz", "--bits", "0110100"], {"lz78"}),
    "encode-fst": (["encode-fst", "--machine", "id.fst"], {"codec"}),
    "decode-fst": (["decode-fst", "--bits", "110101100100"], {"codec"}),
    "generate": (["generate", "--recipe", "a", "--stages", "3", "--out", "a.bits"],
                 {"seqgen"}),
}
LOADED_SCRIPT = """
import contextlib, io, sys
from depthlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(*sorted(name for name in sys.modules if name.startswith("depthlab.")))
"""


@pytest.mark.parametrize("command", sorted(COMMAND_ENGINES))
def test_a_command_loads_only_the_engines_it_runs(tmp_path, command):
    argv, engines = COMMAND_ENGINES[command]
    (tmp_path / "id.pdc").write_text("pdc 1 1 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n")
    (tmp_path / "id.fst").write_text("fst 1 1\n1 0 -> 1 0\n1 1 -> 1 1\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    want = " ".join(sorted(f"depthlab.{m}" for m in {"cli", "errors", "fst", *engines}))
    assert (done.returncode, done.stdout, done.stderr) == (0, want + "\n", "")


# The package root's exports, by the module that defines each.
EXPORTS = {
    "codec": ["dagger", "decode_fst", "diamond", "double_bits", "encode_fst", "nat_bin"],
    "depth": ["Compressor", "DepthProfile", "compute_profile", "make_compressor",
              "parse_grid"],
    "errors": ["StuckError", "UnreachableError", "ValidationError"],
    "fscomplexity": ["ComplexityResult", "FstUniverse", "INFINITE", "enum_fsts",
                     "kfs_complexity", "kfs_over_set", "min_input_for_output"],
    "fst": ["FstSpec", "RunResult", "format_fst", "fst_run", "identity_fst", "parse_fst",
            "repeater_fst"],
    "lz78": ["LzParse", "check_parse", "lz_conditional", "lz_decode", "lz_encode",
             "lz_parse", "repeat_bound"],
    "pushdown": ["PdcRun", "PdcSpec", "build_half_compressor", "compose_pdc_fst",
                 "format_pdc", "fst_compose", "identity_pdc", "il_check", "parse_pdc",
                 "pdc_il_check", "pdc_run", "pdc_validate", "stack_free"],
    "seqgen": ["Certificate", "GeneratedStream", "IntervalPartition", "SequenceRecipe",
               "fs_random_string", "gen_recipe_a", "gen_recipe_b", "gen_recipe_c",
               "intervals", "random_bits"],
}


def test_package_root_exports_each_name_of_its_home_module():
    import depthlab

    exported = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert len(exported) == 66 and depthlab.__all__ == sorted(exported)
    assert set(depthlab.__all__) <= set(dir(depthlab))
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"depthlab.{module}")
        assert getattr(depthlab, module) is home
        for name in names:
            assert getattr(depthlab, name) is getattr(home, name), name
    with pytest.raises(AttributeError) as info:
        depthlab.x
    assert str(info.value) == "module 'depthlab' has no attribute 'x'"


# Runs in a fresh interpreter, where a bare `import depthlab` loads no module.
ROOT_SCRIPT = """
import sys
import depthlab
loaded = lambda: sorted(name for name in sys.modules if name.startswith("depthlab."))
assert loaded() == [], loaded()
assert depthlab.pushdown is sys.modules["depthlab.pushdown"]
assert loaded() == ["depthlab.errors", "depthlab.fst", "depthlab.pushdown"], loaded()
from depthlab import codec
assert codec is sys.modules["depthlab.codec"] and depthlab.pdc_run is depthlab.pushdown.pdc_run
namespace = {}
exec("from depthlab import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == depthlab.__all__
assert all(namespace[name] is getattr(depthlab, name) for name in depthlab.__all__)
print(len(loaded()))
"""


def test_package_root_loads_a_module_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", ROOT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "8\n", "")
