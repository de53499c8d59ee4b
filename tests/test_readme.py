"""The README's "Library tour" block runs, and every result its comments
state is what the library returns, so the docs cannot drift from the API."""
import ast
import io
import tokenize
from pathlib import Path

import depthlab as dl

README = Path(__file__).resolve().parent.parent / "README.md"

# statement -> (the claim its comment starts with, the value that claim names)
CLAIMS = {
    'dl.fst_run(T, "0110")': (
        "RunResult(output='0110', final_state=1)", dl.RunResult("0110", 1)
    ),
    "dl.il_check(T, 8)": ("None", None),
    "dl.stack_free(T) == dl.identity_pdc()": ("True", True),
    "desc = dl.encode_fst(T)": ("'110101100100'", "110101100100"),
    "dl.decode_fst(desc) == T": ("True", True),
    "len(desc)": ("12", 12),
    'dl.pdc_run(C, "110110110" + "1"*9 + "011011011").output': (
        "'110110110' + '1'*9 + '0'", "110110110" + "1" * 9 + "0"
    ),
    'dl.lz_encode("010110")': ("'001011100' (9 bits)", "001011100"),
    "dl.repeat_bound(1, 1, 0)": ("2.0", 2.0),
    "prof.rows[0]": ("(10000, (10000, 5703), '')", (10000, (10000, 5703), "")),
}
# statements whose comment describes the value rather than stating it
DESCRIBED = {
    "u = dl.enum_fsts(12)",
    'dl.kfs_complexity("0110", 12)',
    "N = dl.compose_pdc_fst(C, T)",
    "prof.tail_bracket()",
}
CSV_CALL = "ratio.to_csv()"
CSV_HEAD = "n,bits,ratio\n10000,5703,0.570300\n"


def tour_block() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start : text.index("```", start)]


def run_tour():
    """{statement source: (its comment, its value)} for every statement of
    the block that has a comment, run in order as a session would; an
    assignment's value is what it assigns. A comment on the lines after a
    statement, before the next one, belongs to it."""
    block = tour_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    stmts = ast.parse(block).body
    ends = [s.lineno for s in stmts[1:]] + [block.count("\n") + 1]
    space: dict = {}
    seen = {}
    for stmt, end in zip(stmts, ends):
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), space)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), space)
            value = space[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        notes = [comments[ln] for ln in range(stmt.lineno, end) if ln in comments]
        if notes:
            seen[source] = (" ".join(notes), value)
    return seen


def test_library_tour_states_what_the_library_returns():
    seen = run_tour()
    assert set(seen) == set(CLAIMS) | DESCRIBED | {CSV_CALL}
    for source, (claim, want) in CLAIMS.items():
        comment, got = seen[source]
        assert comment.startswith(claim), source
        assert got == want and type(got) is type(want), source
    comment, csv = seen[CSV_CALL]
    assert comment.startswith(repr(CSV_HEAD)[:-1] + "...'")
    assert csv.startswith(CSV_HEAD)
    lo, hi = seen["prof.tail_bracket()"][1]
    assert lo <= hi
    assert isinstance(seen["N = dl.compose_pdc_fst(C, T)"][1], dl.PdcSpec)
