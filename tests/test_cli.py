import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain_pdc, chain_pdc_text, counter_fst, oracle_kfs_lengths
from depthlab import (
    SequenceRecipe,
    cli,
    depth,
    enum_fsts,
    format_fst,
    format_pdc,
    identity_fst,
    identity_pdc,
    lz_encode,
    lz_parse,
    pushdown,
    random_bits,
)
from depthlab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "depthlab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,  # a hang fails its own test, not the whole run
    )


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as info:
        main(["profile", "--weak", "lz78"])  # missing required flags
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:  # not a prefix of --bits-budget
        main(["ratio", "--bits", "0101", "--recipe", "c", "--compressor", "lz78",
              "--grid", "1:4:1"])
    assert info.value.code == 1
    capsys.readouterr()


def test_generate_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.bits", tmp_path / "b.bits"
    for out in (out1, out2):
        code = main(
            [
                "generate", "--recipe", "b", "--k", "9", "--stages", "6",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "a.bits.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.bits.manifest.json").read_text())
    assert m1 == m2
    assert m1["sha256"] == hashlib.sha256(
        out1.read_text().strip().encode()
    ).hexdigest()


def test_generate_truncation_notice(tmp_path):
    r = run_cli(
        "generate", "--recipe", "a", "--growth", "exponential",
        "--bits-budget", "1000000", "--out", str(tmp_path / "a.bits"),
    )
    assert r.returncode == 0
    assert "truncated" in r.stderr


def test_profile_deterministic_bytes(tmp_path):
    args = [
        "profile", "--recipe", "b", "--k", "9", "--seed", "3",
        "--stages", "8", "--weak", "identity-pdc",
        "--strong", "half-compressor(9,9,0)", "--grid", "200:1500:200",
    ]
    outs = []
    for name in ("p1.csv", "p2.csv"):
        path = tmp_path / name
        r = run_cli(*args, "--out", str(path))
        assert r.returncode == 0, r.stderr
        assert "tail gap/n" in r.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "n,weak_bits,strong_bits,gap,gap_over_n"


def test_seed_from_environment(tmp_path):
    a = tmp_path / "a.bits"
    b = tmp_path / "b.bits"
    r = run_cli(
        "generate", "--recipe", "b", "--k", "9", "--stages", "4",
        "--out", str(a), env_extra={"DEPTHLAB_SEED": "77"},
    )
    assert r.returncode == 0
    r = run_cli(
        "generate", "--recipe", "b", "--k", "9", "--stages", "4",
        "--seed", "77", "--out", str(b),
    )
    assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_ratio_csv(tmp_path, capsys):
    seq = tmp_path / "seq.bits"
    seq.write_text("0" * 600)
    out = tmp_path / "r.csv"
    code = main(
        [
            "ratio", "--input", str(seq), "--compressor", "lz78",
            "--grid", "100:600:100", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,bits,ratio"
    assert len(lines) == 7
    capsys.readouterr()


# A 10-bit stream that a machine emitting one bit per two 0s sticks on
# at its 1 (position 7), so each table has data rows, stuck rows and a row
# past the end. The expected text is the output of the commit before the
# profile and ratio tables were merged into one type.
PIN_FILES = {
    "s.bits": "0000000100\n",
    "half.pdc": "pdc 2 1 unary 0\n1 0 z -> 2 z 0\n2 0 z -> 1 z -\n",
}
PIN_STUCK = (
    "half.pdc stuck at input position 7: no transition from state 2 on "
    "stack top 'z'"
)
PINNED = {
    "ratio": (
        ["--compressor", "half.pdc", "--tail", "1"],
        "n,bits,ratio\n"
        "3,2,0.666667\n"
        "6,3,0.500000\n"
        f"# n=9 flagged: {PIN_STUCK}\n"
        "# n=12 flagged: prefix beyond sequence end\n",
        "tail ratio over last 100% of the 2 usable rows: min 0.500000, max 0.666667\n",
    ),
    "profile": (
        ["--weak", "identity-fst", "--strong", "half.pdc"],
        "n,weak_bits,strong_bits,gap,gap_over_n\n"
        "3,3,2,1,0.333333\n"
        "6,6,3,3,0.500000\n"
        f"# n=9 flagged: {PIN_STUCK}\n"
        "# n=12 flagged: prefix beyond sequence end\n",
        "tail gap/n over last 50% of the 2 usable rows: min 0.500000, max 0.500000\n",
    ),
}


@pytest.mark.parametrize("cmd", sorted(PINNED))
def test_table_bytes_are_pinned(tmp_path, monkeypatch, capsys, cmd):
    monkeypatch.chdir(tmp_path)
    for name, text in PIN_FILES.items():
        Path(name).write_text(text)
    flags, stdout, stderr = PINNED[cmd]
    assert main([cmd, "--input", "s.bits", *flags, "--grid", "3:12:3"]) == 0
    assert capsys.readouterr() == (stdout, stderr)


def test_summary_names_the_usable_rows(tmp_path, capsys):
    # Rows 5..100 lie beyond the 4-bit stream, so the bracket covers the
    # last half of rows 1..4, and the label says so.
    seq = tmp_path / "s.bits"
    seq.write_text("0110")
    args = ["ratio", "--input", str(seq), "--compressor", "lz78"]
    assert main([*args, "--grid", "1:100:1"]) == 0
    assert capsys.readouterr().err == (
        "tail ratio over last 50% of the 4 usable rows: "
        "min 1.500000, max 1.666667\n"
    )
    assert main([*args, "--grid", "1:4:1"]) == 0
    assert capsys.readouterr().err == (
        "tail ratio over last 50% of grid: min 1.500000, max 1.666667\n"
    )


def test_kfs_ratio_flags_unreachable_prefixes(tmp_path, capsys):
    # kfs(8)'s one machine outputs nothing, so no nonempty prefix is
    # reachable; the rows say so rather than report a stuck pushdown run.
    seq = tmp_path / "seq.bits"
    seq.write_text("0110100110")
    out = tmp_path / "r.csv"
    code = main(
        [
            "ratio", "--input", str(seq), "--compressor", "kfs(8)",
            "--grid", "2:10:4", "--out", str(out),
        ]
    )
    assert code == 2
    assert out.read_text().splitlines()[1:] == [
        f"# n={n} flagged: kfs(8) unreachable: no machine of <= 8 bits "
        "outputs this prefix"
        for n in (2, 6, 10)
    ]
    assert capsys.readouterr().err == "error: no usable rows\n"


def test_lz_table(capsys):
    assert main(["lz", "--bits", "010110"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got[0] == "index,pointer,bit,cumulative_bits"
    assert got[1] == "1,0,0,1"
    assert got[-1] == "4,2,0,9"


@pytest.mark.parametrize("ends_mid_phrase", [False, True])
def test_lz_table_total_is_the_ratio_bits(tmp_path, capsys, ends_mid_phrase):
    # The lz table's last cumulative_bits and the lz78 ratio at n = |x|
    # both give len(lz_encode(x)), with or without a pointer-only tail.
    phrases = lz_parse(random_bits(random.Random(8), 500)).phrases
    x = "".join(phrases) + ("0" if ends_mid_phrase else "")
    assert (lz_parse(x).tail is not None) == ends_mid_phrase
    seq = tmp_path / "s.bits"
    seq.write_text(x)
    assert main(["lz", "--input", str(seq)]) == 0
    table_bits = capsys.readouterr().out.splitlines()[-1].split(",")[-1]
    n = len(x)
    grid = f"{n}:{n}:1"
    assert main(["ratio", "--input", str(seq), "--compressor", "lz78", "--grid", grid]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,bits,ratio"
    assert lines[1].split(",")[:2] == [str(n), table_bits]
    assert int(table_bits) == len(lz_encode(x))


def test_fst_run_and_codec_pipeline(tmp_path, capsys):
    machine = tmp_path / "ident.fst"
    machine.write_text(format_fst(identity_fst()))
    assert main(["fst-run", "--machine", str(machine), "--bits", "0110"]) == 0
    out = capsys.readouterr().out
    assert "output 0110" in out and "final_state 1" in out

    assert main(["encode-fst", "--machine", str(machine)]) == 0
    desc = capsys.readouterr().out.strip()
    assert main(["decode-fst", "--bits", desc]) == 0
    assert capsys.readouterr().out == format_fst(identity_fst())


def test_decode_fst_rejects_garbage(capsys):
    assert main(["decode-fst", "--bits", "10"]) == 2
    capsys.readouterr()


def test_pdc_run_and_stuck_exit(tmp_path, capsys):
    machine = tmp_path / "m.pdc"
    machine.write_text(
        "pdc 1 1 unary 0\n1 0 z -> 1 z 0\n"
    )
    assert main(["pdc-run", "--machine", str(machine), "--bits", "00"]) == 0
    out = capsys.readouterr().out
    assert "final_stack z" in out
    assert main(["pdc-run", "--machine", str(machine), "--bits", "01"]) == 3
    capsys.readouterr()


def test_pdc_run_rejects_a_multi_symbol_top(tmp_path, capsys):
    machine = tmp_path / "m.pdc"
    machine.write_text("pdc 1 1 binary 0\n1 0 z -> 1 z 0\n1 0 01 -> 1 - 0\n")
    assert main(["pdc-run", "--machine", str(machine), "--bits", "0"]) == 2
    assert capsys.readouterr().err == "error: bad stack top in (1, '0', '01')\n"


def test_validation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fst"
    bad.write_text("fst 1 1\n1 0 -> 1 -\n")  # missing the (1,1) entry
    assert main(["fst-run", "--machine", str(bad), "--bits", "0"]) == 2
    capsys.readouterr()


def test_kfs_record(capsys):
    from depthlab import decode_fst, fst_run

    assert main(["kfs", "--bits", "0110", "--k", "12"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == 4
    witness = decode_fst(record["witness_description"])
    assert fst_run(witness, record["witness_input"]).output == "0110"
    assert main(["kfs", "--bits", "0110", "--k", "8"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == "inf" and record["witness_input"] is None


def test_compose_command(tmp_path, capsys):
    inner = tmp_path / "inner.fst"
    inner.write_text(format_fst(identity_fst()))
    outer_fst = tmp_path / "outer.fst"
    outer_fst.write_text(format_fst(identity_fst()))
    assert main(["compose", "--outer", str(outer_fst), "--inner", str(inner)]) == 0
    assert capsys.readouterr().out.startswith("fst 1 1")
    outer_pdc = tmp_path / "outer.pdc"
    outer_pdc.write_text(format_pdc(identity_pdc()))
    assert main(["compose", "--outer", str(outer_pdc), "--inner", str(inner)]) == 0
    assert capsys.readouterr().out.startswith("pdc 1 1 unary")


def test_compose_over_the_state_ceiling_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", 10)
    (tmp_path / "a.fst").write_text(format_fst(counter_fst(4)))
    (tmp_path / "b.fst").write_text(format_fst(counter_fst(3)))
    args = ["compose", "--outer", f"{tmp_path}/a.fst", "--inner", f"{tmp_path}/b.fst"]
    assert main(args) == 2
    assert capsys.readouterr() == ("", "error: composition exceeds state ceiling 10\n")


def test_missing_file_exit_2(capsys):
    assert main(["fst-run", "--machine", "/nonexistent.fst", "--bits", "0"]) == 2
    capsys.readouterr()


MALFORMED = {
    # case: (files to write, CLI args with {tmp} for their folder, env, exit)
    "fst-non-integer-field": (
        {"m.fst": "fst 1 1\nx 0 -> 1 0\n1 1 -> 1 1\n"},
        ["fst-run", "--machine", "{tmp}/m.fst", "--bits", "0"], None, 2,
    ),
    "pdc-non-integer-field": (
        {"m.pdc": "pdc 1 1 unary 0\n1 0 z -> x z 0\n"},
        ["pdc-run", "--machine", "{tmp}/m.pdc", "--bits", "0"], None, 2,
    ),
    "kfs-non-integer-argument": (
        {"s.bits": "0110"},
        ["ratio", "--input", "{tmp}/s.bits", "--compressor", "kfs(x)",
         "--grid", "1:4:1"], None, 2,
    ),
    "half-compressor-non-integer-argument": (
        {"s.bits": "0110"},
        ["profile", "--input", "{tmp}/s.bits", "--weak", "identity-pdc",
         "--strong", "half-compressor(9,x,0)", "--grid", "1:4:1"], None, 2,
    ),
    **{
        f"half-compressor-over-{bound}-ceiling": (
            {"s.bits": "0110"},
            ["ratio", "--input", "{tmp}/s.bits", "--compressor", name,
             "--grid", "1:4:1"], None, 2,
        )
        for bound, name in (("state", "half-compressor(9,43046721,0)"),
                            ("escape-bits", "half-compressor(9,6561,0)"))
    },
    "non-integer-seed": (
        {},
        ["generate", "--recipe", "b", "--k", "9", "--stages", "2",
         "--out", "{tmp}/g.bits"], {"DEPTHLAB_SEED": "abc"}, 2,
    ),
    "input-is-a-directory": (
        {}, ["lz", "--input", "{tmp}"], None, 2,
    ),
    "lz-input-not-utf8": (
        {"s.bits": b"\xff\xfe01"}, ["lz", "--input", "{tmp}/s.bits"], None, 2,
    ),
    "fst-run-machine-not-utf8": (
        {"m.fst": b"fst 1 1\n\xff"},
        ["fst-run", "--machine", "{tmp}/m.fst", "--bits", "0"], None, 2,
    ),
    "compressor-file-not-utf8": (
        {"s.bits": "0110", "m.pdc": b"\xffpdc"},
        ["ratio", "--input", "{tmp}/s.bits", "--compressor", "{tmp}/m.pdc",
         "--grid", "1:4:1"], None, 2,
    ),
    **{
        f"grid-factor-{f}": (
            {"s.bits": "0110"},
            ["ratio", "--input", "{tmp}/s.bits", "--compressor", "lz78",
             "--grid", f"1:4:x{f}"], None, 2,
        )
        for f in ("nan", "inf", "1e400", "1.0000000001", "1.0000000000000002")
    },
    "grid-linear-over-cap": (
        {"s.bits": "0110"},
        ["ratio", "--input", "{tmp}/s.bits", "--compressor", "lz78",
         "--grid", "1:1000001:1"], None, 2,
    ),
    **{
        f"grid-geometric-{name}-beyond-float": (
            {"s.bits": "0110"},
            ["ratio", "--input", "{tmp}/s.bits", "--compressor", "lz78",
             "--grid", grid], None, 2,
        )
        for name, grid in (("end", f"1:{10**400}:x2"),
                           ("start", f"{10**400}:{10**401}:x2"))
    },
    **{
        f"{cmd}-exponential-stage-4": (
            {}, [cmd, "--recipe", "a", "--growth", "exponential", "--stages", "4",
                 *flags], None, 2,
        )
        for cmd, flags in (
            ("generate", ["--out", "{tmp}/a.bits"]),
            ("profile", ["--weak", "identity-fst", "--strong", "lz78",
                         "--grid", "1:10:1"]),
        )
    },
    "generate-recipe-b-without-stages-or-budget": (
        {}, ["generate", "--recipe", "b", "--k", "9", "--out", "{tmp}/b.bits"],
        None, 2,
    ),
    **{
        f"{cmd}-recipe-b-oversized-stage": (
            {}, [cmd, "--recipe", "b", "--k", "3000000000", "--stages", "1",
                 *flags], None, 2,
        )
        for cmd, flags in (
            ("generate", ["--out", "{tmp}/b.bits"]),
            ("profile", ["--weak", "identity-fst", "--strong", "lz78",
                         "--grid", "1:10:1"]),
        )
    },
    **{
        f"{cmd}-tail-{t}": (
            {"s.bits": "0110"},
            [cmd, "--input", "{tmp}/s.bits", *flags, "--grid", "1:4:1",
             "--tail", t], None, 2,
        )
        for t in ("nan", "inf", "-1", "2", "-inf", "-1e-3")
        for cmd, flags in (
            ("profile", ["--weak", "identity-fst", "--strong", "lz78"]),
            ("ratio", ["--compressor", "lz78"]),
        )
    },
    "fst-huge-state-count": (
        {"m.fst": "fst 100000000000 1\n1 0 -> 1 -\n"},
        ["fst-run", "--machine", "{tmp}/m.fst", "--bits", "0"], None, 2,
    ),
    "ratio-recipe-c-oversized-stage": (
        {}, ["ratio", "--recipe", "c", "--k", "4", "--v", "100000",
             "--bits-budget", "100", "--compressor", "lz78", "--grid", "1:10:1"],
        None, 2,
    ),
    "pdc-multi-symbol-top": (
        {"m.pdc": "pdc 1 1 binary 0\n1 0 z -> 1 z 0\n1 0 01 -> 1 - 0\n"},
        ["pdc-run", "--machine", "{tmp}/m.pdc", "--bits", "0"], None, 2,
    ),
    "chain-600-within-budget": (
        {"c.pdc": format_pdc(chain_pdc(600, 599))},
        ["pdc-run", "--machine", "{tmp}/c.pdc", "--bits", "01"], None, 0,
    ),
    "chain-600-over-budget": (
        {"c.pdc": chain_pdc_text(600, 598)},
        ["pdc-run", "--machine", "{tmp}/c.pdc", "--bits", "01"], None, 2,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_gets_one_error_line(tmp_path, case):
    files, args, env, code = MALFORMED[case]
    for name, data in files.items():
        raw = data if isinstance(data, bytes) else data.encode()
        (tmp_path / name).write_bytes(raw)
    r = run_cli(*(a.format(tmp=tmp_path) for a in args), env_extra=env)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
        if case.endswith("-not-utf8"):  # the line names the undecodable file
            (name,) = [n for n, data in files.items() if isinstance(data, bytes)]
            assert lines[0] == f"error: {tmp_path / name}: not UTF-8 text", r.stderr
    else:
        assert lines == [] and r.stdout.startswith("output 01\n")


def readme_commands():
    """The argv of every `depthlab` command in the README's shell blocks."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("depthlab ")]


def parse_outcome(parse, argv):
    """The Namespace that parse gives argv (as a repr, so a NaN equals
    itself), or its exit code, with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            got = repr(sorted(vars(parse(list(argv))).items()))
        except SystemExit as exc:
            got = ("exit", exc.code)
    return got, out.getvalue(), err.getvalue()


def assert_parses_like_full_parser(argv):
    full = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert parse_outcome(cli.parse_args, argv) == full, argv


PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["-h", "kfs"], ["nope"], ["nope", "--k", "3"],
    ["--", "kfs"], ["kfs", "--", "--bits", "01"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["kfs", "--bits", "0110", "--k", "12", "extra"],  # trailing arguments
    ["kfs", "--bits", "0110", "--k", "12", "--k"],
    ["kfs", "--bit", "0110", "--k", "12"],  # abbreviated flags
    ["ratio", "--bits", "0101", "--recipe", "c", "--compressor", "lz78",
     "--grid", "1:4:1"],
    ["kfs", "--bits", "0110", "--k", "x"],
    ["profile", "--weak", "lz78"],
    ["generate", "--recipe", "d", "--out", "x"],
]


def test_command_parser_parses_like_the_full_parser(tmp_path):
    readme = readme_commands()
    assert {argv[0] for argv in readme} == set(cli.COMMANDS)
    corpus = PARSE_CORPUS + readme + [
        [a.format(tmp=tmp_path) for a in args] for _, args, _, _ in MALFORMED.values()
    ]
    for argv in corpus:
        assert_parses_like_full_parser(argv)


def declared_flags():
    flags = set()
    for name in cli.COMMANDS:
        flags.update(cli._command_parser(name)._option_string_actions)
    return sorted(flags)


TOKENS = st.one_of(
    st.sampled_from([*cli.COMMANDS, *declared_flags(), "--", "-h"]),
    st.sampled_from(["0110", "12", "x", "", "-", "-x", "--bit", "--k=3",
                     "--bits=01", "1:4:1", "a b", "-1", "lz78", "b"]),
    st.text(alphabet="-kbx01 ", max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(TOKENS, max_size=8))
def test_command_parser_parses_like_the_full_parser_fuzzed(argv):
    assert_parses_like_full_parser(argv)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(TOKENS, st.sampled_from(
    ["profile", "ratio", "--tail", "-inf", "-1e-3", "-.5", "0.5", "-x"])), max_size=8))
def test_glued_tail_only_changes_argv_whose_tail_value_read_as_an_option(argv):
    # main glues `--tail X` to `--tail=X`; any argv whose parse that
    # changes must have failed on --tail taking no value.
    before = parse_outcome(cli.parse_args, argv)
    after = parse_outcome(cli.parse_args, cli._glue_tail(list(argv)))
    if after != before:
        assert before[0] == ("exit", 1), argv
        assert before[2].endswith("error: argument --tail: expected one argument\n")


def parse_fresh(argv):
    """cli.parse_args on parsers built for this call alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_command_parser", cli._command_parser.__wrapped__)
        mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return cli.parse_args(argv)


def option_args(flag, value, glued):
    return [f"{flag}={value}"] if glued else [flag, value]


VALUES = st.sampled_from(["0110", "12", "x", "", "-", "-x", "--", "1:4:1", "lz78",
                          "b", "-1", "0.5", "a b"])
ARGVS = st.builds(
    lambda head, opts, tail: [*head, *(a for opt in opts for a in opt), *tail],
    st.sampled_from([[name] for name in cli.COMMANDS] + [[], ["nope"], ["-h"]]),
    st.lists(st.builds(option_args, st.sampled_from([*declared_flags(), "--nope", "-x"]),
                       VALUES, st.booleans()), max_size=5),
    st.lists(st.sampled_from(["--", "extra", "-", "--k", "01", "-h"]), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(argv=st.one_of(ARGVS, st.lists(TOKENS, max_size=8)))
def test_kept_parsers_parse_like_fresh_ones(argv):
    kept = parse_outcome(cli.parse_args, argv)
    assert kept == parse_outcome(parse_fresh, argv), argv
    assert parse_outcome(cli.parse_args, argv) == kept, argv


def test_valid_commands_never_build_the_full_parser(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    (tmp_path / "ident.fst").write_text(format_fst(identity_fst()))
    (tmp_path / "ident.pdc").write_text(format_pdc(identity_pdc()))
    (tmp_path / "s.bits").write_text("01101001\n")
    fst, pdc, bits = (str(tmp_path / n) for n in ("ident.fst", "ident.pdc", "s.bits"))
    runs = [
        ["generate", "--recipe", "b", "--k", "9", "--stages", "2",
         "--out", str(tmp_path / "g.bits")],
        ["profile", "--input", bits, "--weak", "identity-fst", "--strong", "lz78",
         "--grid", "1:8:1"],
        ["ratio", "--input", bits, "--compressor", "lz78", "--grid", "1:8:1"],
        ["lz", "--bits", "010110"],
        ["fst-run", "--machine", fst, "--bits", "0110"],
        ["pdc-run", "--machine", pdc, "--input", bits],
        ["encode-fst", "--machine", fst],
        ["decode-fst", "--bits", "110101100100"],
        ["kfs", "--bits", "0110", "--k", "12"],
        ["compose", "--outer", pdc, "--inner", fst],
    ]
    assert [argv[0] for argv in runs] == list(cli.COMMANDS)
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()


# Characters that str.split() drops (ASCII and Unicode whitespace), digits
# 0 and 1 from other scripts, and other text around a stream of 0/1.
STREAM_CHARS = list("01 \t\n\r\x0b\x0c\x1c\x85\u00a0\u2028\u3000\u0660\u0661\uff10\uff11\x002a-")
STREAMS = st.one_of(
    st.text(st.sampled_from(STREAM_CHARS), max_size=24),
    st.lists(st.text("01", max_size=6), max_size=5).map(" ".join),
    st.text(max_size=12),
)


def main_outcome(argv):
    """main's exit code with what it wrote; an exception escapes it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stream")
    (tmp / "id.pdc").write_text(format_pdc(identity_pdc()))
    return tmp


@settings(max_examples=200, deadline=None)
@given(s=STREAMS)
@example(s="--")  # argparse drops "--" from "--bits=--" unless told not to
def test_stream_check_accepts_exactly_the_bit_strings(stream_dir, s):
    # The old predicate, with whitespace dropped first, is the oracle.
    bits = "".join(s.split())
    accepted = bits.strip("01") == ""
    refused = (2, "", "error: input must be a string over 0/1\n")
    machine, stream = str(stream_dir / "id.pdc"), stream_dir / "s.bits"
    got = main_outcome(["pdc-run", "--machine", machine, f"--bits={s}"])
    if accepted:
        assert got == (0, f"output {bits or '-'}\nfinal_state 1\nfinal_stack z\n", "")
    else:
        assert got == refused
    stream.write_text(s, encoding="utf-8", newline="")
    got = main_outcome(["ratio", "--input", str(stream), "--compressor", "lz78",
                        "--grid", "1:4:1"])
    if not accepted:
        assert got == refused
    elif bits:
        assert got[0] == 0 and got[1].startswith("n,bits,ratio\n")
    else:
        assert (got[0], got[2]) == (2, "error: no usable rows\n")


@pytest.mark.parametrize("k", [8, 10, 12, 14])
def test_kfs_ratio_csv_matches_per_prefix_oracle(k, tmp_path, monkeypatch):
    # recipe a opens with 000, so kfs(10) has usable rows before its
    # unreachable ones, and kfs(8) has none (exit 2).
    bits = SequenceRecipe(kind="a", stages=5, seed=0).generate().bits[:400]
    (tmp_path / "s.bits").write_text(bits)
    runs = [["ratio", "--input", str(tmp_path / "s.bits"), "--compressor", f"kfs({k})",
             "--grid", grid] for grid in ("1:400:1", "1:450:x1.1")]
    got = [main_outcome(argv) for argv in runs]
    assert {code for code, _, _ in got} == ({2} if k == 8 else {0})

    def oracle(k, entries, bits, points):
        return oracle_kfs_lengths(k, enum_fsts(k).entries, bits, points)

    monkeypatch.setattr(depth, "kfs_lengths", oracle)
    assert [main_outcome(argv) for argv in runs] == got


# Argument text for builtin names and grids: signs, underscores, spaces,
# huge integers (one past int()'s digit limit) and other scripts' digits.
ARG_TEXT = st.one_of(
    st.integers(-20, 300).map(str),
    st.sampled_from(["0", "9", "81", "10", "12", "14", "+9", "-9", "1_4", " 14 ", "٣",
                     "０", "１４", "٩", "", " ", "_", "x", "01", "0b1", "1e3",
                     str(10**30), "9" * 5000]),
    st.text(alphabet="0123456789+-_ ٣０x,.", max_size=6),
)
NAMES = st.one_of(
    st.builds("kfs({})".format, ARG_TEXT),
    st.builds("half-compressor({},{},{})".format, ARG_TEXT, ARG_TEXT, ARG_TEXT),
    st.builds("repeater({})".format, ARG_TEXT),
    st.text(max_size=12),
)
GRIDS = st.one_of(
    st.builds("{}:{}:{}".format, *[st.integers(1, 60)] * 3),
    st.builds("{}:{}:{}".format, ARG_TEXT, ARG_TEXT, ARG_TEXT),
    st.builds("{}:{}:x{}".format, ARG_TEXT, ARG_TEXT, st.one_of(
        ARG_TEXT, st.sampled_from(["1.1", "1", "0.5", "nan", "inf", "1e308", "1.0000001"]))),
    st.text(max_size=10),
)


@settings(max_examples=200, deadline=None)
@given(name=NAMES, grid=GRIDS)
def test_compressor_names_and_grids_fuzzed(stream_dir, name, grid):
    stream = stream_dir / "fuzz.bits"
    stream.write_text("0110100110010110" * 3)
    try:
        code, _, err = main_outcome(["ratio", "--input", str(stream),
                                     "--compressor", name, "--grid", grid])
    except SystemExit as exc:  # argparse refuses the argv
        code, err = exc.code, ""
    assert code in (0, 1, 2, 3)
    assert sum("error:" in line for line in err.splitlines()) <= 1
    assert "Traceback" not in err


# Machine files: good ones, bad headers, a huge declared state count,
# duplicate lines, other scripts' digits, bytes that are not UTF-8, empty
# and blank files, and lines drawn from pieces of the format.
MACHINE_TEXTS = st.one_of(
    st.sampled_from([
        format_fst(identity_fst()), format_pdc(identity_pdc()),
        "fst 1 1\n1 0 -> 1 -\n1 1 -> 1 11\n", "fst", "fst x 1\n", "fst 1\n", "fsm 1 1\n",
        "pdc 1 1 unary\n", "pdc 1 1 stacky 0\n", "pdc 1 1 unary x\n",
        "fst 100000000000 1\n1 0 -> 1 -\n", "pdc 10000000000 1 unary 0\n1 0 z -> 1 z 0\n",
        "fst 1 1\n1 0 -> 1 0\n1 0 -> 1 0\n1 1 -> 1 1\n",
        "pdc 1 1 unary 0\n1 0 z -> 1 z 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n",
        "fst ٣ 1\n", "fst 1 1\n1 0 -> ١ 0\n1 1 -> 1 1\n", "pdc ０ 1 unary 0\n",
        "fst 1 1\n1 0 -> 1 ０\n1 1 -> 1 1\n", b"fst 1 1\n\xff\xfe\n", b"\x80", "", " \n\t",
    ]),
    st.lists(st.sampled_from(["fst 1 1", "fst 2 1", "pdc 1 1 unary 0", "pdc 2 1 binary 1",
                              "1 0 -> 1 0", "1 1 -> 2 -", "2 0 -> 1 11", "2 1 -> 2 1",
                              "1 0 z -> 1 z 0", "1 1 z -> 1 0z -", "1 - 0 -> 2 - 1",
                              "2 0 0 -> 1 - -", "1 1 z -> 1 z 1", "->", "٣ 0 -> 1 0"]),
             max_size=6).map("\n".join),
    st.text(max_size=30),
)
SEEDS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", " ", "x", "٣", "０", "1_0", " 7 ", "+3", "1e3", "0x10", "9" * 5000]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=6),
)


def fuzz_outcome(argv, seed_env):
    with pytest.MonkeyPatch.context() as mp:
        if seed_env is None:
            mp.delenv("DEPTHLAB_SEED", raising=False)
        else:
            mp.setenv("DEPTHLAB_SEED", seed_env)
        try:
            return main_outcome(argv)
        except SystemExit as exc:  # argparse refuses the argv
            return exc.code, "", ""


@settings(max_examples=120, deadline=None)
@given(texts=st.lists(MACHINE_TEXTS, min_size=2, max_size=2), seed=SEEDS,
       seed_env=st.one_of(st.none(), SEEDS), paths=st.lists(
           st.sampled_from(["a.fst", "b.pdc", "missing.fst", ".", "gone/out.bits"]),
           min_size=2, max_size=2))
def test_machine_files_seeds_and_paths_fuzzed(tmp_path_factory, texts, seed, seed_env,
                                              paths):
    tmp = tmp_path_factory.getbasetemp() / "machine-fuzz"
    tmp.mkdir(exist_ok=True)
    (tmp / "missing.fst").unlink(missing_ok=True)  # generate may have written it
    for name, text in zip(("a.fst", "b.pdc"), texts):
        data = text if isinstance(text, bytes) else text.encode()
        (tmp / name).write_bytes(data)
    (tmp / "s.bits").write_text("0110100110010110")
    one, two = (str(tmp / p) for p in paths)
    bits = ["--bits", "0110"]
    stream = ["--input", str(tmp / "s.bits"), "--grid", "1:16:3"]
    runs = [
        ["fst-run", "--machine", one, *bits],
        ["pdc-run", "--machine", two, *bits],
        ["compose", "--outer", two, "--inner", one],
        ["profile", *stream, "--weak", one, "--strong", two],
        ["ratio", *stream, "--compressor", two, "--seed", seed],
        ["ratio", "--recipe", "b", "--k", "9", "--stages", "2", f"--seed={seed}",
         "--compressor", one, "--grid", "1:200:9"],
        ["generate", "--recipe", "b", "--k", "9", "--stages", "2", f"--seed={seed}",
         "--out", two],
        ["generate", "--recipe", "a", "--stages", "3", "--out", str(tmp / "g.bits")],
    ]
    for argv in runs:
        got = fuzz_outcome(argv, seed_env)
        code, _, err = got
        assert code in (0, 1, 2, 3), argv
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        assert "Traceback" not in err
        assert fuzz_outcome(argv, seed_env) == got, argv


ASCII_ONLY_MACHINES = {
    # file text: the one error line; int() reads each of these numbers
    "fst ١ ١\n١ 0 -> ١ 0\n١ 1 -> ١ 1\n": "error: bad fst header: 'fst ١ ١'",
    "fst 1 1\n1 0 -> 1 0\n1 1 -> 0_1 1\n": "error: bad fst line: '1 1 -> 0_1 1'",
    "pdc ١ 1 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n":
        "error: bad pdc header: 'pdc ١ 1 unary 0'",
    "pdc 1 1 unary 0\n1 0 z -> 1 z 0\n٣ 1 z -> 1 z 1\n":
        "error: bad pdc line: '٣ 1 z -> 1 z 1'",
    "pdc 1 1 unary 0_0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n":
        "error: bad pdc header: 'pdc 1 1 unary 0_0'",
}


@pytest.mark.parametrize("text", sorted(ASCII_ONLY_MACHINES))
def test_machine_file_numbers_must_be_ascii(tmp_path, text):
    path = tmp_path / ("m.fst" if text.startswith("fst") else "m.pdc")
    path.write_text(text)
    cmd = "fst-run" if text.startswith("fst") else "pdc-run"
    got = main_outcome([cmd, "--machine", str(path), "--bits", "01"])
    assert got == (2, "", ASCII_ONLY_MACHINES[text] + "\n")


def test_machine_file_numbers_keep_signs_and_zeros(tmp_path):
    (tmp_path / "m.fst").write_text("fst 1 +1\n01 0 -> 1 0\n1 1 -> +1 1\n")
    (tmp_path / "m.pdc").write_text(
        "pdc 1 01 unary +0\n1 0 z -> 01 z 0\n1 1 z -> 1 z 1\n")
    for cmd, name in (("fst-run", "m.fst"), ("pdc-run", "m.pdc")):
        argv = [cmd, "--machine", str(tmp_path / name), "--bits", "01"]
        code, out, err = main_outcome(argv)
        assert (code, out.splitlines()[0], err) == (0, "output 01", "")


@pytest.mark.parametrize("seed", ["٣", "1_0", "x"])
def test_seed_flag_takes_ascii_integers_only(tmp_path, capsys, seed):
    argv = ["generate", "--recipe", "b", "--k", "9", "--stages", "2", "--seed", seed,
            "--out", str(tmp_path / "g.bits")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: invalid int value: {seed!r}\n"), err
    assert not (tmp_path / "g.bits").exists()


@pytest.mark.parametrize("value", ["١٢", "1_2"])
@pytest.mark.parametrize("argv", [
    ["kfs", "--bits", "0110", "--k"],
    *(["ratio", "--recipe", "b", "--k", "9", "--stages", "2", "--compressor", "lz78",
       "--grid", "1:10:1", option] for option in
      ("--k", "--v", "--g", "--stages", "--bits-budget", "--m")),
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_integer_options_take_ascii_integers_only(capsys, argv, value):
    with pytest.raises(SystemExit) as info:
        main([*argv, value])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {value!r}\n"), err


@pytest.mark.parametrize("name, arg", [
    ("kfs(١٢)", "١٢"), ("kfs(1_2)", "1_2"),
    ("half-compressor(٩,٩,0)", "٩"), ("half-compressor(9,9,1_0)", "1_0"),
])
def test_builtin_name_arguments_take_ascii_integers_only(stream_dir, name, arg):
    stream = stream_dir / "ascii.bits"
    stream.write_text("0110")
    argv = ["ratio", "--input", str(stream), "--compressor", name, "--grid", "1:4:1"]
    want = f"error: {name}: argument {arg!r} is not an integer\n"
    assert main_outcome(argv) == (2, "", want)


@pytest.mark.parametrize("grid", [
    "١:٤:١", "1:٤:1", "1:4:١", "1_0:20:5", "1:2_0:5", "1:20:1_0", "1:4:x1_5", "1:4:x١.٥",
])
def test_grid_takes_ascii_numbers_only(stream_dir, grid):
    stream = stream_dir / "ascii.bits"
    stream.write_text("0110")
    argv = ["ratio", "--input", str(stream), "--compressor", "lz78", "--grid", grid]
    assert main_outcome(argv) == (2, "", f"error: bad grid {grid!r}\n")


@pytest.mark.parametrize("tail", ["٠.٥", "0_5", "0.2_5", "x"])
@pytest.mark.parametrize("command", ["ratio", "profile"])
def test_tail_takes_ascii_numbers_only(stream_dir, capsys, command, tail):
    stream = stream_dir / "ascii.bits"
    stream.write_text("0110")
    flags = (["--compressor", "lz78"] if command == "ratio"
             else ["--weak", "identity-fst", "--strong", "lz78"])
    with pytest.raises(SystemExit) as info:
        main([command, "--input", str(stream), *flags, "--grid", "1:4:1", "--tail", tail])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --tail: invalid float value: {tail!r}\n"), err


def test_grid_and_tail_keep_ascii_forms(stream_dir):
    stream = stream_dir / "ascii.bits"
    stream.write_text("0110")
    for plain, other in ((("1:4:1", "0.5"), ("+1: 04 :1", " .5 ")),
                         (("1:4:x2", "1"), ("1:4:x2.0e0", "1e0"))):
        got = [main_outcome(["ratio", "--input", str(stream), "--compressor", "lz78",
                             "--grid", grid, "--tail", tail]) for grid, tail in (plain, other)]
        assert got[0][0] == 0 and got[0] == got[1], got


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_2_quietly(stream_dir, unbuffered):
    # A reader that has gone away is no error to report: exit 2, stderr empty.
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "depthlab", "pdc-run", "--machine",
             str(stream_dir / "id.pdc"), "--bits", "0110"],
            stdout=write, stderr=subprocess.PIPE, env=env, cwd=ROOT, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.parametrize("seed", ["٣", "1_0"])
def test_seed_variable_takes_ascii_integers_only(tmp_path, monkeypatch, seed):
    monkeypatch.setenv("DEPTHLAB_SEED", seed)
    argv = ["generate", "--recipe", "b", "--k", "9", "--stages", "2",
            "--out", str(tmp_path / "g.bits")]
    want = f"error: DEPTHLAB_SEED must be an integer, got {seed!r}\n"
    assert main_outcome(argv) == (2, "", want)


def test_seeds_keep_signs_spaces_and_zeros(tmp_path, monkeypatch):
    streams = set()
    cases = (("3", None), ("+3", None), (" 03 ", None), (None, "+3"), (None, " 3"))
    for i, (flag, env) in enumerate(cases):
        if env is None:
            monkeypatch.delenv("DEPTHLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("DEPTHLAB_SEED", env)
        out = tmp_path / f"g{i}.bits"
        seed = [] if flag is None else [f"--seed={flag}"]
        assert main_outcome(["generate", "--recipe", "b", "--k", "9", "--stages", "2",
                             *seed, "--out", str(out)])[0] == 0
        streams.add(out.read_text())
    assert len(streams) == 1
