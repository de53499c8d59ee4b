import random
import re
from functools import partial
from pathlib import Path

import pytest

from conftest import output_bits
from depthlab import (
    PdcSpec,
    SequenceRecipe,
    ValidationError,
    compute_profile,
    depth,
    fscomplexity,
    lz_encode,
    make_compressor,
    parse_grid,
    pushdown,
    random_bits,
)
from depthlab.cli import main
from depthlab.depth import Compressor, DepthProfile, load_profile_csv
from depthlab.lz78 import lz_lengths
from depthlab.pushdown import Z0, load_machine, pdc_lengths


def test_parse_grid_linear():
    assert parse_grid("10:50:10") == [10, 20, 30, 40, 50]
    assert parse_grid("5:5:1") == [5]


def test_parse_grid_geometric():
    assert parse_grid("10:100:x2") == [10, 20, 40, 80]
    assert parse_grid("2:4:x1e308") == [2]  # 2e308 overflows to infinity


def test_parse_grid_rejects():
    for bad in ("10:5:1", "0:5:1", "10:50", "10:50:0", "10:50:x1", "1:1:x2x"):
        with pytest.raises(ValidationError):
            parse_grid(bad)
    # A factor just above 1 needs too many steps; at 1 + 2^-52 the running
    # point can round back to itself and never pass b.
    for bad in ("1:4:x1.0000000001", "1:4:x1.0000000000000002",
                "1:1:x1.0000000001"):
        with pytest.raises(ValidationError, match="over 1000000 steps"):
            parse_grid(bad)
    for bad in ("1:1000001:1", "3:2000004:2", "1:99999999999:1"):
        with pytest.raises(ValidationError, match="over 1000000 points"):
            parse_grid(bad)


def test_parse_grid_keeps_grids_under_the_step_limit():
    # log(4.5) / log(1.0000016) is about 940,000 steps.
    assert parse_grid("1:4:x1.0000016") == [1, 2, 3, 4]
    assert parse_grid("1:4:x1.0001") == [1, 2, 3, 4]
    assert len(parse_grid("1:1000000:1")) == len(parse_grid("3:2000002:2")) == 10**6


def test_equal_compressors_have_zero_gap():
    bits = random_bits(random.Random(0), 400)
    comp = make_compressor("identity-pdc")
    prof = compute_profile(bits, [comp, comp], parse_grid("50:400:50"))
    assert all(w - s == 0 for _, (w, s), _ in prof.rows)
    assert prof.tail_bracket() == (0.0, 0.0)


def test_identity_ratio_is_one():
    bits = random_bits(random.Random(1), 300)
    for name in ("identity-pdc", "identity-fst"):
        table = compute_profile(bits, [make_compressor(name)], parse_grid("30:300:30"))
        assert all(b == n for n, (b,), _ in table.rows)


@pytest.mark.parametrize("names", [[], ["identity-fst", "lz78", "identity-fst"]])
def test_profile_needs_one_or_two_compressors(names):
    # The table reads one column as a ratio and two as a weak/strong gap;
    # any other count is refused before a compressor runs.
    def unused(bits, points):
        raise AssertionError("a compressor ran")

    comps = [Compressor(name, unused) for name in names]
    with pytest.raises(
        ValidationError, match=f"^need one or two compressors, got {len(names)}$"
    ):
        compute_profile("0101010101", comps, parse_grid("4:8:4"))


def test_lz_ratio_on_constant_input():
    # 0^10000 parses into phrases 0, 00, 000, ...; the coded length is the
    # sum of ceil(log2 i) + 1 over the complete tokens plus a tail pointer.
    n = 10**4
    bits = "0" * n
    d = 0
    covered = 0
    while covered + d + 1 <= n:
        d += 1
        covered += d
    expected = sum((i - 1).bit_length() + 1 for i in range(1, d + 1))
    if covered < n:
        expected += d.bit_length()
    assert len(lz_encode(bits)) == expected
    table = compute_profile(bits, [make_compressor("lz78")], parse_grid(f"{n}:{n}:1"))
    ratio = table.rows[0][1][0] / n
    assert ratio == expected / n
    assert ratio <= 0.15


def test_repeater_and_halfcomp_builtins_parse():
    assert output_bits(make_compressor("repeater(10)"), "00") == 4
    half = make_compressor("half-compressor(9,9,0)")
    R = "110110110"
    assert output_bits(half, R + "1" * 9 + R[::-1]) == len(R) + 9 + 1


def test_kfs_builtin():
    comp = make_compressor("kfs(12)")
    assert output_bits(comp, "0101") <= 4
    # Flagged CSV notes carry the label, so it is normalized.
    for name in ("kfs(12)", "kfs( 12 )", "kfs(012)"):
        assert make_compressor(name).label == "kfs(12)"
    with pytest.raises(ValidationError):
        make_compressor("kfs(7)")  # empty universe


def test_unknown_compressor_rejected():
    with pytest.raises(ValidationError):
        make_compressor("no-such-thing")


def test_machine_file_compressors(tmp_path):
    from depthlab import format_fst, format_pdc, identity_fst, identity_pdc

    f = tmp_path / "ident.fst"
    f.write_text(format_fst(identity_fst()))
    assert output_bits(make_compressor(str(f)), "0101") == 4
    p = tmp_path / "ident.pdc"
    p.write_text(format_pdc(identity_pdc()))
    assert output_bits(make_compressor(str(p)), "0101") == 4


def test_empty_machine_files_are_not_a_machine_format(tmp_path):
    for name, text in (("empty.pdc", ""), ("blank.fst", " \n\t\n  ")):
        path = tmp_path / name
        path.write_text(text)
        message = f"^{re.escape(str(path))}: not a recognized machine format$"
        with pytest.raises(ValidationError, match=message):
            load_machine(str(path))
        with pytest.raises(ValidationError, match=message):
            make_compressor(str(path))


def test_stuck_rows_are_flagged_not_fatal():
    # A compressor defined only on 0s sticks at the first 1.
    stuck = PdcSpec(1, 1, "unary", {(1, "0", Z0): (1, Z0, "0")}, 0)
    comp = Compressor("zeros-only", partial(pdc_lengths, stuck))
    bits = "000100"
    prof = compute_profile(bits, [make_compressor("identity-pdc"), comp], [2, 6])
    assert None not in prof.rows[0][1]
    assert None in prof.rows[1][1] and "stuck" in prof.rows[1][2]
    csv = prof.to_csv()
    assert "# n=6 flagged" in csv


def test_grid_beyond_sequence_is_flagged():
    prof = compute_profile(
        "0101", [make_compressor("identity-pdc"), make_compressor("lz78")], [2, 9]
    )
    assert prof.rows[1][2] == "prefix beyond sequence end"


def test_profile_csv_roundtrip_and_check():
    bits = random_bits(random.Random(3), 500)
    prof = compute_profile(
        bits,
        [make_compressor("identity-pdc"), make_compressor("lz78")],
        parse_grid("100:500:100"),
    )
    rows = load_profile_csv(prof.to_csv())
    assert [r[0] for r in rows] == [100, 200, 300, 400, 500]
    lines = prof.to_csv().splitlines()
    n, w, s, gap, over = lines[1].split(",")
    lines[1] = ",".join([n, w, s, str(int(gap) + 1), over])
    with pytest.raises(ValidationError):
        load_profile_csv("\n".join(lines))


PROFILE_HEADER = "n,weak_bits,strong_bits,gap,gap_over_n"


@pytest.mark.parametrize("text, message", [
    ("n,weak,strong,gap,gap_over_n\n1,1,0,1,1.000000", "not a profile CSV"),
    ("", "not a profile CSV"),
    (f"{PROFILE_HEADER}\n0,0,0,0,0.000000", "n must be >= 1 in row n=0"),
    (f"{PROFILE_HEADER}\n-1,0,0,0,-0.000000", "n must be >= 1 in row n=-1"),
    (f"{PROFILE_HEADER}\n100,100,50", "bad profile row '100,100,50'"),
    (f"{PROFILE_HEADER}\n100,100,50,50,0.5,0", "bad profile row '100,100,50,50,0.5,0'"),
    (f"{PROFILE_HEADER}\n100,100,5x,95,0.950000", "bad profile row '100,100,5x,95,0.950000'"),
    (f"{PROFILE_HEADER}\n1_00,100,50,50,0.500000", "bad profile row '1_00,100,50,50,0.500000'"),
    (f"{PROFILE_HEADER}\n\u0661,1,0,1,1.000000", "bad profile row '\u0661,1,0,1,1.000000'"),
    (f"{PROFILE_HEADER}\n100,100,50,50,0.400000", "gap_over_n mismatch in row n=100"),
], ids=["header", "empty", "n-zero", "n-negative", "short-row", "long-row", "non-integer",
        "underscore", "non-ascii-digit", "gap-over-n"])
def test_profile_csv_refuses_malformed_rows(text, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_profile_csv(text)


def test_desk_scale_profile_examples():
    # Weak identity vs the palindrome-zone compressor on its home stream:
    # the tail gap sits near one half.
    b = SequenceRecipe(kind="b", k=9, stages=20, seed=6).generate().bits
    prof = compute_profile(
        b,
        [make_compressor("identity-pdc"), make_compressor("half-compressor(9,9,0)")],
        parse_grid(f"4000:{len(b)}:1000"),
    )
    lo, hi = prof.tail_bracket()
    assert lo >= 0.5 - 0.15
    assert hi <= 0.5 + 1 / 9 + 0.05

    # LZ78 gains nothing over identity on the enumeration stream.
    c = SequenceRecipe(kind="c", k=6, v=2, bit_budget=2 * 10**4).generate().bits
    prof = compute_profile(
        c,
        [make_compressor("identity-fst"), make_compressor("lz78")],
        parse_grid(f"5000:{len(c)}:2500"),
    )
    _, hi = prof.tail_bracket()
    assert hi <= 0.4


def test_tail_bracket_widens_under_refinement():
    bits = random_bits(random.Random(9), 1200)
    weak, strong = make_compressor("identity-pdc"), make_compressor("lz78")
    coarse = compute_profile(bits, [weak, strong], parse_grid("600:1200:300"))
    fine = compute_profile(bits, [weak, strong], parse_grid("600:1200:100"))
    clo, chi = coarse.tail_bracket(1.0)
    flo, fhi = fine.tail_bracket(1.0)
    assert flo <= clo and fhi >= chi


def test_tail_bracket_skips_flagged_rows():
    # Usable rows have gap/n 0.5, 0.25, 0.8, 0.1; the flagged row is skipped.
    cells = [(10, 5), (20, 5), (25, None), (30, 24), (40, 4)]
    prof = DepthProfile(("w", "s"), tuple(
        (n, (n, None if g is None else n - g), "" if g is not None else "x")
        for n, g in cells
    ))
    table = DepthProfile(("c",), tuple((n, (g,), "") for n, g in cells))
    for tail, want in ((0.5, (0.1, 0.8)), (0.2, (0.1, 0.1)), (0.0, (0.1, 0.1)),
                       (1.0, (0.1, 0.8))):
        assert prof.tail_bracket(tail) == want
        assert table.tail_bracket(tail) == want
    empties = (DepthProfile(("w", "s"), ()), DepthProfile(("c",), ((5, (None,), "x"),)))
    for empty in empties:
        with pytest.raises(ValidationError, match="^no usable rows$"):
            empty.tail_bracket()


def machine_of(comp):
    return comp.lengths.args[0]


def test_builtin_machines_are_kept_for_later_calls():
    depth._builtin.cache_clear()
    half = "half-compressor(9,9,0)"
    first = machine_of(make_compressor(half))
    assert machine_of(make_compressor(f" {half} ")) is first
    assert machine_of(make_compressor("identity-pdc")) is machine_of(
        make_compressor("identity-pdc"))
    assert machine_of(make_compressor("repeater(01)")) is machine_of(
        make_compressor("repeater(01)"))
    # Two more builtins were used since, so the cache no longer holds it.
    assert depth._builtin.cache_info().maxsize == depth.BUILTIN_CACHE_SIZE == 2
    assert machine_of(make_compressor(half)) is not first


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_profiles_on_kept_machines_match_a_cold_run(tmp_path, capsys):
    bits = SequenceRecipe(kind="b", k=9, stages=12, seed=4).generate().bits
    (tmp_path / "b.bits").write_text(bits)
    argv = ["profile", "--input", str(tmp_path / "b.bits"), "--weak", "identity-pdc",
            "--strong", "half-compressor(9,9,0)", "--grid", f"1:{len(bits)}:37"]
    depth._builtin.cache_clear()
    cold = run_main(argv, capsys)
    assert cold[0] == 0 and cold[1].count("\n") > 20
    hits = depth._builtin.cache_info().hits
    assert [run_main(argv, capsys) for _ in range(2)] == [cold, cold]
    assert depth._builtin.cache_info().hits == hits + 4
    depth._builtin.cache_clear()
    assert run_main(argv, capsys) == cold


def ratio_argv(tmp_path, compressor):
    (tmp_path / "s.bits").write_text("0110")
    return ["ratio", "--input", str(tmp_path / "s.bits"), "--compressor", compressor,
            "--grid", "4:4:1"]


def test_machine_files_are_read_on_every_call(tmp_path, capsys):
    path = tmp_path / "m.pdc"
    argv = ratio_argv(tmp_path, str(path))
    path.write_text("pdc 1 1 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n")
    assert run_main(argv, capsys)[:2] == (0, "n,bits,ratio\n4,4,1.000000\n")
    path.write_text("pdc 1 1 unary 0\n1 0 z -> 1 z -\n1 1 z -> 1 z 1\n")
    assert run_main(argv, capsys)[:2] == (0, "n,bits,ratio\n4,2,0.500000\n")
    path.unlink()
    code, _, err = run_main(argv, capsys)
    assert (code, err) == (2, f"error: no builtin or machine file named {str(path)!r}\n")


def test_builtin_names_win_over_files_of_the_same_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    silent = "fst 1 1\n1 0 -> 1 -\n1 1 -> 1 -\n"
    for name in ("lz78", "identity-fst", "identity-pdc", "half-compressor(9,9,0)",
                 "repeater(01)"):
        Path(name).write_text(silent)
    assert make_compressor("lz78").lengths is lz_lengths
    x = "0110100110010110"
    assert output_bits(make_compressor("identity-fst"), x) == len(x)
    assert output_bits(make_compressor("identity-pdc"), x) == len(x)
    assert output_bits(make_compressor("repeater(01)"), x) == 2 * len(x)
    assert output_bits(make_compressor("half-compressor(9,9,0)"), x) == len(x)
    assert make_compressor("./lz78").label == "lz78"  # a path reads the file
    assert output_bits(make_compressor("./lz78"), x) == 0


@pytest.mark.parametrize("ceiling", ["COMPOSE_STATE_CEILING", "ESCAPE_BITS_CEILING"])
def test_lowered_ceilings_refuse_a_kept_half_compressor(ceiling, tmp_path, monkeypatch,
                                                       capsys):
    argv = ratio_argv(tmp_path, "half-compressor(9,9,0)")
    assert run_main(argv, capsys)[0] == 0  # now kept
    monkeypatch.setattr(pushdown, ceiling, 10)
    refused = run_main(argv, capsys)
    depth._builtin.cache_clear()
    assert run_main(argv, capsys) == refused
    assert refused[0] == 2 and refused[2].startswith("error: half-compressor(9,9,0) ")
    assert refused[2].endswith(", over 10\n")


def test_lowered_enum_ceiling_refuses_kfs(tmp_path, monkeypatch, capsys):
    argv = ratio_argv(tmp_path, "kfs(12)")
    assert run_main(argv, capsys)[0] == 0
    assert run_main(["kfs", "--bits", "0110", "--k", "12"], capsys)[0] == 0
    monkeypatch.setattr(fscomplexity, "ENUM_CEILING", 11)
    message = "error: enumeration bound 12 exceeds ceiling 11"
    for args in (argv, ["kfs", "--bits", "0110", "--k", "12"]):
        code, out, err = run_main(args, capsys)
        assert (code, out) == (2, "") and err.startswith(message), err
    with pytest.raises(ValidationError, match="exceeds ceiling 11"):
        make_compressor("kfs(12)")
