import random
from functools import partial

import pytest

from conftest import output_bits
from depthlab import (
    PdcSpec,
    ValidationError,
    compute_profile,
    lz_encode,
    make_compressor,
    parse_grid,
    random_bits,
)
from depthlab.depth import Compressor, DepthProfile, load_profile_csv
from depthlab.pushdown import Z0, pdc_lengths


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


def test_stuck_rows_are_flagged_not_fatal():
    # A compressor defined only on 0s sticks at the first 1.
    trans = {(1, "0", Z0): (1, Z0)}
    emit = {(1, "0", Z0): "0"}
    stuck = PdcSpec(1, 1, "unary", trans, emit, 0)
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


def test_desk_scale_profile_examples():
    from depthlab import gen_recipe_b, gen_recipe_c

    # Weak identity vs the palindrome-zone compressor on its home stream:
    # the tail gap sits near one half.
    b = gen_recipe_b(9, stages=20, seed=6).bits
    prof = compute_profile(
        b,
        [make_compressor("identity-pdc"), make_compressor("half-compressor(9,9,0)")],
        parse_grid(f"4000:{len(b)}:1000"),
    )
    lo, hi = prof.tail_bracket()
    assert lo >= 0.5 - 0.15
    assert hi <= 0.5 + 1 / 9 + 0.05

    # LZ78 gains nothing over identity on the enumeration stream.
    c = gen_recipe_c(6, 2, bit_budget=2 * 10**4).bits
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
