"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when its assertions hold; tolerances
are written out literally next to the asserts.
"""
import math
import random
import time
from itertools import product
from pathlib import Path

from conftest import (
    brute_force_min_input,
    described,
    machines,
    oracle_pdc_validate,
    pdc_fields,
    random_fst,
    random_pdc,
)
from depthlab import (
    FstSpec,
    SequenceRecipe,
    build_half_compressor,
    check_parse,
    compose_pdc_fst,
    compute_profile,
    decode_fst,
    encode_fst,
    enum_fsts,
    fs_random_string,
    fst_run,
    identity_fst,
    identity_pdc,
    kfs_complexity,
    kfs_over_set,
    lz_conditional,
    lz_decode,
    lz_encode,
    lz_parse,
    make_compressor,
    min_input_for_output,
    parse_grid,
    pdc_il_check,
    pdc_run,
    random_bits,
    repeat_bound,
    repeater_fst,
)
from depthlab.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def all_inputs(max_len):
    for L in range(max_len + 1):
        for xs in product("01", repeat=L):
            yield "".join(xs)


def test_criterion_1_lz_roundtrip():
    t0 = time.time()
    for x in all_inputs(14):
        parse = lz_parse(x)
        check_parse(parse)
        assert lz_decode(lz_encode(x)) == x
    rng = random.Random(20260810)
    for _ in range(1000):
        x = random_bits(rng, 10**4)
        assert lz_decode(lz_encode(x)) == x
        check_parse(lz_parse(x))
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, "lz78 roundtrip and parse structure")


def test_criterion_2_repeat_bound():
    rng = random.Random(7)
    violations = 0
    for _ in range(200):
        x = random_bits(rng, rng.randint(0, 64))
        y = random_bits(rng, rng.randint(1, 8))
        n = rng.randint(1, 64)
        d = len(lz_parse(x).phrases)
        _, measured = lz_conditional(y * n, x)
        if measured > repeat_bound(len(y), n, d):
            violations += 1
    assert violations == 0
    report(2, "repeated-block length bound, 200 seeded triples")


def _all_two_state_specs():
    emissions = [""]
    for L in (1, 2):
        emissions.extend("".join(e) for e in product("01", repeat=L))
    for m in (1, 2):
        states = range(1, m + 1)
        keys = [(q, b) for q in states for b in "01"]
        for targets in product(states, repeat=len(keys)):
            for outs in product(emissions, repeat=len(keys)):
                moves = dict(zip(keys, zip(targets, outs)))
                for start in states:
                    yield FstSpec(m, start, moves)


def test_criterion_3_codec_roundtrip():
    count = 0
    for T in _all_two_state_specs():
        assert decode_fst(encode_fst(T)) == T
        count += 1
    assert count == 49 + 2 * 16 * 7**4

    rng = random.Random(12)
    for _ in range(500):
        T = random_fst(rng, max_states=5, max_emit=3)
        assert decode_fst(encode_fst(T)) == T

    for _ in range(40):
        desc = encode_fst(random_fst(rng, max_states=4))
        for i in range(len(desc)):
            flipped = desc[:i] + ("1" if desc[i] == "0" else "0") + desc[i + 1 :]
            got = decode_fst(flipped)  # must not raise
            assert got is None or isinstance(got, FstSpec)
    report(3, "machine codec roundtrip and flip robustness")


def test_criterion_4_kfs_oracle_and_split_inequality():
    t0 = time.time()
    universe = enum_fsts(12)
    for T in machines(universe):
        for x in all_inputs(5):
            got = min_input_for_output(T, x)
            brute = brute_force_min_input(T, x, 6)
            if got is not None and got[0] <= 6:
                assert brute is not None and len(brute) == got[0]
            else:
                assert brute is None

    # Splitting inequality at bound 4, skipping infinite left sides. No
    # machine has a description under 8 bits, so every case skips; the
    # loop still exercises the rule as stated.
    assert len(enum_fsts(4)) == 0
    for x in all_inputs(3):
        for y in all_inputs(3):
            for z in all_inputs(3):
                for n in (1, 2):
                    left = kfs_complexity(x + y * n + z, 4).value
                    if math.isinf(left):
                        continue
                    right = (
                        kfs_complexity(x, 12).value
                        + n * kfs_complexity(y, 12).value
                        + kfs_complexity(z, 12).value
                    )
                    assert left >= right
    elapsed = time.time() - t0
    assert elapsed < 600, f"took {elapsed:.1f}s"
    report(4, "size-bounded complexity oracle agreement")


def test_criterion_5_composition_oracle():
    rng = random.Random(31)
    pairs = [(build_half_compressor(9, 9, 0), identity_fst())]
    pairs.append((identity_pdc(), repeater_fst("10")))
    while len(pairs) < 20:
        kind = "unary" if len(pairs) % 2 else "binary"
        pairs.append((random_pdc(rng, kind=kind), random_fst(rng, max_states=2)))
    unary_count = sum(1 for C, _ in pairs if C.stack_kind == "unary")
    assert unary_count >= 5
    for C, T in pairs:
        N = compose_pdc_fst(C, T)
        assert oracle_pdc_validate(*pdc_fields(N)) == []
        for x in all_inputs(8):
            want = pdc_run(C, fst_run(T, x).output).output
            assert pdc_run(N, x).output == want
    report(5, "composition equals oracle on 20 seeded pairs")


def test_criterion_6_half_compressor_behavior():
    C = build_half_compressor(9, 9, 0)
    assert oracle_pdc_validate(*pdc_fields(C)) == []
    assert pdc_il_check(C, 12) is None

    stream = SequenceRecipe(kind="b", k=9, stages=24, seed=42).generate()
    bits = stream.bits
    assert len(bits) >= 2 * 10**4

    full = pdc_run(C, bits)  # never errors: no stuck, no error state
    assert full.final_state != C.num_states

    pos = 0
    flag_prefixes = []
    for blk in stream.blocks:
        rlen = blk["len_r"]
        flag_prefixes.append(pos + rlen + 9)
        pos += 2 * rlen + 9
    checked = 0
    for n in flag_prefixes:
        if n < 10**4:
            continue
        ratio = len(pdc_run(C, bits[:n]).output) / n
        assert ratio <= 0.5 + 1 / 9 + 0.05, (n, ratio)
        checked += 1
    assert checked > 0

    identity = make_compressor("identity-pdc")
    grid = parse_grid(f"10000:{len(bits)}:1000")
    assert all(
        b == n for n, (b,), _ in compute_profile(bits, [identity], grid).rows
    )
    profile = compute_profile(
        bits, [identity, make_compressor("half-compressor(9,9,0)")], grid
    )
    lo, _hi = profile.tail_bracket(0.5)
    assert lo >= 0.5 - 0.15, lo
    report(6, "half compressor ratio and depth gap on recipe b")


def test_criterion_7_recipe_c_lz_ratio():
    stream = SequenceRecipe(kind="c", k=6, v=2, bit_budget=10**5).generate()
    assert len(stream.bits) >= 10**5
    table = compute_profile(
        stream.bits, [make_compressor("lz78")], parse_grid("10000:100000:10000")
    )
    for n, (bits_out,), _ in table.rows:
        assert bits_out is not None
        assert bits_out / n >= 0.6, (n, bits_out / n)
    report(7, "lz78 stays incompressible on the enumeration stream")


def test_criterion_8_certified_randomness_mechanism():
    r, cert = fs_random_string(16, 2, mode="certified", seed=1)
    assert len(r) == 16
    assert cert.value >= 8
    # Independent verification with the criterion-4 oracle machinery:
    # every machine with a description of at most 6 bits (there are none,
    # so the minimum is infinite) and brute-force input search agree.
    u6 = enum_fsts(6)
    assert len(u6) == 0
    assert kfs_complexity(r, 6).value == math.inf
    assert all(
        brute_force_min_input(T, r, 6) is None for T in machines(u6)
    )

    Tr = described(repeater_fst(r))
    for t in range(9):
        assert kfs_over_set(r * t, Tr).value == t
    report(8, "certified randomness and repeater complexity")


def test_criterion_9_stack_height_irrelevance():
    rng = random.Random(2024)
    for _ in range(50):
        C = random_pdc(rng, kind="unary")
        c = C.lambda_budget
        for x in all_inputs(8):
            h = (c + 1) * len(x)
            for q in range(1, C.num_states + 1):
                low = pdc_run(C, x, state=q, stack="0" * h + "z").output
                high = pdc_run(C, x, state=q, stack="0" * (h + 7) + "z").output
                assert low == high
    report(9, "stack height beyond the reach bound is irrelevant")


def test_criterion_10_determinism(tmp_path):
    recipes = [
        SequenceRecipe(kind="a", growth="scaled", g=4, stages=6, seed=9),
        SequenceRecipe(kind="b", k=9, stages=10, seed=9),
        SequenceRecipe(kind="c", k=6, v=2, stages=10),
    ]
    for r in recipes:
        assert r.generate().sha256() == r.generate().sha256()

    bits = recipes[1].generate().bits
    weak = make_compressor("identity-pdc")
    strong = make_compressor("half-compressor(9,9,0)")
    grid = parse_grid("500:3000:500")
    csv1 = compute_profile(bits, [weak, strong], grid).to_csv()
    csv2 = compute_profile(bits, [weak, strong], grid).to_csv()
    assert csv1.encode() == csv2.encode()

    outs = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        code = cli_main(
            [
                "profile", "--recipe", "b", "--k", "9", "--seed", "9",
                "--stages", "10", "--weak", "identity-pdc",
                "--strong", "half-compressor(9,9,0)",
                "--grid", "500:3000:500", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report(10, "byte-identical regeneration and profiles")
