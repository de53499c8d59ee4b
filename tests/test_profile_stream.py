"""One-pass profiles and ratios against a batch oracle that runs every
grid prefix afresh from bit 0."""
import random
from functools import partial

import pytest

from conftest import (
    drop_bit_move,
    flag_free_bits,
    oracle_pdc_run,
    output_bits,
    random_fst,
    random_pdc,
)
from depthlab import (
    PdcSpec,
    StuckError,
    build_half_compressor,
    compose_pdc_fst,
    compute_profile,
    fst_run,
    gen_recipe_a,
    gen_recipe_b,
    identity_fst,
    identity_pdc,
    lz_encode,
    make_compressor,
    pdc_run,
    random_bits,
)
from depthlab import pushdown
from depthlab.depth import Compressor, DepthProfile
from depthlab.fst import fst_lengths
from depthlab.pushdown import Z0, pdc_lengths

def fresh_fst(T):
    """Output bit count of a fresh run of T on a prefix."""
    return lambda prefix: len(fst_run(T, prefix).output)


def fresh_pdc(C):
    """Output bit count of a fresh run of C on a prefix; raises StuckError."""
    return lambda prefix: len(pdc_run(C, prefix).output)


def fresh_lz(prefix):
    return len(lz_encode(prefix))


def pdc_pair(C, label):
    """A compressor over C, paired with C's fresh-run function."""
    return Compressor(label, partial(pdc_lengths, C)), fresh_pdc(C)


def batch_rows(bits, pairs, grid):
    for n in sorted(set(grid)):
        if n > len(bits):
            yield n, (None,) * len(pairs), "prefix beyond sequence end"
            continue
        values, notes = [], []
        for comp, fresh in pairs:
            try:
                values.append(fresh(bits[:n]))
            except StuckError as exc:
                values.append(None)
                notes.append(f"{comp.label} {exc}")
        yield n, tuple(values), "; ".join(notes)


def batch_table(bits, pairs, grid):
    labels = tuple(comp.label for comp, _ in pairs)
    return DepthProfile(labels, tuple(batch_rows(bits, pairs, grid)))


def assert_matches_batch(bits, pairs, grid):
    """`pairs` holds (compressor, fresh-run function) pairs. The rows are
    compared as well as the CSV, since both tables format through the same
    to_csv (pinned to literal bytes in test_cli.py)."""
    for table in [[pair] for pair in pairs] + list(zip(pairs, pairs[1:] + pairs[:1])):
        comps = [comp for comp, _ in table]
        got, want = compute_profile(bits, comps, grid), batch_table(bits, table, grid)
        assert got == want
        assert got.to_csv().encode() == want.to_csv().encode()


def assert_same_stuck(C, comp, bits, grid):
    """Every StuckError of comp's stream equals a fresh run of C's, field
    by field."""
    points = sorted(n for n in set(grid) if n <= len(bits))
    for n, value in zip(points, comp.lengths(bits, points)):
        if not isinstance(value, StuckError):
            assert value == fresh_pdc(C)(bits[:n])
            continue
        with pytest.raises(StuckError) as fresh:
            pdc_run(C, bits[:n])
        got = (value.position, value.state, value.top, value.partial_output)
        want = fresh.value
        assert got == (want.position, want.state, want.top, want.partial_output)


def random_grid(rng, length):
    """Unsorted points with duplicates, some beyond the stream end."""
    grid = [rng.randint(1, length + 20) for _ in range(rng.randint(1, 12))]
    return grid + rng.choices(grid, k=3)


@pytest.mark.parametrize("kind", ["binary", "unary"])
def test_random_machines_match_batch(kind):
    rng = random.Random(f"stream-{kind}")
    for trial in range(40):
        bits = random_bits(rng, rng.randint(1, 120))
        grid = random_grid(rng, len(bits))
        C = random_pdc(rng, kind=kind)
        partial_pdc = drop_bit_move(rng, random_pdc(rng, kind=kind))
        T = random_fst(rng)
        pairs = [
            pdc_pair(C, "pdc"),
            pdc_pair(partial_pdc, "partial-pdc"),
            (Compressor("fst", partial(fst_lengths, T)), fresh_fst(T)),
            (make_compressor("lz78"), fresh_lz),
        ]
        assert_matches_batch(bits, pairs, grid)
        assert_same_stuck(partial_pdc, pairs[1][0], bits, grid)


def test_stuck_after_first_point_reports_absolute_position():
    zeros_only = PdcSpec(
        1, 1, "unary", {(1, "0", Z0): (1, Z0)}, {(1, "0", Z0): "0"}, 0
    )
    comp, fresh = pdc_pair(zeros_only, "zeros-only")
    bits = "0001000"
    grid = [6, 2, 9, 4, 2, 7]
    identity = (make_compressor("identity-pdc"), fresh_pdc(identity_pdc()))
    assert_matches_batch(bits, [identity, (comp, fresh)], grid)
    assert_same_stuck(zeros_only, comp, bits, grid)
    rows = compute_profile(bits, [comp], grid).rows
    assert rows[0] == (2, (2,), "")
    note = (
        "zeros-only stuck at input position 3: no transition from state 1 "
        "on stack top 'z'"
    )
    assert rows[1:] == ((4, (None,), note), (6, (None,), note), (7, (None,), note),
                        (9, (None,), "prefix beyond sequence end"))
    with pytest.raises(StuckError) as info:
        output_bits(comp, bits)
    assert (info.value.position, info.value.partial_output) == (3, "000")


def test_recipe_streams_match_batch():
    b = gen_recipe_b(9, stages=6, seed=3).bits
    grid = list(range(len(b) + 40, 0, -37)) + [50, 50]
    half = fresh_pdc(build_half_compressor(9, 9, 0))
    pairs = [
        (make_compressor("identity-pdc"), fresh_pdc(identity_pdc())),
        (make_compressor("half-compressor(9,9,0)"), half),
    ]
    assert_matches_batch(b, pairs, grid)

    a = gen_recipe_a(stages=5, seed=3).bits
    grid = list(range(len(a) + 40, 0, -29)) + [29]
    pairs = [
        (make_compressor("identity-fst"), fresh_fst(identity_fst())),
        (make_compressor("lz78"), fresh_lz),
    ]
    assert_matches_batch(a, pairs, grid)


def test_every_prefix_length_costs_one_pass(monkeypatch):
    # The paper's liminf/limsup range over every n; a step-1 grid must still
    # push each bit through each compressor exactly once.
    bits = gen_recipe_b(9, stages=14, seed=7).bits
    assert len(bits) >= 5000
    fed = []
    steps = pushdown._steps

    def counting_steps(C, x, *args):
        fed.append(len(x))
        return steps(C, x, *args)

    monkeypatch.setattr(pushdown, "_steps", counting_steps)
    strong = make_compressor("half-compressor(9,9,0)")
    grid = list(range(1, len(bits) + 1))
    prof = compute_profile(bits, [make_compressor("identity-pdc"), strong], grid)
    assert sum(fed) == 2 * len(bits)
    assert [n for n, _, _ in prof.rows] == grid
    C = build_half_compressor(9, 9, 0)
    rng = random.Random(11)
    sample = rng.sample(prof.rows, 40) + [prof.rows[-1]]
    for n, (weak_bits, strong_bits), note in sample:
        want = len(pdc_run(C, bits[:n]).output)
        assert (weak_bits, strong_bits, note) == (n, want, "")


def test_deep_stack_profile_resumes_from_string_stacks():
    # Each segment resumes from the stack the last one left, up to 100k
    # symbols deep, and the second half of the stream reads all of it
    # back: R 1^9 reverse(R) with flag-free R.
    N = compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())
    r = flag_free_bits(99_999, 8)  # 9 divides |R|, so the flag is aligned
    bits = r + "1" * 9 + r[::-1]
    grid = list(range(1000, len(bits) + 1, 1000))
    got = list(pdc_lengths(N, bits, grid))
    head = len(r) + 9  # copied verbatim; then one 0 per 9 matched bits
    assert got == [n if n <= head else head + (n - head) // 9 for n in grid]
    rng = random.Random(13)
    for i in sorted(rng.sample(range(len(grid) - 1), 2)) + [len(grid) - 1]:
        assert got[i] == len(oracle_pdc_run(N, bits[: grid[i]]).output)


def test_step_one_grid_on_a_deep_stack():
    # Every prefix length of R 1^9 reverse(R): a grid point per bit while
    # the stack holds up to 10k symbols, which a stack copy per point would
    # make quadratic.
    strong = make_compressor("half-compressor(9,9,0)")
    r = flag_free_bits(9_999, 5)
    bits = r + "1" * 9 + r[::-1]
    grid = list(range(1, len(bits) + 1))
    got = list(strong.lengths(bits, grid))
    head = len(r) + 9
    assert got == [n if n <= head else head + (n - head) // 9 for n in grid]
    rng = random.Random(17)
    for n in sorted(rng.sample(grid, 4)) + [head + 1, len(bits)]:
        want = oracle_pdc_run(build_half_compressor(9, 9, 0), bits[:n])
        assert got[n - 1] == len(want.output)
