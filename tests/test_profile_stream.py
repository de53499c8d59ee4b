"""One-pass profiles and ratios against a batch oracle that runs every
grid prefix afresh from bit 0."""
import random
from functools import partial
from itertools import accumulate

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
    FstSpec,
    PdcSpec,
    SequenceRecipe,
    StuckError,
    build_half_compressor,
    compose_pdc_fst,
    compute_profile,
    fst_run,
    identity_fst,
    identity_pdc,
    lz_encode,
    make_compressor,
    pdc_run,
    random_bits,
    stack_free,
)
from depthlab import fst, pushdown
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


def oracle_pair(C, label):
    """A compressor over C, paired with the output bit count of
    oracle_pdc_run on a prefix, which shares no code with the engines."""
    return Compressor(label, partial(pdc_lengths, C)), (
        lambda prefix: len(oracle_pdc_run(C, prefix).output)
    )


def random_grid(rng, length):
    """Unsorted points with duplicates, some beyond the stream end."""
    grid = [rng.randint(1, length + 20) for _ in range(rng.randint(1, 12))]
    return grid + rng.choices(grid, k=3)


def step_grid(rng, length):
    """A linear grid past the stream end whose step is 1, prime to BLOCK,
    or sharing a factor with it."""
    step = rng.choice([1, 5, 7, 11, 13, 6, 8])
    return list(range(rng.randint(1, step), length + 20, step))


@pytest.mark.parametrize("kind", ["binary", "unary"])
def test_random_machines_match_batch(kind):
    rng = random.Random(f"stream-{kind}")
    for trial in range(40):
        bits = random_bits(rng, rng.randint(1, 120))
        grid = random_grid(rng, len(bits))
        C = random_pdc(rng, kind=kind)
        partial_pdc = drop_bit_move(rng, random_pdc(rng, kind=kind))
        T = random_fst(rng)
        # A total stack-free spec streams on the block engine, or on the
        # closed form when its moves emit one width; one missing a move
        # streams on the block engine and sticks. Both are drawn from
        # their own generator, on a random grid and on a linear one.
        lanes = random.Random(f"stream-{kind}-lanes-{trial}")
        free = stack_free(random_fst(lanes, max_emit=lanes.choice([0, 3])))
        partial_free = drop_bit_move(lanes, stack_free(random_fst(lanes)))
        pairs = [
            pdc_pair(C, "pdc"),
            pdc_pair(partial_pdc, "partial-pdc"),
            (Compressor("fst", partial(fst_lengths, T)), fresh_fst(T)),
            (make_compressor("lz78"), fresh_lz),
            oracle_pair(free, "stack-free"),
            oracle_pair(partial_free, "partial-stack-free"),
        ]
        for points in (grid, step_grid(lanes, len(bits))):
            assert_matches_batch(bits, pairs, points)
            assert_same_stuck(partial_pdc, pairs[1][0], bits, points)
            assert_same_stuck(partial_free, pairs[5][0], bits, points)


def uniform_fst(rng, c):
    """A random 1-4-state transducer whose every move emits c bits."""
    m = rng.randint(1, 4)
    moves = {
        (q, b): (rng.randint(1, m), random_bits(rng, c)) for q in range(1, m + 1) for b in "01"
    }
    return FstSpec(m, rng.randint(1, m), moves)


def mixed_fst(rng):
    """A random 1-4-state transducer with emissions of at least two lengths."""
    while True:
        T = random_fst(rng, max_states=4, max_emit=3)
        if len({len(e) for _, e in T.moves.values()}) > 1:
            return T


@pytest.mark.parametrize("c", [0, 1, 2, 3, "mixed"])
def test_closed_form_lengths_match_runs(monkeypatch, c):
    # A transducer whose every move emits c bits reads c*n without calling
    # fst_run; any other runs. Both must equal a fresh run of every prefix,
    # directly and as a stack-free pushdown compressor, and repeater(01)
    # must read 2n.
    runs = []
    monkeypatch.setattr(fst, "fst_run", lambda *a, **kw: runs.append(a) or fst_run(*a, **kw))
    rng = random.Random(f"closed-form-{c}")
    for _ in range(30):
        T = mixed_fst(rng) if c == "mixed" else uniform_fst(rng, c)
        bits = random_bits(rng, rng.randint(0, 100))
        full = list(range(1, len(bits) + 1))
        for grid in (full, random_grid(rng, len(bits)), step_grid(rng, len(bits))):
            points = sorted(n for n in set(grid) if n <= len(bits))
            want = [len(fst_run(T, bits[:n]).output) for n in points]
            if c != "mixed":
                assert want == [c * n for n in points]
            if c == 2:
                assert list(make_compressor("repeater(01)").lengths(bits, points)) == want
            runs.clear()
            assert list(fst_lengths(T, bits, points)) == want
            assert list(pdc_lengths(stack_free(T), bits, points)) == want
            assert (runs != []) == (c == "mixed" and points != [])


def test_stuck_after_first_point_reports_absolute_position():
    zeros_only = PdcSpec(1, 1, "unary", {(1, "0", Z0): (1, Z0, "0")}, 0)
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
    b = SequenceRecipe(kind="b", k=9, stages=6, seed=3).generate().bits
    grid = list(range(len(b) + 40, 0, -37)) + [50, 50]
    half = fresh_pdc(build_half_compressor(9, 9, 0))
    pairs = [
        (make_compressor("identity-pdc"), fresh_pdc(identity_pdc())),
        (make_compressor("half-compressor(9,9,0)"), half),
    ]
    assert_matches_batch(b, pairs, grid)

    a = SequenceRecipe(kind="a", stages=5, seed=3).generate().bits
    grid = list(range(len(a) + 40, 0, -29)) + [29]
    pairs = [
        (make_compressor("identity-fst"), fresh_fst(identity_fst())),
        (make_compressor("lz78"), fresh_lz),
    ]
    assert_matches_batch(a, pairs, grid)


def test_every_prefix_length_costs_one_pass(monkeypatch):
    # The paper's liminf/limsup range over every n; a step-1 grid must still
    # push each bit through each compressor at most once. The
    # half-compressor's bits go through the pushdown block engine once.
    # identity-pdc is a transducer whose every move emits one bit, so its
    # column reads n without a run; a transducer whose emissions differ in
    # length runs each bit through fst_run once.
    bits = SequenceRecipe(kind="b", k=9, stages=14, seed=7).generate().bits
    assert len(bits) >= 5000
    fed = {"_steps": [], "fst_run": []}

    def counting(engine, name):
        def counted(machine, x, *args, **kwargs):
            fed[name].append(len(x))
            return engine(machine, x, *args, **kwargs)

        return counted

    monkeypatch.setattr(pushdown, "_steps", counting(pushdown._steps, "_steps"))
    monkeypatch.setattr(fst, "fst_run", counting(fst.fst_run, "fst_run"))
    strong = make_compressor("half-compressor(9,9,0)")
    grid = list(range(1, len(bits) + 1))
    prof = compute_profile(bits, [make_compressor("identity-pdc"), strong], grid)
    assert sum(fed["_steps"]) == len(bits)
    assert 0 not in fed["_steps"]
    assert fed["fst_run"] == []
    assert [n for n, _, _ in prof.rows] == grid
    C = build_half_compressor(9, 9, 0)
    rng = random.Random(11)
    sample = rng.sample(prof.rows, 40) + [prof.rows[-1]]
    for n, (weak_bits, strong_bits), note in sample:
        want = len(pdc_run(C, bits[:n]).output)
        assert (weak_bits, strong_bits, note) == (n, want, "")

    square = FstSpec(1, 1, {(1, "0"): (1, ""), (1, "1"): (1, "11")})
    got = list(fst_lengths(square, bits, grid))
    assert sum(fed["fst_run"]) == len(bits)
    assert got == list(accumulate(2 * int(b) for b in bits))


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
