import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NON_BITS,
    counter_fst,
    oracle_fst_compose,
    oracle_fst_run,
    oracle_il_check,
    random_fst,
    silent_fst,
)
from depthlab import (
    FstSpec,
    ValidationError,
    enum_fsts,
    format_fst,
    fst,
    fst_compose,
    fst_run,
    identity_fst,
    identity_pdc,
    il_check,
    parse_fst,
    pdc_run,
    pushdown,
    repeater_fst,
    stack_free,
)
from depthlab.fst import BITS, fst_lengths

bitstrings = st.text(alphabet="01", max_size=12)


def all_inputs(max_len):
    for L in range(max_len + 1):
        for xs in product("01", repeat=L):
            yield "".join(xs)


def test_identity_run():
    r = fst_run(identity_fst(), "0110")
    assert (r.output, r.final_state) == ("0110", 1)


def test_repeater_run():
    r = fst_run(repeater_fst("10"), "00")
    assert (r.output, r.final_state) == ("1010", 1)


def test_empty_input():
    T = random_fst(random.Random(3))
    r = fst_run(T, "")
    assert (r.output, r.final_state) == ("", T.start)


def test_run_rejects_a_start_out_of_range():
    for start in (0, 5):
        with pytest.raises(ValidationError, match=f"^state {start} out of range 1..1$"):
            fst_run(identity_fst(), "01", start=start)


def test_block_run_matches_per_bit_oracle(monkeypatch):
    # Every input length from 0 to 4 blocks + 1, from the start state and
    # from every state, on a cold memo and then on a warm one; then the
    # same with a memo capped at 5 entries.
    rng = random.Random(29)
    for cap in (fst.BLOCK_MEMO_CAP, 5):
        monkeypatch.setattr(fst, "BLOCK_MEMO_CAP", cap)
        for _ in range(60):
            T = random_fst(rng, max_states=4)
            T = FstSpec(T.num_states, T.start, T.moves)  # a cold memo
            for length in range(4 * fst.BLOCK + 2):
                x = "".join(rng.choice("01") for _ in range(length))
                for _warm in range(2):
                    assert fst_run(T, x) == oracle_fst_run(T, x)
                    for q in range(1, T.num_states + 1):
                        assert fst_run(T, x, start=q) == oracle_fst_run(T, x, start=q)
            assert len(T._blocks) <= cap


def run_or_key_error(run, T, x, start=None):
    """run(T, x, start=start), or the args of the KeyError it raises."""
    try:
        return run(T, x, start=start)
    except KeyError as exc:
        return ("KeyError", exc.args)


def test_non_bits_raise_where_the_oracle_does():
    # int(·, 2) reads "_", leading whitespace and signs, and non-ASCII
    # digits, so a block coded with its non-bit could reuse a bit block's
    # entry, as "01_011" would "001011"'s. Each non-bit goes at every
    # offset of the first whole block or of one after five, with more
    # blocks behind it, on a memo warmed with all 64 bit blocks from every
    # state: the run raises the oracle's KeyError on the non-bit.
    rng = random.Random(30)
    width = fst.BLOCK
    for _ in range(12):
        T = random_fst(rng, max_states=4)
        T = FstSpec(T.num_states, T.start, T.moves)  # a cold memo
        for q in range(1, T.num_states + 1):
            for b in range(2**width):
                fst_run(T, format(b, f"0{width}b"), start=q)
        assert len(T._blocks) == T.num_states * 2**width
        for head in (0, 5 * width):
            for ch in NON_BITS:
                for offset in range(width):
                    bits = [rng.choice("01") for _ in range(head + 3 * width)]
                    bits[head + offset] = ch
                    x = "".join(bits)
                    want = run_or_key_error(oracle_fst_run, T, x)
                    assert want[0] == "KeyError" and want[1][0][1] == ch
                    assert run_or_key_error(fst_run, T, x) == want


def test_lengths_raise_on_non_bits_where_the_oracle_does():
    # Every move of these emits c bits, which yields c*n unread only on bits.
    for T, c in ((identity_fst(), 1), (repeater_fst("10"), 2)):
        for ch in NON_BITS:
            x = f"01{ch}0"
            want = run_or_key_error(oracle_fst_run, T, x)
            assert want == ("KeyError", ((1, ch),))
            lengths = fst_lengths(T, x, [1, 2, 4])
            assert [next(lengths), next(lengths)] == [c, 2 * c]
            with pytest.raises(KeyError) as info:
                next(lengths)
            assert ("KeyError", info.value.args) == want


def test_spec_validation():
    with pytest.raises(ValidationError):
        FstSpec(1, 2, {(1, "0"): (1, ""), (1, "1"): (1, "")})
    with pytest.raises(ValidationError):
        FstSpec(2, 1, {(1, "0"): (1, ""), (1, "1"): (1, "")})
    with pytest.raises(ValidationError):
        FstSpec(1, 1, {(1, "0"): (1, "x"), (1, "1"): (1, "")})
    # A two-move table under a 10^12-state header fails on the count alone,
    # and the right count with a stray key is still not total.
    total = "^moves must be total on states x bits$"
    with pytest.raises(ValidationError, match=total):
        FstSpec(10**12, 1, {(1, "0"): (1, ""), (1, "1"): (1, "")})
    with pytest.raises(ValidationError, match=total):
        FstSpec(1, 1, {(1, "0"): (1, ""), (2, "1"): (1, "")})


def test_il_identity_passes():
    assert il_check(identity_fst(), 8) is None


def test_il_silent_fails():
    pair = il_check(silent_fst(), 1)
    assert pair is not None


def test_il_repeater_fails():
    pair = il_check(repeater_fst("10"), 2)
    assert pair is not None


def test_il_counterexample_actually_collides():
    rng = random.Random(11)
    for _ in range(60):
        T = random_fst(rng)
        pair = il_check(T, 6)
        if pair is None:
            seen = {}
            for x in all_inputs(6):
                r = fst_run(T, x)
                key = (r.output, r.final_state)
                assert key not in seen
                seen[key] = x
        else:
            x, y = pair
            assert x != y
            rx, ry = fst_run(T, x), fst_run(T, y)
            assert (rx.output, rx.final_state) == (ry.output, ry.final_state)


def test_compose_identity_identity():
    AB = fst_compose(identity_fst(), identity_fst())
    for x in all_inputs(10):
        assert fst_run(AB, x).output == x


@pytest.mark.parametrize("order", ["id-outer", "id-inner"])
def test_compose_with_repeater(order):
    tr = repeater_fst("10")
    if order == "id-outer":
        AB = fst_compose(identity_fst(), tr)
    else:
        AB = fst_compose(tr, identity_fst())
    for x in all_inputs(6):
        assert fst_run(AB, x).output == "10" * len(x)


def test_compose_matches_direct_simulation():
    rng = random.Random(5)
    for _ in range(25):
        A, B = random_fst(rng), random_fst(rng)
        AB = fst_compose(A, B)
        assert AB.num_states <= A.num_states * B.num_states
        for x in all_inputs(8):
            want = fst_run(A, fst_run(B, x).output).output
            assert fst_run(AB, x).output == want


def test_compose_matches_oracle_bytes():
    # Random pairs of up to 4 states with emissions of 0..3 bits: the
    # product read back from compose_pdc_fst is the transducer product,
    # numbered in the same discovery order.
    rng = random.Random(20)
    for _ in range(2000):
        A = random_fst(rng, max_states=4, max_emit=3)
        B = random_fst(rng, max_states=4, max_emit=3)
        assert format_fst(fst_compose(A, B)) == format_fst(oracle_fst_compose(A, B))


def test_il_check_matches_oracle():
    rng = random.Random(21)
    machines = [silent_fst(), repeater_fst("10"), identity_fst()]
    machines += [random_fst(rng, max_states=4, max_emit=3) for _ in range(60)]
    for T in machines:
        for L in range(1, 9):
            assert il_check(T, L) == oracle_il_check(T, L)
    with pytest.raises(ValidationError, match="^L must be >= 1$"):
        il_check(identity_fst(), 0)


def test_identity_pdc_is_stack_free_identity():
    assert identity_pdc() == stack_free(identity_fst())


def test_stack_free_runs_as_the_transducer():
    rng = random.Random(22)
    for _, T in enum_fsts(14).entries:
        C = stack_free(T)
        for _ in range(8):
            x = "".join(rng.choice(BITS) for _ in range(rng.randint(0, 20)))
            want = fst_run(T, x)
            got = pdc_run(C, x)
            assert (got.output, got.final_state) == (want.output, want.final_state)
            assert got.final_stack == pushdown.Z0


def test_compose_shares_the_state_ceiling(monkeypatch):
    # Coprime counters reach all 4 * 3 = 12 state pairs.
    assert fst_compose(counter_fst(4), counter_fst(3)).num_states == 12
    monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", 10)
    ceiling = "^composition exceeds state ceiling 10$"
    with pytest.raises(ValidationError, match=ceiling):
        fst_compose(counter_fst(4), counter_fst(3))


def shift_start(T: FstSpec, w: str) -> FstSpec:
    """T with its start state moved to wherever T lands after reading w."""
    return FstSpec(T.num_states, fst_run(T, w).final_state, T.moves)


def verify_inverse_pair(
    T: FstSpec, Tinv: FstSpec, c: int, L: int
) -> str | None:
    """Check that Tinv undoes T up to c trailing bits, for all |x| <= L.

    Passing means x[:|x|-c] is a prefix of Tinv(T(x)) which is a prefix of
    x. Returns None on pass, else the first failing input.
    """
    if c < 0 or L < 1:
        raise ValidationError("need c >= 0 and L >= 1")
    frontier = [""]
    for _ in range(L + 1):
        for x in frontier:
            y = fst_run(Tinv, fst_run(T, x).output).output
            want = x[: max(len(x) - c, 0)]
            if not (y.startswith(want) and x.startswith(y)):
                return x
        frontier = [x + b for x in frontier for b in BITS]
        if len(frontier[0]) > L:
            break
    return None


def test_shift_start_identity_cases():
    T = random_fst(random.Random(9), max_states=3)
    assert shift_start(T, "") == T
    assert shift_start(identity_fst(), "0110") == identity_fst()


def test_shift_start_decomposition():
    rng = random.Random(1)
    for _ in range(10):
        T = random_fst(rng, max_states=3)
        for w in ("011", "0", "110101"):
            Tw = shift_start(T, w)
            head = fst_run(T, w).output
            for y in all_inputs(8):
                assert fst_run(T, w + y).output == head + fst_run(Tw, y).output


def test_inverse_pair_identity():
    assert verify_inverse_pair(identity_fst(), identity_fst(), 0, 8) is None


def test_inverse_pair_counterexample():
    always0 = repeater_fst("0")
    bad = verify_inverse_pair(identity_fst(), always0, 0, 2)
    assert bad == "1"


def test_inverse_pair_doubler_halver():
    doubler = FstSpec(1, 1, {(1, "0"): (1, "00"), (1, "1"): (1, "11")})
    halver = FstSpec(
        2, 1, {(1, "0"): (2, ""), (1, "1"): (2, ""), (2, "0"): (1, "0"), (2, "1"): (1, "1")}
    )
    assert verify_inverse_pair(doubler, halver, 1, 8) is None


@settings(max_examples=120)
@given(bitstrings, bitstrings)
def test_prefix_monotonicity(x, y):
    T = random_fst(random.Random(len(x) + 31 * len(y)))
    assert fst_run(T, x + y).output.startswith(fst_run(T, x).output)


@settings(max_examples=80)
@given(bitstrings)
def test_output_length_bound(x):
    T = random_fst(random.Random(len(x) + 17))
    assert len(fst_run(T, x).output) <= len(x) * max(
        1, T.max_emission()
    )


def test_text_format_roundtrip():
    rng = random.Random(2)
    for _ in range(30):
        T = random_fst(rng, max_states=4)
        assert parse_fst(format_fst(T)) == T


def test_text_format_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_fst("")
    with pytest.raises(ValidationError):
        parse_fst("fsa 1 1")
    with pytest.raises(ValidationError):
        parse_fst("fst 1 1\n1 0 -> 1")
    with pytest.raises(ValidationError):
        parse_fst("fst 1 1\n1 0 -> 1 -\n1 1 -> 1 -\n1 0 -> 1 0")
