import hashlib
import random
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_pdc,
    chain_pdc_text,
    chains_by_brute_force,
    drop_bit_move,
    flag_free_bits,
    free_moves,
    oracle_closure,
    oracle_compose_pdc_fst,
    oracle_parse_pdc,
    oracle_pdc_il_check,
    oracle_pdc_run,
    oracle_pdc_validate,
    pdc_fields,
    random_fst,
    random_pdc,
)
from depthlab import (
    PdcSpec,
    SequenceRecipe,
    StuckError,
    ValidationError,
    build_half_compressor,
    compose_pdc_fst,
    enum_fsts,
    format_pdc,
    fst_run,
    identity_fst,
    identity_pdc,
    parse_pdc,
    pdc_il_check,
    pdc_run,
    pushdown,
    repeater_fst,
    stack_free,
)
from depthlab.cli import main
from depthlab.pushdown import (
    _BELOW,
    _DEEP,
    LAMBDA,
    PDC_BLOCK,
    PDC_WINDOW,
    Z0,
    _lambda_chains,
    pdc_lengths,
)


def all_inputs(max_len):
    for L in range(max_len + 1):
        for xs in product("01", repeat=L):
            yield "".join(xs)


def refused(*fields):
    """The message of the ValidationError that building a spec from
    fields raises."""
    with pytest.raises(ValidationError) as info:
        PdcSpec(*fields)
    return str(info.value)


def test_identity_run():
    r = pdc_run(identity_pdc(), "0101")
    assert (r.output, r.final_state, r.final_stack) == ("0101", 1, "z")


def test_push_then_pop_matcher():
    # Pushes its input; hand-traced stack after "01" is top-first 10z.
    moves = {(1, b, t): (1, b + t, b) for b in "01" for t in ("0", "1", Z0)}
    C = PdcSpec(1, 1, "binary", moves, 0)
    assert oracle_pdc_validate(*pdc_fields(C)) == []
    r = pdc_run(C, "01")
    assert (r.output, r.final_stack) == ("01", "10z")


def test_validate_determinism_violation():
    moves = {
        (1, LAMBDA, Z0): (1, Z0, ""),
        (1, "0", Z0): (1, Z0, ""),
        (1, "1", Z0): (1, Z0, ""),
    }
    assert refused(1, 1, "binary", moves, 1) == (
        "both input-free and bit moves on (1, 'z'); "
        "input-free moves can chain beyond budget 1"
    )
    # An input-free pop and bit moves on (1, top 0), with no cycle.
    moves = {
        (1, "0", Z0): (1, "0" + Z0, "1"),
        (1, "1", Z0): (1, "0" + Z0, "1"),
        (1, LAMBDA, "0"): (2, "", ""),
        (1, "0", "0"): (1, "00", "0"),
        (1, "1", "0"): (1, "00", "0"),
        (2, "0", Z0): (2, Z0, "0"),
        (2, "1", Z0): (2, Z0, "1"),
    }
    assert refused(2, 1, "binary", moves, 1) == (
        "both input-free and bit moves on (1, '0')"
    )


def test_validate_budget_violation_cycle():
    moves = {(1, LAMBDA, "0"): (1, "0", "")}
    assert refused(1, 1, "binary", moves, 3) == (
        "input-free moves can chain beyond budget 3"
    )


def test_validate_budget_violation_chain():
    moves = {
        (1, LAMBDA, "0"): (2, "0", ""),
        (2, LAMBDA, "0"): (3, "0", ""),
    }
    assert refused(3, 1, "binary", moves, 1) == (
        "input-free moves can chain beyond budget 1"
    )


def test_validate_bottom_marker_rules():
    assert refused(1, 1, "binary", {(1, "0", Z0): (1, "", "")}, 0) == (
        "bottom marker not preserved in (1, '0', 'z')"
    )
    assert refused(1, 1, "binary", {(1, "0", "0"): (1, Z0 + "0", "")}, 0) == (
        "bottom marker pushed mid-stack in (1, '0', '0'); "
        "push alphabet violation in (1, '0', '0')"
    )


def test_validate_unary_alphabet():
    assert refused(1, 1, "unary", {(1, "0", Z0): (1, "1" + Z0, "")}, 0) == (
        "push alphabet violation in (1, '0', 'z')"
    )
    assert refused(1, 1, "unary", {(1, "0", "1"): (1, "1", "")}, 0) == (
        "bad stack top in (1, '0', '1'); push alphabet violation in (1, '0', '1')"
    )


def test_validate_push_alphabet_from_u0100_up():
    # A symbol no stack byte can hold is refused, not met at run time.
    assert refused(1, 1, "binary", {(1, "0", Z0): (1, "āz", "")}, 0) == (
        "push alphabet violation in (1, '0', 'z')"
    )


def test_validate_silent_lambda_moves():
    assert refused(1, 1, "binary", {(1, LAMBDA, "0"): (1, "", "1")}, 1) == (
        "input-free move must not emit: (1, '', '0'); "
        "input-free moves can chain beyond budget 1"
    )


def test_stuck_names_position():
    C = PdcSpec(1, 1, "binary", {(1, "0", Z0): (1, Z0, "0")}, 0)
    with pytest.raises(StuckError) as info:
        pdc_run(C, "001")
    assert info.value.position == 2
    assert info.value.partial_output == "00"


def test_il_identity_and_silent():
    assert pdc_il_check(identity_pdc(), 8) is None
    silent = PdcSpec(1, 1, "unary", {(1, b, Z0): (1, Z0, "") for b in "01"}, 0)
    pair = pdc_il_check(silent, 1)
    assert pair is not None


def test_il_counterexample_actually_collides():
    rng = random.Random(15)
    found = 0
    for _ in range(40):
        C = random_pdc(rng)
        pair = pdc_il_check(C, 5)
        if pair is None:
            continue
        found += 1
        x, y = pair
        rx, ry = pdc_run(C, x), pdc_run(C, y)
        assert x != y
        assert (rx.output, rx.final_state) == (ry.output, ry.final_state)
    assert found > 0


def il_check_by_step_loop(C, L):
    """Oracle for pdc_il_check: the breadth-first search it ran before it
    stepped through pdc_run, with its own closure over input-free moves."""

    def close(q, st):
        while (q, LAMBDA, st[0]) in C.moves:
            q, push, _ = C.moves[(q, LAMBDA, st[0])]
            st = push + st[1:]
        return q, st

    q0, st0 = close(C.start, Z0)
    seen = {("", q0): ""}
    frontier = [("", q0, st0, "")]
    for _ in range(L):
        nxt = []
        for x, q, st, outp in frontier:
            for b in "01":
                key = (q, b, st[0])
                if key not in C.moves:
                    continue
                tgt, push, e = C.moves[key]
                out2 = outp + e
                q2, st2 = close(tgt, push + st[1:])
                x2 = x + b
                sig = (out2, q2)
                if sig in seen:
                    return (seen[sig], x2)
                seen[sig] = x2
                nxt.append((x2, q2, st2, out2))
        frontier = nxt
    return None


def test_il_check_matches_step_loop():
    rng = random.Random(47)
    silent = PdcSpec(1, 1, "unary", {(1, b, Z0): (1, Z0, "") for b in "01"}, 0)
    cases = [identity_pdc(), silent]
    for i in range(500):
        kind = "unary" if i % 2 else "binary"
        C = random_pdc(rng, kind=kind, lambda_prob=rng.choice([0.2, 0.6]))
        cases += [C, drop_bit_move(rng, C)]  # the second one's runs can stick
    outcomes = set()
    for C in cases:
        for L in (1, 2, 4, 7):
            want = il_check_by_step_loop(C, L)
            assert pdc_il_check(C, L) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_il_check_matches_the_run_oracle_up_to_ten_bits():
    # The frontier steps the compiled tables; the oracle steps pdc_run.
    rng = random.Random(48)
    cases = [stack_free(T) for _, T in enum_fsts(14).entries]
    for i in range(60):
        kind = "unary" if i % 2 else "binary"
        C = random_pdc(rng, kind=kind, lambda_prob=rng.choice([0.2, 0.6]))
        cases += [C, drop_bit_move(rng, C)]
    outcomes = Counter()
    for C in cases:
        for L in range(1, 11):
            want = oracle_pdc_il_check(C, L)
            assert pdc_il_check(C, L) == want, (C, L)
            outcomes["injective" if want is None else f"collides at {len(want[1])}"] += 1
    assert outcomes["injective"] > 100, outcomes
    assert outcomes["collides at 5"] > 0, outcomes


def test_prefix_monotone_outputs():
    rng = random.Random(33)
    for _ in range(25):
        C = random_pdc(rng)
        for x in all_inputs(6):
            full = pdc_run(C, x + "1").output
            assert full.startswith(pdc_run(C, x).output)


def test_stack_height_irrelevance_sample():
    rng = random.Random(5)
    for _ in range(10):
        C = random_pdc(rng, kind="unary")
        c = C.lambda_budget
        for x in all_inputs(5):
            h = (c + 1) * len(x)
            for q in range(1, C.num_states + 1):
                a = pdc_run(C, x, state=q, stack="0" * h + Z0).output
                b = pdc_run(C, x, state=q, stack="0" * (h + 7) + Z0).output
                assert a == b


def test_compose_identity_cases():
    N = compose_pdc_fst(identity_pdc(), identity_fst())
    for x in all_inputs(10):
        assert pdc_run(N, x).output == x
    N2 = compose_pdc_fst(identity_pdc(), repeater_fst("10"))
    for x in all_inputs(6):
        assert pdc_run(N2, x).output == "10" * len(x)


def test_compose_matches_oracle_random():
    rng = random.Random(44)
    for i in range(12):
        kind = "unary" if i % 3 else "binary"
        C = random_pdc(rng, kind=kind)
        T = random_fst(rng, max_states=2)
        N = compose_pdc_fst(C, T)
        assert N.stack_kind == kind
        assert oracle_pdc_validate(*pdc_fields(N)) == []
        for x in all_inputs(7):
            want = pdc_run(C, fst_run(T, x).output).output
            assert pdc_run(N, x).output == want


def test_compose_half_compressor_text_pinned():
    # Guards product-state numbering, which C(T(x)) = x checks cannot see.
    text = format_pdc(compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst()))
    assert len(text.splitlines()) == 6793
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0df8bef4adff94bb6bf978272dcd855c3cc48352ec60ec45173835538daa387b"
    )


def test_compose_state_ceiling(monkeypatch):
    C = build_half_compressor(9, 9, 0)
    monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", 10)
    with pytest.raises(ValidationError):
        compose_pdc_fst(C, identity_fst())


def compose_outcome(compose, *args):
    """The composed machine's text, or the type and message of the error."""
    try:
        return format_pdc(compose(*args))
    except (ValidationError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


def test_compose_matches_whole_buffer_oracle(monkeypatch):
    rng = random.Random(111)
    kinds = Counter()
    for i in range(600):
        kind = "unary" if i % 2 else "binary"
        lambda_prob = (0.0, 0.2, 0.4, 0.6, 0.8)[i // 2 % 5]
        C = random_pdc(rng, kind=kind, max_states=4, lambda_prob=lambda_prob)
        T = random_fst(rng, max_states=3, max_emit=2)
        ceiling = rng.choice([4, 12, 200_000])
        monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", ceiling)
        got = compose_outcome(compose_pdc_fst, C, T)
        assert got == compose_outcome(oracle_compose_pdc_fst, C, T, ceiling), (C, T)
        if isinstance(got, str):  # N's input-free moves each buffer a symbol
            N = parse_pdc(got)
            kinds[f"buffers {min(N._chains[0], 2)}"] += 1
        else:
            assert got[1].startswith("composition exceeds state ceiling"), got
            kinds["ceiling"] += 1
    assert kinds.keys() == {"buffers 0", "buffers 1", "buffers 2", "ceiling"}, kinds
    assert min(kinds.values()) > 20, kinds


def test_compose_matches_whole_buffer_oracle_where_replays_stick():
    # With bit moves dropped, a replay can stick on one bit while the
    # other needs a deeper symbol, so a buffering state keeps a stuck replay.
    rng = random.Random(113)
    for i in range(300):
        C = random_pdc(rng, kind="unary" if i % 2 else "binary", max_states=4,
                       lambda_prob=(0.2, 0.4, 0.6)[i % 3])
        for _ in range(rng.randint(1, 3)):
            if any(inp != LAMBDA for _, inp, _ in C.moves):
                C = drop_bit_move(rng, C)
        T = random_fst(rng, max_states=3, max_emit=2)
        got = compose_outcome(compose_pdc_fst, C, T)
        assert got == compose_outcome(oracle_compose_pdc_fst, C, T), (C, T)


def mutate(rng, fields):
    """The fields of a spec with one more random defect of a kind
    pdc_validate reports; a defect can bring others with it, such as a bit
    move next to an input-free one."""
    m, start, stack_kind, moves, budget = fields
    moves = dict(moves)
    key = rng.choice(sorted(moves))
    q, inp, top = key
    tgt, push, e = moves[key]
    kind = rng.randrange(12)
    if kind == 0:
        moves[(rng.choice([0, m + 1]), inp, top)] = (tgt, push, e)
    elif kind == 1:
        moves[(q, rng.choice(["2", "01", "a"]), top)] = (tgt, push, e)
    elif kind == 2:
        moves[(q, inp, rng.choice(["01", "1z", "zz", "1", "?", ""]))] = (tgt, "", "")
    elif kind == 3:
        moves[key] = (rng.choice([0, m + 1]), push, e)
    elif kind == 4:
        zkey = rng.choice([k for k in sorted(moves) if k[2] == Z0])
        ztgt, _, ze = moves[zkey]
        moves[zkey] = (ztgt, rng.choice(["", "0", Z0 + Z0, Z0 + "0" + Z0]), ze)
    elif kind == 5:
        moves[key] = (tgt, rng.choice([Z0, "0" + Z0 + "0", Z0 + push]), e)
    elif kind == 6:
        moves[key] = (tgt, rng.choice(["1", "x", "2" + Z0]) + push, e)
    elif kind == 7:
        moves[key] = (tgt, push, rng.choice(["2", "0a", " ", "1 0"]))
    elif kind == 8:
        moves[(q, LAMBDA, top)] = (tgt, push, rng.choice(["0", "11"]))
    elif kind == 9:
        moves[(q, LAMBDA if inp else "0", top)] = (tgt, push, "")
    elif kind == 10:  # an input-free move back to its own (state, top): a cycle
        moves[(q, LAMBDA, top)] = (q, top, "")
    else:  # over budget wherever an input-free move is left
        budget = 0
    return m, start, stack_kind, moves, budget


PROBLEM_KINDS = (
    "state out of range", "bad input symbol", "bad stack top",
    "target state out of range", "bottom marker not preserved",
    "bottom marker pushed mid-stack", "push alphabet violation",
    "must be a string over 0/1", "input-free move must not emit",
    "both input-free and bit moves",
)


def test_validate_matches_oracle_on_mutated_machines():
    # Building the spec raises the oracle's problems, joined in order.
    rng = random.Random(112)
    seen = Counter()
    for i in range(1500):
        kind = "unary" if i % 2 else "binary"
        C = random_pdc(rng, kind=kind, max_states=4, lambda_prob=rng.choice([0.2, 0.6]))
        M = pdc_fields(C)
        for _ in range(rng.randint(1, 3)):
            M = mutate(rng, M)
        got = oracle_pdc_validate(*M)
        tops = C.stack_symbols() + Z0
        chains = _lambda_chains(free_moves(M[3]), tops)
        assert chains == chains_by_brute_force(M[3], tops), M
        if got:
            assert refused(*M) == "; ".join(got), M
        else:
            assert PdcSpec(*M)._chains == chains, M  # builds, and keeps its walk
        seen.update(k for k in PROBLEM_KINDS for p in got if k in p)
        if got and "chain beyond budget" in got[-1]:
            seen["cycle" if chains is None else "over budget"] += 1
    assert min(seen[k] for k in (*PROBLEM_KINDS, "cycle", "over budget")) > 50, seen


def test_validate_rejects_a_multi_symbol_top():
    # `top not in "01z"` was a substring test, so these tops passed. The
    # sentinel _BELOW is no stack symbol either, so no move reads it.
    for top in ("01", "1z", "", _BELOW):
        moves = {(1, "0", Z0): (1, Z0, ""), (1, "0", top): (1, "", "")}
        assert refused(1, 1, "binary", moves, 0) == f"bad stack top in {(1, '0', top)}"


def test_half_compressor_shape():
    C = build_half_compressor(9, 9, 0)
    assert oracle_pdc_validate(*pdc_fields(C)) == []
    # count0, scan, 2k flag states, k+1 pop states, v+1 match states, error
    assert C.num_states == 2 + 18 + 10 + 10 + 1


def test_half_compressor_happy_path():
    C = build_half_compressor(9, 9, 0)
    R = "110110110"
    S = R + "1" * 9 + R[::-1]
    r = pdc_run(C, S)
    assert r.output == R + "1" * 9 + "0" * (len(R) // 9)
    assert r.final_state != C.num_states
    # Two stages back to back compress both tails.
    r2 = pdc_run(C, S + S)
    assert r2.output == (R + "1" * 9 + "0") * 2


def test_half_compressor_error_branch():
    C = build_half_compressor(9, 9, 0)
    R = "110110110"
    bad = R + "1" * 9 + "1" + "0" * 8
    r = pdc_run(C, bad)
    # Mismatch on the first checked bit: flag 1^1 0, the bad bit, then copy.
    assert r.output == R + "1" * 9 + "10" + "1" + "0" * 8
    assert r.final_state == C.num_states


def _reconstruct_input(C, output, final_state, max_len):
    """Test-only decoder: recover the unique input from (output, final
    state) by searching input bits and pruning branches whose emission
    stops matching. Never consults the original input."""
    q0, st0 = oracle_closure(C, C.start, Z0)
    frontier = [("", q0, st0, "")]
    matches = []
    for _ in range(max_len + 1):
        nxt = []
        for x, q, st, out in frontier:
            if out == output and q == final_state:
                matches.append(x)
            for b in "01":
                key = (q, b, st[0])
                if key not in C.moves:
                    continue
                tgt, push, e = C.moves[key]
                out2 = out + e
                if not output.startswith(out2):
                    continue
                q2, st2 = oracle_closure(C, tgt, push + st[1:])
                nxt.append((x + b, q2, st2, out2))
        frontier = nxt
    return matches


def test_half_compressor_lossless_constructively():
    C = build_half_compressor(9, 9, 0)
    for x in all_inputs(12):
        r = pdc_run(C, x)
        got = _reconstruct_input(C, r.output, r.final_state, 12)
        assert got == [x]


def test_half_compressor_parameter_checks():
    with pytest.raises(ValidationError):
        build_half_compressor(8, 8, 0)
    with pytest.raises(ValidationError):
        build_half_compressor(9, 10, 0)
    with pytest.raises(ValidationError):
        build_half_compressor(9, 9, -1)


@pytest.mark.parametrize("k, v, m", [(9, 9, 0), (9, 9, 3), (9, 729, 0), (10, 100, 2)])
def test_half_compressor_size_is_known_before_building(monkeypatch, k, v, m):
    C = build_half_compressor(k, v, m)
    # The escapes are the moves into the error state, the highest-numbered.
    error = C.num_states
    escape_bits = sum(
        len(e) for (q, _, _), (tgt, _, e) in C.moves.items() if tgt == error != q
    )
    assert C.num_states == m + 3 * k + v + 5
    assert escape_bits == 2 * v * (3 * m + 2) + v * (v + 1)
    # Both bounds are exact: a machine at the ceiling builds, one over it
    # is refused.
    monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", C.num_states)
    monkeypatch.setattr(pushdown, "ESCAPE_BITS_CEILING", escape_bits)
    assert build_half_compressor(k, v, m) == C
    monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", C.num_states - 1)
    with pytest.raises(ValidationError, match=f"has {C.num_states} states, over"):
        build_half_compressor(k, v, m)
    monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", C.num_states)
    monkeypatch.setattr(pushdown, "ESCAPE_BITS_CEILING", escape_bits - 1)
    with pytest.raises(ValidationError, match=f"emit {escape_bits} bits, over"):
        build_half_compressor(k, v, m)


def test_half_compressor_refuses_an_oversized_machine_before_listing_it():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"^half-compressor\(9,43046721,0\) has"):
        build_half_compressor(9, 9**8, 0)
    # 43,079,526 escape bits; with 6,565 states it is under the state ceiling.
    with pytest.raises(ValidationError, match="^half-compressor.* emit 43079526 bits"):
        build_half_compressor(9, 9**4, 0)
    assert time.perf_counter() - start < 1.0


def test_half_compressor_counts_prefix():
    C = build_half_compressor(9, 9, 3)
    R = "101101101"
    S = "111" + R + "1" * 9 + R[::-1]
    r = pdc_run(C, S)
    assert r.output == "111" + R + "1" * 9 + "0" * (len(R) // 9)


def test_text_format_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        C = random_pdc(rng, kind="binary" if rng.random() < 0.5 else "unary")
        assert parse_pdc(format_pdc(C)) == C
    half = build_half_compressor(9, 9, 0)
    for C in (half, compose_pdc_fst(half, identity_fst())):
        assert parse_pdc(format_pdc(C)) == C


def test_text_format_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_pdc("")
    with pytest.raises(ValidationError):
        parse_pdc("pdc 1 1 binary")
    with pytest.raises(ValidationError):
        parse_pdc("pdc 1 1 ternary 0\n1 0 z -> 1 z -")


# Tokens an edit puts in a line: numbers, numbers that only int() reads
# (other scripts' digits, '_'), wrong arrows and pieces of other fields.
SWAP_TOKENS = ("1", "2", "+1", "01", "-1", "x", "1.0", "١", "٣", "1_0", "１",
               "=>", "-", ">", "z", "0z", "?", "a")


@st.composite
def pdc_texts(draw):
    """A formatted random compressor, then up to three edits: swap, drop
    or add a token, repeat a line (as it is or to another target), or
    add a blank line; the lines are joined by a drawn separator and line
    end."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["unary", "binary"]))
    lines = [ln.split() for ln in format_pdc(random_pdc(rng, kind=kind)).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = list(lines[i])
        ops = ["swap", "drop", "add", "repeat", "retarget", "blank"]
        op = draw(st.sampled_from(ops))
        j = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if op == "swap" and tokens:
            tokens[j] = draw(st.sampled_from(SWAP_TOKENS))
        elif op == "drop" and tokens:
            del tokens[j]
        elif op == "add":
            tokens.insert(j, draw(st.sampled_from(SWAP_TOKENS)))
        elif op in ("repeat", "retarget") and i and len(tokens) == 7:
            if op == "retarget":
                tokens[4] = "1"
            lines.insert(draw(st.integers(1, len(lines))), tokens)
            continue
        elif op == "blank":
            lines.insert(i, [])
            continue
        lines[i] = tokens
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(sep.join(tokens) for tokens in lines) + end


def parse_outcome(parse, text):
    """The spec parsed from text, or the message of the ValidationError."""
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(text=pdc_texts())
@example(text="pdc 1 1 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n")
@example(text="pdc 1 1 unary 0\r\n\r\n1\t0 z -> 1 z 0\r\n \t\r\n1 1 z -> 1\tz 1\r\n")
@example(text="pdc 1 1 unary 0\n1 0 z -> 1 z\n")  # 6 tokens
@example(text="pdc 1 1 unary 0\n1 0 z -> 1 z 0 0\n")  # 8 tokens
@example(text="pdc 1 1 unary 0\n1 0 z => 1 z 0\n1 1 z -> 1 z 1\n")
@example(text="pdc 1 1 unary 0\n1 0 z -> x z 0\n1 1 z -> 1 z 1\n")
@example(text="pdc 1 1 unary 0\n١ 0 z -> 1 z 0\n1 1 z -> 1 z 1\n")
@example(text="pdc 1 1 unary 0\n1 0 z -> 1_0 z 0\n1 1 z -> 1 z 1\n")
@example(text="pdc ١ 1 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n")
@example(text="pdc 1 1 unary 0\n1 0 z -> 1 z 0\n1 0 z -> 1 z 1\n1 1 z -> 1 z 1\n")
@example(text="pdc 1 +1 unary 00\n01 0 z -> +1 z 0\n1 1 z -> 1 z 1\n")
def test_parser_matches_line_loop_oracle(text):
    # The same spec, or the same refusal, as the per-field line loop.
    assert parse_outcome(parse_pdc, text) == parse_outcome(oracle_parse_pdc, text)


def test_lambda_chains_match_brute_force_random():
    rng = random.Random(45)
    for i in range(300):
        kind = "unary" if i % 2 else "binary"
        C = random_pdc(rng, kind=kind, max_states=5, lambda_prob=rng.choice([0.3, 0.8]))
        tops = C.stack_symbols() + Z0
        chains = _lambda_chains(free_moves(C.moves), tops)
        assert chains == C._chains == chains_by_brute_force(C.moves, tops)
        assert chains is not None


def test_lambda_chains_self_loop_is_a_cycle():
    moves = {(1, LAMBDA, "0"): (1, "0", "")}
    assert _lambda_chains(free_moves(moves), "01z") is None
    assert chains_by_brute_force(moves, "01z") is None
    assert refused(1, 1, "binary", moves, 5) == (
        "input-free moves can chain beyond budget 5"
    )


def test_lambda_chains_pure_pop_fans_out():
    moves = {
        (1, LAMBDA, "1"): (2, "", ""),  # pop: the next top may be 0, 1 or z
        (2, LAMBDA, "0"): (3, "", ""),
        (3, LAMBDA, "0"): (4, "", ""),
        (2, LAMBDA, Z0): (5, "0" + Z0, ""),
        (5, LAMBDA, "0"): (6, "0", ""),
        (6, LAMBDA, "0"): (7, "0", ""),
        (7, LAMBDA, "0"): (8, "0", ""),
    }
    C = PdcSpec(8, 1, "binary", moves, 5)
    # Most pops: states 1, 2, 3, 4 over tops 1, 0, 0 (three of each).
    # Most moves: states 1, 2, 5, 6, 7, 8 over tops 1, z, 0, 0, 0 (five
    # moves, one pop).
    assert _lambda_chains(free_moves(moves), "01z") == (5, 3)
    assert C._chains == chains_by_brute_force(moves, "01z") == (5, 3)
    assert oracle_pdc_validate(*pdc_fields(C)) == []
    assert refused(8, 1, "binary", moves, 4) == (
        "input-free moves can chain beyond budget 4"
    )


def test_each_spec_walks_its_input_free_moves_once(monkeypatch, tmp_path, capsys):
    # Each walk gets the input-free moves that its spec's validation pass
    # collected, and compose reads the outer spec's kept pops.
    C = build_half_compressor(9, 9, 0)
    walk, sizes = pushdown._lambda_chains, []

    def counted(free, tops):
        sizes.append(len(free))
        return walk(free, tops)

    monkeypatch.setattr(pushdown, "_lambda_chains", counted)
    N = compose_pdc_fst(C, identity_fst())
    free = [len(free_moves(M.moves)) for M in (C, N)]
    assert free == [33, 1516] and len(N.moves) == 6792
    assert sizes == free[1:]
    (tmp_path / "half.pdc").write_text(format_pdc(C))
    (tmp_path / "ident.fst").write_text("fst 1 1\n1 0 -> 1 0\n1 1 -> 1 1\n")
    composed = tmp_path / "composed.pdc"
    sizes.clear()
    assert main(["compose", "--outer", str(tmp_path / "half.pdc"),
                 "--inner", str(tmp_path / "ident.fst"), "--out", str(composed)]) == 0
    assert main(["pdc-run", "--machine", str(composed), "--bits", "0110"]) == 0
    assert capsys.readouterr().out.startswith("output 0110\n")
    assert sizes == [free[0], free[1], free[1]]


def test_long_input_free_chain():
    C = chain_pdc(2000, 1999)
    assert _lambda_chains(free_moves(C.moves), "0z") == (1999, 0)
    assert C._chains == chains_by_brute_force(C.moves, "0z") == (1999, 0)
    assert oracle_pdc_validate(*pdc_fields(C)) == []
    assert format_pdc(C) == chain_pdc_text(2000, 1999)
    r = pdc_run(C, "01")
    assert (r.output, r.final_state, r.final_stack) == ("01", 2000, Z0)
    with pytest.raises(ValidationError) as info:
        chain_pdc(2000, 1998)
    assert str(info.value) == "input-free moves can chain beyond budget 1998"
    with pytest.raises(ValidationError) as info:
        parse_pdc(chain_pdc_text(2000, 1998))
    assert str(info.value) == "input-free moves can chain beyond budget 1998"


def run_outcome(run, C, x, state=None, stack=None):
    """Every field of a PdcRun, or of the StuckError that stops the run."""
    try:
        r = run(C, x, state=state, stack=stack)
    except StuckError as exc:
        return ("stuck", exc.position, exc.state, exc.top, exc.partial_output, str(exc))
    return ("ran", r.output, r.final_state, r.final_stack)


def test_engine_matches_string_stack_oracle():
    # Mid-run configurations: any state, stacks of up to 50 symbols over
    # the bottom marker, or over _BELOW (which no move reads, as in
    # compose) and the bottom marker.
    rng = random.Random(77)
    kinds = {"ran": 0, "stuck": 0, "stuck on _BELOW": 0}
    for i in range(500):
        kind = "unary" if i % 2 else "binary"
        C = random_pdc(rng, kind=kind, max_states=4, lambda_prob=(0.2, 0.6)[i // 2 % 2])
        syms = C.stack_symbols()
        for spec in (C, drop_bit_move(rng, C)):
            for _ in range(3):
                x = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
                if rng.random() < 0.25:
                    state = stack = None
                else:
                    state = rng.randint(1, spec.num_states)
                    height = rng.choice([rng.randint(0, 3), rng.randint(0, 50)])
                    body = "".join(rng.choice(syms) for _ in range(height))
                    stack = body + rng.choice([Z0, _BELOW + Z0])
                got = run_outcome(pdc_run, spec, x, state, stack)
                assert got == run_outcome(oracle_pdc_run, spec, x, state, stack)
                on_below = got[0] == "stuck" and got[3] == _BELOW
                kinds["stuck on _BELOW" if on_below else got[0]] += 1
    assert min(kinds.values()) > 100, kinds


def test_engine_runs_input_free_chains_at_their_budget():
    # The second machine copies 0s in state 51 and enters the chain on a 1,
    # so the whole chain runs inside the first block's replay. One move
    # less of budget, and the machine is refused when it is built.
    chain = chain_pdc(50, 49)
    moves = {**chain.moves, (51, "0", Z0): (51, Z0, ""), (51, "1", Z0): (1, Z0, "")}
    late = PdcSpec(51, 51, "unary", moves, 49)
    for C, x in ((chain, "01"), (late, "0001")):
        assert run_outcome(pdc_run, C, x) == run_outcome(oracle_pdc_run, C, x)
    assert late._blocks == {(51, "0001", ord(Z0)): (50, slice(-1, None), b"z", "")}
    assert refused(51, 51, "unary", moves, 48) == (
        "input-free moves can chain beyond budget 48"
    )


def test_deep_stack_run():
    x = flag_free_bits(10**6, 5)
    r = pdc_run(build_half_compressor(9, 9, 0), x)
    assert r.output == x
    assert r.final_stack == x[::-1] + Z0


def cold_copy(C):
    """C with the same moves, but no compiled tables and an empty memo."""
    return PdcSpec(*pdc_fields(C))


def popping(rng, C):
    """C with half its bit moves on a stack symbol turned into pops, so
    runs pop below the top within a block."""
    moves = dict(C.moves)
    for key in sorted(moves):
        if key[1] != LAMBDA and key[2] != Z0 and rng.random() < 0.5:
            tgt, _, e = moves[key]
            moves[key] = (tgt, "", e)
    return PdcSpec(C.num_states, C.start, C.stack_kind, moves, C.lambda_budget)


def window_keys(C):
    """The memo keys of C that carry a stack window, not a top byte."""
    return [key for key in C._blocks if isinstance(key[2], bytes)]


def test_block_engine_matches_oracle_cold_and_warm():
    # Every input length from 0 to 4 blocks + 1, from a mid-run state over a
    # stack ending in z or _BELOW + z, for random machines, copies that can
    # stick, and popping-heavy copies. Each spec runs twice from the same
    # state and top symbols (one, or fewer or more than a window): first on
    # a cold memo, then on the memo that run filled, with a different rest
    # of the stack, so a block memoized on a symbol below the top, or below
    # its window, would show.
    rng = random.Random(93)
    kinds = Counter()
    stuck_offsets = set()
    for i in range(120):
        kind = "unary" if i % 2 else "binary"
        C = random_pdc(rng, kind=kind, max_states=4, lambda_prob=(0.2, 0.6)[i // 2 % 2])
        syms = C.stack_symbols()

        def symbols(n):
            return "".join(rng.choice(syms) for _ in range(n))

        def rest():
            return symbols(rng.randint(0, 12)) + rng.choice([Z0, _BELOW + Z0])

        for spec in (C, drop_bit_move(rng, C), popping(rng, C)):
            for length in range(4 * PDC_BLOCK + 2):
                x = "".join(rng.choice("01") for _ in range(length))
                state = rng.randint(1, spec.num_states)
                top = symbols(rng.choice([1, rng.randint(2, PDC_WINDOW - 1),
                                          rng.randint(PDC_WINDOW, 3 * PDC_WINDOW)]))
                spec = cold_copy(spec)
                for stack in (top + rest(), top + rest()):
                    got = run_outcome(pdc_run, spec, x, state, stack)
                    assert got == run_outcome(oracle_pdc_run, spec, x, state, stack)
                    on_below = got[0] == "stuck" and got[3] == _BELOW
                    kinds["stuck on _BELOW" if on_below else got[0]] += 1
                    kinds["shorter" if len(stack) < PDC_WINDOW else "taller"] += 1
                    if got[0] == "stuck":
                        stuck_offsets.add(got[1] % PDC_BLOCK)
                kinds["blocks memoized"] += sum(map(bool, spec._blocks.values()))
                windows = [spec._blocks[key] for key in window_keys(spec)]
                kinds["window blocks"] += sum(map(bool, windows))
                kinds["window no-blocks"] += windows.count(())
                kinds["deep markers"] += list(spec._blocks.values()).count(_DEEP)
                popping_states = spec._tables[3]
                kinds["popping-state windows"] += sum(
                    key[0] in popping_states for key in window_keys(spec)
                )
    assert min(kinds.values()) > 500, kinds
    assert stuck_offsets == set(range(PDC_BLOCK))


def test_transducer_lane_matches_oracle_cold_and_warm():
    # A total stack-free spec runs on fst_run over its transducer view
    # whenever its stack is just z, and never fills its own block memo. A
    # copy missing one move stays on the block engine and sticks where
    # the oracle does, and a stack-free spec over 0z sticks at once. From
    # every state, on a cold memo and then on the memo that run filled.
    rng = random.Random(94)
    kinds = Counter()
    for _ in range(40):
        T = random_fst(rng, max_states=4, max_emit=rng.choice([0, 2, 3]))
        total = stack_free(T)
        assert total._tables[4] == T
        partial = drop_bit_move(rng, total)
        assert partial._tables[4] is None
        for name, machine in (("total", total), ("partial", partial)):
            for state in (None, *range(1, machine.num_states + 1)):
                for stack in (None, Z0, "0" + Z0):
                    x = "".join(rng.choice("01") for _ in range(rng.randint(0, 26)))
                    spec = cold_copy(machine)
                    for memo in ("cold", "warm"):
                        got = run_outcome(pdc_run, spec, x, state, stack)
                        assert got == run_outcome(oracle_pdc_run, spec, x, state, stack)
                        if stack == "0" + Z0:
                            assert got[:2] == (("stuck", 0) if x else ("ran", ""))
                        kinds[f"{name} {got[0]} {memo}"] += 1
                    on_lane_1 = spec._tables[4] is not None and stack != "0" + Z0
                    assert bool(spec._blocks) == (not on_lane_1 and bool(x))
                    if on_lane_1 and x:
                        assert spec._tables[4]._blocks
    assert min(kinds.values()) > 50, kinds
    assert kinds.keys() == {
        f"{name} {end} {memo}" for name in ("total", "partial")
        for end in ("ran", "stuck") for memo in ("cold", "warm")
    }, kinds


def test_block_memo_stays_under_its_cap(monkeypatch):
    # Both kinds of key count toward the cap: the composed machine on
    # random bits, and the half-compressor, whose matching phases pop one
    # symbol per bit, on recipe b.
    N = compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())
    assert N.num_states == 1552
    rng = random.Random(19)
    cases = [
        (N, "".join(rng.choice("01") for _ in range(20_000))),
        (
            build_half_compressor(9, 9, 0),
            SequenceRecipe(kind="b", k=9, stages=12, seed=4).generate().bits,
        ),
    ]
    for C, x in cases:
        want = oracle_pdc_run(C, x)
        uncapped = cold_copy(C)
        assert pdc_run(uncapped, x) == want
        assert window_keys(uncapped)
        cap = len(uncapped._blocks) // 3
        with monkeypatch.context() as patch:
            patch.setattr(pushdown, "BLOCK_MEMO_CAP", cap)
            for _ in range(2):  # on a cold memo, then on the full one
                assert pdc_run(C, x) == want
                assert len(C._blocks) == cap
    assert window_keys(cases[1][0])


def pop_machine(extra=(), budget=0, drop=None):
    """Binary, state 1 pops its top on either bit and copies the bit; on
    the bottom marker it copies and keeps the stack. extra adds moves as
    (target, push), and drop removes one; every bit move copies its bit."""
    moves = {(1, b, t): (1, "") for b in "01" for t in "01"}
    moves.update({(1, b, Z0): (1, Z0) for b in "01"})
    moves.update(extra)
    moves.pop(drop, None)
    moves = {key: (tgt, push, key[1]) for key, (tgt, push) in moves.items()}
    return PdcSpec(max(q for q, _, _ in moves), 1, "binary", moves, budget)


def test_popping_blocks_stick_and_chain_as_bit_by_bit():
    stack = "0001000" + "01" + Z0
    window = bytes(stack[:PDC_WINDOW][::-1], "latin-1")
    # Six pops from a full window: one entry, which a different rest of the
    # stack then reuses. State 1 pops, so the block is keyed on its window
    # at once, with no entry on the top alone.
    C = pop_machine()
    assert oracle_pdc_validate(*pdc_fields(C)) == []
    for rest in ("01" + Z0, "1" * 40 + Z0):
        st = stack[:PDC_WINDOW] + rest
        assert run_outcome(pdc_run, C, "000000", 1, st) == run_outcome(
            oracle_pdc_run, C, "000000", 1, st
        )
    assert C._blocks == {
        (1, "000000", window): (1, slice(-PDC_WINDOW, None), b"0", "000000"),
    }
    # A stack shorter than a window is keyed on all of it, down to z.
    short = "01" + Z0
    got = run_outcome(pdc_run, C, "000000", 1, short)
    assert got == run_outcome(oracle_pdc_run, C, "000000", 1, short)
    assert got == ("ran", "000000", 1, Z0)
    assert C._blocks[(1, "000000", b"z10")] == (1, slice(-3, None), b"z", "000000")
    # A bit with no move on top 1: the fourth bit of the block sticks.
    stuck = pop_machine(drop=(1, "1", "1"))
    got = run_outcome(pdc_run, stuck, "111111", 1, stack)
    assert got == run_outcome(oracle_pdc_run, stuck, "111111", 1, stack)
    assert got[:4] == ("stuck", 3, 1, "1")
    assert stuck._blocks[(1, "111111", window)] == ()
    # A 1 on top 1 enters a chain of four input-free moves inside the
    # block, which a budget of 3 refuses when the machine is built.
    chain = {(1, "1", "1"): (2, "")}
    chain.update({(q, LAMBDA, "0"): (q + 1, "0") for q in range(2, 6)})
    chain.update({(6, b, t): (6, t) for b in "01" for t in "01" + Z0})
    with pytest.raises(ValidationError, match="^input-free moves can chain beyond budget 3$"):
        pop_machine(chain, budget=3)
    chained = pop_machine(chain, budget=4)
    got = run_outcome(pdc_run, chained, "000100", 1, stack)
    assert got == run_outcome(oracle_pdc_run, chained, "000100", 1, stack)
    assert got == ("ran", "000100", 6, "000" + "01" + Z0)
    assert chained._blocks[(1, "000100", window)] == (
        6, slice(-PDC_WINDOW, None), b"000", "000100"
    )
    # A block whose closure pops past its window: the sixth bit pops the
    # sixth symbol and two input-free pops follow, so its replay needs the
    # eighth symbol. It is no block, and runs bit by bit on the real stack.
    deeper = {(1, "1", "0"): (2, "")}
    deeper.update({(q, LAMBDA, "0"): (q + 1, "") for q in (2, 3)})
    deeper.update({(4, b, t): (4, t) for b in "01" for t in "01" + Z0})
    past = pop_machine(deeper, budget=2)
    zeros = "0" * 9 + Z0
    got = run_outcome(pdc_run, past, "000001", 1, zeros)
    assert got == run_outcome(oracle_pdc_run, past, "000001", 1, zeros)
    assert got == ("ran", "000001", 4, "0" + Z0)
    assert past._blocks == {(1, "000001", b"0" * PDC_WINDOW): ()}


def test_popping_lane_under_a_small_memo_cap(monkeypatch):
    # Popping-heavy machines from every state over stacks shorter and
    # taller than a window, cold and then warm, with room for no block,
    # one, or a few: the memo never outgrows the cap, and a block it lacks
    # runs bit by bit with the oracle's result.
    rng = random.Random(95)
    full = Counter()
    for cap in (0, 1, 3):
        monkeypatch.setattr(pushdown, "BLOCK_MEMO_CAP", cap)
        for i in range(30):
            kind = "unary" if i % 2 else "binary"
            C = popping(rng, random_pdc(rng, kind=kind, max_states=4))
            syms = C.stack_symbols()
            for state in range(1, C.num_states + 1):
                height = rng.choice([rng.randint(0, PDC_WINDOW - 1), 2 * PDC_WINDOW])
                stack = "".join(rng.choice(syms) for _ in range(height)) + Z0
                length = rng.randint(1, 5 * PDC_BLOCK)
                x = "".join(rng.choice("01") for _ in range(length))
                spec = cold_copy(C)
                for _ in range(2):
                    got = run_outcome(pdc_run, spec, x, state, stack)
                    assert got == run_outcome(oracle_pdc_run, spec, x, state, stack)
                assert len(spec._blocks) <= cap
                full[cap] += len(spec._blocks) == cap
                full["popping-state windows"] += sum(
                    key[0] in spec._tables[3] for key in window_keys(spec)
                )
    assert min(full.values()) > 20, full


def test_pdc_run_reports_a_popped_bottom_marker():
    # A built spec keeps the bottom marker, so only a stack given without
    # one could be popped empty, as pop_machine's first bit would pop "0".
    # pdc_run refuses such a stack before it runs.
    message = "^stack must end with the bottom marker 'z'$"
    for C in (pop_machine(), identity_pdc(), build_half_compressor(9, 9, 0)):
        for x, stack in (("00", "0"), ("0", "0"), ("1" * 13, "10"), ("", "z0")):
            with pytest.raises(ValidationError, match=message):
                pdc_run(C, x, stack=stack)
        assert not C._blocks


def test_matching_phase_runs_in_blocks(monkeypatch):
    # The engine's shape, not its time: on recipe b the half-compressor
    # spends most bits in matching phases, which pop one symbol per bit.
    # Measured share of bits stepped one at a time, replays included:
    # 6,081 of 107,019 (5.7 %) on a cold memo, 240 (0.2 %) on a warm one;
    # 7,236 when popping states first looked up their top byte, and 54 %
    # when popping blocks ran bit by bit.
    bits = SequenceRecipe(kind="b", k=9, stages=81, seed=1).generate().bits
    stepped = []
    bit_steps = pushdown._bit_steps

    def counting(C, x, *args):
        stepped.append(len(x))
        return bit_steps(C, x, *args)

    monkeypatch.setattr(pushdown, "_bit_steps", counting)
    C = build_half_compressor(9, 9, 0)
    out = pdc_run(C, bits).output
    assert sum(stepped) < 0.08 * len(bits)  # 6.8 %, plus room for ~1,300 bits
    stepped.clear()
    assert pdc_run(C, bits).output == out
    assert sum(stepped) < 0.005 * len(bits)  # 0.2 %, plus room for ~300 bits
    assert out == oracle_pdc_run(C, bits).output


def test_profile_keeps_block_alignment_across_grid_points():
    # A grid step that is not a multiple of PDC_BLOCK: if each segment
    # started its own blocks, the profile would memoize 2.9 times the
    # entries of one run over the stream.
    bits = SequenceRecipe(kind="b", k=9, stages=81, seed=1).generate().bits
    assert 1000 % PDC_BLOCK
    points = list(range(1000, len(bits) + 1, 1000))
    single, profiled = build_half_compressor(9, 9, 0), build_half_compressor(9, 9, 0)
    out = pdc_run(single, bits[: points[-1]]).output
    *_, last = pdc_lengths(profiled, bits, points)
    assert last == len(out)
    assert len(profiled._blocks) < 1.5 * len(single._blocks)


def test_pdc_run_rejects_a_state_out_of_range():
    for state in (0, 7):
        with pytest.raises(ValidationError, match=f"^state {state} out of range 1..1$"):
            pdc_run(identity_pdc(), "", state=state)


def test_pdc_run_rejects_an_empty_stack():
    with pytest.raises(ValidationError, match="^stack must end with the bottom marker 'z'$"):
        pdc_run(identity_pdc(), "01", stack="")


def test_pdc_run_rejects_a_stack_symbol_from_u0100_up():
    with pytest.raises(ValidationError, match="stack symbol 'ā' is at or above U\\+0100"):
        pdc_run(identity_pdc(), "01", stack="āz")

