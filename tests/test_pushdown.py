import hashlib
import random
import string
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
    NON_BITS,
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
from depthlab.fst import BLOCK, FstSpec, block_keys, parse_fst
from depthlab.pushdown import (
    _BELOW,
    LAMBDA,
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
    assert len(text.splitlines()) == 2849
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fc37c2e91f9f6539d5b6b70d08475fda9c4fbb839a5a215d05bd355f67c6b019"
    )


def test_compose_merges_buffering_states_by_their_replays():
    # Keyed by the symbols it buffered, the product has 1,552 states, 6,792
    # moves and 1,516 input-free ones; states whose replays agree share a row.
    N = compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())
    assert (N.num_states, len(N.moves), len(free_moves(N.moves))) == (584, 2848, 584)


def test_compose_state_ceiling(monkeypatch):
    # The ceiling counts merged states: 584 here, where the product keyed by
    # buffers has 1,552, so a ceiling between them builds it.
    C = build_half_compressor(9, 9, 0)
    for ceiling in (10, 583):
        monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", ceiling)
        with pytest.raises(ValidationError, match=f"exceeds state ceiling {ceiling}$"):
            compose_pdc_fst(C, identity_fst())
    for ceiling in (584, 1551):
        monkeypatch.setattr(pushdown, "COMPOSE_STATE_CEILING", ceiling)
        assert compose_pdc_fst(C, identity_fst()).num_states == 584


def assert_quotient(O: PdcSpec, N: PdcSpec) -> None:
    """Assert that a map from O's states onto N's exists, start to start,
    under which every move of O, (s, input, top) -> (t, push, e), is the
    move of s's image on that input and top, with that push and emission,
    leading to t's image, and the image has no other moves. N then runs as
    O does on every input and stack: same output, stack and stuck position."""
    assert (N.stack_kind, N.lambda_budget) == (O.stack_kind, O.lambda_budget)
    def rows(M: PdcSpec) -> list[dict]:
        by_state = [{} for _ in range(M.num_states + 1)]
        for (q, inp, top), move in M.moves.items():
            by_state[q][inp, top] = move
        return by_state

    rows_O, rows_N = rows(O), rows(N)
    image, todo = {O.start: N.start}, [O.start]
    while todo:
        s = todo.pop()
        row, image_row = rows_O[s], rows_N[image[s]]
        assert row.keys() == image_row.keys(), (s, image[s])
        for key, (t, push, e) in row.items():
            t2, push2, e2 = image_row[key]
            assert (push2, e2) == (push, e), (s, key)
            if t not in image:
                image[t] = t2
                todo.append(t)
            assert image[t] == t2, (s, key)
    assert len(image) == O.num_states
    assert set(image.values()) == set(range(1, N.num_states + 1))


def compose_against_oracle(C: PdcSpec, T: FstSpec, ceiling: int = 200_000):
    """compose_pdc_fst(C, T) under a state ceiling, and the whole-buffer
    oracle's product with the ceiling lifted, of which the uncapped product
    must be a quotient. Under the ceiling it builds that quotient, or None
    when the ceiling refuses it for having more states."""
    want = oracle_compose_pdc_fst(C, T)
    full = compose_pdc_fst(C, T)
    assert_quotient(want, full)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pushdown, "COMPOSE_STATE_CEILING", ceiling)
        if full.num_states > ceiling:
            with pytest.raises(ValidationError, match=f"^composition exceeds state ceiling {ceiling}$"):
                compose_pdc_fst(C, T)
            return None, want
        got = compose_pdc_fst(C, T)
    assert format_pdc(got) == format_pdc(full)
    return got, want


def test_compose_matches_whole_buffer_oracle():
    rng = random.Random(111)
    kinds = Counter()
    for i in range(600):
        kind = "unary" if i % 2 else "binary"
        lambda_prob = (0.0, 0.2, 0.4, 0.6, 0.8)[i // 2 % 5]
        C = random_pdc(rng, kind=kind, max_states=4, lambda_prob=lambda_prob)
        T = random_fst(rng, max_states=3, max_emit=2)
        got, want = compose_against_oracle(C, T, rng.choice([4, 12, 200_000]))
        if got is None:
            kinds["ceiling"] += 1
        else:  # N's input-free moves each buffer a symbol
            kinds[f"buffers {min(got._chains[0], 2)}"] += 1
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
        compose_against_oracle(C, T)


def top_blind(rng: random.Random, C: PdcSpec) -> PdcSpec:
    """Binary C with some states' moves on top 1 replaced by their moves on
    top 0, so buffers that differ in those symbols replay alike."""
    moves = dict(C.moves)
    for q in range(1, C.num_states + 1):
        if rng.random() < 0.8:
            moves = {key: v for key, v in moves.items() if key[::2] != (q, "1")}
            moves.update({(q, inp, "1"): v for (p, inp, top), v in C.moves.items()
                          if (p, top) == (q, "0")})
    return PdcSpec(C.num_states, C.start, C.stack_kind, moves, C.lambda_budget)


def test_compose_merges_where_moves_ignore_the_top_symbol():
    # Random specs seldom merge (3 of the 600 above): a unary buffer is
    # fixed by its depth, and a binary one seldom replays as another does.
    rng = random.Random(117)
    merged = 0
    for i in range(300):
        C = top_blind(rng, random_pdc(rng, max_states=4, lambda_prob=(0.4, 0.6, 0.8)[i % 3]))
        if i % 2:
            C = drop_bit_move(rng, C)
        got, want = compose_against_oracle(C, random_fst(rng, max_states=3, max_emit=3))
        merged += got.num_states < want.num_states
    assert merged > 50, merged


def test_compose_tells_finished_replays_from_continuations():
    # Product state 3 buffers a symbol; its children on tops 0 and 1 keep
    # replays with equal fields, one finished and one a continuation, on
    # the bits in swapped roles. Keyed without their kinds, they would
    # merge, and the one left would emit 00 where C emits 0001 below.
    C = parse_pdc("pdc 1 1 binary 2\n1 0 0 -> 1 - -\n1 0 1 -> 1 00 -\n1 0 z -> 1 0z 01\n"
                  "1 1 0 -> 1 00 0\n1 1 1 -> 1 - 0\n1 1 z -> 1 1z -\n")
    T = parse_fst("fst 2 1\n1 0 -> 2 -\n1 1 -> 2 -\n2 0 -> 2 110\n2 1 -> 2 100\n")
    got, want = compose_against_oracle(C, T)
    assert got.num_states == want.num_states == 5
    # Product state 2 is (state 1 of C, state 2 of T), unbuffered.
    run, want_run = pdc_run(got, "0", state=2, stack="11z"), pdc_run(C, "110", stack="11z")
    assert (run.output, run.final_stack) == (want_run.output, want_run.final_stack) == ("0001", "0z")


def random_compose_cases():
    """The (outer, inner) pairs that the three random compose tests above
    draw, in their order, each test's seed and draws replayed."""
    rng = random.Random(44)
    for i in range(12):
        yield random_pdc(rng, kind="unary" if i % 3 else "binary"), random_fst(rng, max_states=2)
    rng = random.Random(111)
    for i in range(600):
        lambda_prob = (0.0, 0.2, 0.4, 0.6, 0.8)[i // 2 % 5]
        C = random_pdc(rng, kind="unary" if i % 2 else "binary", max_states=4,
                       lambda_prob=lambda_prob)
        yield C, random_fst(rng, max_states=3, max_emit=2)
        rng.choice([4, 12, 200_000])  # that test's state ceiling
    rng = random.Random(113)
    for i in range(300):
        C = random_pdc(rng, kind="unary" if i % 2 else "binary", max_states=4,
                       lambda_prob=(0.2, 0.4, 0.6)[i % 3])
        for _ in range(rng.randint(1, 3)):
            if any(inp != LAMBDA for _, inp, _ in C.moves):
                C = drop_bit_move(rng, C)
        yield C, random_fst(rng, max_states=3, max_emit=2)


def test_products_are_built_in_file_order():
    # compose_pdc_fst inserts each state's moves in format_pdc's key order,
    # so the text is one ascending run of keys, and it reads back as itself.
    half = compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())
    text = format_pdc(half)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fc37c2e91f9f6539d5b6b70d08475fda9c4fbb839a5a215d05bd355f67c6b019"
    )
    products = [half, *(compose_pdc_fst(C, T) for C, T in random_compose_cases())]
    assert len(products) == 913
    kinds = Counter()
    for N in products:
        assert list(N.moves) == sorted(N.moves), N
        text = format_pdc(N)
        assert format_pdc(parse_pdc(text)) == text
        kinds["input-free" if any(inp == LAMBDA for _, inp, _ in N.moves) else "bits only"] += 1
    assert min(kinds.values()) > 100, kinds


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


@pytest.mark.parametrize("line1, line2, bad", [
    ("+1 0 z -> 01 z 0", "01 1 z -> +1 z 1", None),
    ("1 0 z -> 1 z 0", "1 1 z -> 1 z 1", None),
    ("\u0661 0 z -> 1 z 0", "1 1 z -> 1 z 1", 1),  # a state's first line
    ("1 0 z -> 1 z 0", "1 1 z -> \u0661 z 1", 2),  # a later line naming it again
    ("1_0 0 z -> 1 z 0", "1 1 z -> 1 z 1", 1),
    ("1 0 z -> 1 z 0", "1_0 1 z -> 1 z 1", 2),
    ("1 0 z -> 1_0 z 0", "1 1 z -> 1_0 z 1", 1),  # the same bad token twice
])
def test_parser_reads_each_state_number_as_the_line_loop_did(line1, line2, bad):
    # parse_pdc reads each distinct state-number token once per file, and
    # refuses a bad one on the first line that has it, as the loop that
    # read every token did: +1, 01 and 1 are state 1.
    text = f"pdc 10 1 unary 0\n{line1}\n{line2}\n"
    got = parse_outcome(parse_pdc, text)
    assert got == parse_outcome(oracle_parse_pdc, text)
    if bad is None:
        assert {(q, tgt) for (q, _, _), (tgt, _, _) in got.moves.items()} == {(1, 1)}
    else:
        assert got == f"bad pdc line: {(line1, line2)[bad - 1]!r}"


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
    fans_out = {
        (1, LAMBDA, "1"): (2, "", ""),  # pop: the next top may be 0, 1 or z
        (2, LAMBDA, "0"): (3, "", ""),
        (3, LAMBDA, "0"): (4, "", ""),
        (2, LAMBDA, Z0): (5, "0" + Z0, ""),
        (5, LAMBDA, "0"): (6, "0", ""),
        (6, LAMBDA, "0"): (7, "0", ""),
        (7, LAMBDA, "0"): (8, "0", ""),
    }
    # Most pops: states 1, 2, 3, 4 over tops 1, 0, 0 (three of each).
    # Most moves: states 1, 2, 5, 6, 7, 8 over tops 1, z, 0, 0, 0 (five
    # moves, one pop).
    two_parents = {
        (1, LAMBDA, "0"): (2, "", ""),
        (2, LAMBDA, "0"): (3, "", ""),
        (2, LAMBDA, "1"): (2, "0", ""),
    }
    # (2, 0) has two parents: (1, 0) pops into it, and (2, 1) pushes 0 onto
    # it, so a depth-first walk queues it twice before entering it. Most
    # moves and pops: states 1, 2, 2 over tops 0, 1, 0 (three moves, two pops).
    for moves, m, chains in ((fans_out, 8, (5, 3)), (two_parents, 3, (3, 2))):
        budget = chains[0]
        C = PdcSpec(m, 1, "binary", moves, budget)
        assert _lambda_chains(free_moves(moves), "01z") == chains
        assert C._chains == chains_by_brute_force(moves, "01z") == chains
        assert oracle_pdc_validate(*pdc_fields(C)) == []
        assert refused(m, 1, "binary", moves, budget - 1) == (
            f"input-free moves can chain beyond budget {budget - 1}"
        )


def test_a_pure_pop_reaches_only_stack_symbols():
    # A pure pop leads to its target's input-free moves on the symbols 0, 1
    # and z, found by exact membership. The move on the mutated top "1z"
    # is a node of its own, and the chain from it pushes 0 and then pops:
    # two moves, one pop. Were "1z" taken for a symbol because it is a
    # substring of "01z", the pop would lead back to it: a false cycle.
    moves = {(1, LAMBDA, "0"): (2, "", ""), (2, LAMBDA, "1z"): (1, "0", "")}
    assert chains_by_brute_force(moves, "01z") == (2, 1)
    assert _lambda_chains(free_moves(moves), "01z") == (2, 1)
    assert refused(2, 1, "binary", moves, 2) == (
        "bad stack top in (2, '', '1z')"
    ) == "; ".join(oracle_pdc_validate(2, 1, "binary", moves, 2))
    assert refused(2, 1, "binary", moves, 1) == "; ".join(
        oracle_pdc_validate(2, 1, "binary", moves, 1)
    ) == "bad stack top in (2, '', '1z'); input-free moves can chain beyond budget 1"


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
    assert free == [33, 584] and len(N.moves) == 2848
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
    assert late._blocks == {(51, "0001", ord(Z0)): (50, None, b"", "")}
    assert refused(51, 51, "unary", moves, 48) == (
        "input-free moves can chain beyond budget 48"
    )


def test_flag_free_bits_of_short_lengths():
    # Every 9th bit is 0, so no 1^9 occurs, and length 0 gives no bits.
    assert flag_free_bits(0, 1) == ""
    for n in range(1, 40):
        x = flag_free_bits(n, n)
        assert len(x) == n and set(x) <= set("01") and "1" * 9 not in x
        assert x[8::9] == "0" * len(x[8::9])


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


BASE64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def coded(block):
    """A whole block's memo key: the byte of its base64 digit."""
    return ord(BASE64[int(block, 2)])


def test_block_engine_matches_oracle_cold_and_warm():
    # Every input length from 0 to 8 blocks + 1 (two 24-bit groups of block
    # codes, and a shorter last block), from a mid-run state over a
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
            for length in range(8 * BLOCK + 2):
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
                        stuck_offsets.add(got[1] % BLOCK)
                kinds["blocks memoized"] += sum(map(bool, spec._blocks.values()))
                windows = [spec._blocks[key] for key in window_keys(spec)]
                kinds["window blocks"] += sum(map(bool, windows))
                kinds["window no-blocks"] += windows.count(())
                popping_states = spec._tables[2]
                kinds["popping-state windows"] += sum(
                    key[0] in popping_states for key in window_keys(spec)
                )
    assert min(kinds.values()) > 500, kinds
    assert stuck_offsets == set(range(BLOCK))


def test_stack_free_specs_match_oracle_cold_and_warm():
    # A stack-free spec runs on the block engine as any other spec does,
    # and fills its own block memo. Its tables give c, its one emission
    # width, when it is total and every move emits c bits, else None. A
    # copy missing one move sticks where the oracle does, and a stack-free
    # spec over 0z sticks at once. From every state, on a cold memo and
    # then on the memo that run filled.
    rng = random.Random(94)
    kinds, widths = Counter(), Counter()
    for _ in range(40):
        T = random_fst(rng, max_states=4, max_emit=rng.choice([0, 2, 3]))
        total = stack_free(T)
        c = {len(e) for _, e in T.moves.values()}
        assert total._tables[3] == (c.pop() if len(c) == 1 else None)
        widths["one width" if total._tables[3] is not None else "mixed"] += 1
        partial = drop_bit_move(rng, total)
        assert partial._tables[3] is None
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
                    assert bool(spec._blocks) == bool(x)
    assert min(kinds.values()) > 50, kinds
    assert kinds.keys() == {
        f"{name} {end} {memo}" for name in ("total", "partial")
        for end in ("ran", "stuck") for memo in ("cold", "warm")
    }, kinds
    assert min(widths.values()) > 5, widths


def test_block_memo_stays_under_its_cap(monkeypatch):
    # Both kinds of key count toward the cap: the composed machine on
    # random bits, and the half-compressor, whose matching phases pop one
    # symbol per bit, on recipe b.
    N = compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())
    assert N.num_states == 584
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
        (1, coded("000000"), window): (1, slice(1 - PDC_WINDOW, None), b"", "000000"),
    }
    # A stack shorter than a window is keyed on all of it, down to z.
    short = "01" + Z0
    got = run_outcome(pdc_run, C, "000000", 1, short)
    assert got == run_outcome(oracle_pdc_run, C, "000000", 1, short)
    assert got == ("ran", "000000", 1, Z0)
    assert C._blocks[(1, coded("000000"), b"z10")] == (1, slice(-2, None), b"", "000000")
    # A bit with no move on top 1: the fourth bit of the block sticks.
    stuck = pop_machine(drop=(1, "1", "1"))
    got = run_outcome(pdc_run, stuck, "111111", 1, stack)
    assert got == run_outcome(oracle_pdc_run, stuck, "111111", 1, stack)
    assert got[:4] == ("stuck", 3, 1, "1")
    assert stuck._blocks[(1, coded("111111"), window)] == ()
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
    assert chained._blocks[(1, coded("000100"), window)] == (
        6, slice(3 - PDC_WINDOW, None), b"", "000100"
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
    assert past._blocks == {(1, coded("000001"), b"0" * PDC_WINDOW): ()}


def test_a_closure_below_the_top_byte_runs_bit_by_bit():
    # State 1 never pops on a bit, so its blocks are keyed on the top byte.
    # A 1 leads to state 2, whose input-free move pops that top, so the
    # block's replay reads below its key: the block is memoized as no
    # block, with no window entry, and runs bit by bit on the real stack.
    moves = {(q, b, t): (2 if q == 1 and b == "1" else 1, t, b)
             for q in (1, 3) for b in "01" for t in "01" + Z0}
    moves.update({(2, LAMBDA, t): (3, "" if t != Z0 else Z0, "") for t in "01" + Z0})
    C = PdcSpec(3, 1, "binary", moves, 1)
    assert not C._tables[2]  # no popping state
    top = "0110100"
    for rest in ("01" + Z0, "1" * 20 + Z0):  # cold, then warm
        stack = top + rest
        got = run_outcome(pdc_run, C, "100000", 1, stack)
        assert got == run_outcome(oracle_pdc_run, C, "100000", 1, stack)
        assert got == ("ran", "100000", 1, stack[1:])
        assert C._blocks == {(1, coded("100000"), ord("0")): ()}


# A two-state transducer whose moves emit 1, 0, 2 and 3 bits.
MIX = FstSpec(2, 1, {(1, "0"): (2, "1"), (1, "1"): (1, ""),
                     (2, "0"): (1, "00"), (2, "1"): (2, "101")})


def reference_keys(x):
    """block_keys one block at a time: a string shorter than a block is
    its own key, a whole block before the first non-bit is its digit, and
    any other block its string."""
    if len(x) < BLOCK:
        return [x] if x else []
    first = next((i for i, ch in enumerate(x) if ch not in "01"), len(x))
    whole = first // BLOCK * BLOCK
    return ([coded(x[i : i + BLOCK]) for i in range(0, whole, BLOCK)]
            + [x[i : i + BLOCK] for i in range(whole, len(x), BLOCK)])


def test_block_codes_match_a_per_block_reference():
    # Every length up to four 24-bit groups, random 10^4-bit strings that
    # start with zeros, all-ones and all-zeros strings, and bits with a
    # non-bit at a random place: one digit per whole block before the
    # first non-bit, in order, then the string of every later block.
    rng = random.Random(96)
    cases = ["".join(rng.choice("01") for _ in range(n)) for n in range(97)]
    for _ in range(20):
        zeros = "0" * rng.randint(1, 40)
        cases.append(zeros + "".join(rng.choice("01") for _ in range(10**4 - len(zeros))))
    cases += [b * n for b in "01" for n in (6, 23, 24, 25, 96, 10**4)]
    for bits in cases[:97]:
        at = rng.randint(0, len(bits))
        cases.append(bits[:at] + rng.choice(NON_BITS) + bits[at:])
    kinds = Counter()
    for x in cases:
        want = reference_keys(x)
        assert list(block_keys(x)) == want, x
        kinds.update(type(key).__name__ for key in want)
    assert min(kinds.values()) > 500, kinds


def assert_runs_stuck_as_oracle(C, x):
    """pdc_run, and pdc_lengths over a step-7 grid and at len(x), give the
    oracle's StuckError fields on x and every prefix past its stuck bit."""
    want = run_outcome(oracle_pdc_run, C, x)
    assert want[0] == "stuck"
    assert run_outcome(pdc_run, C, x) == want
    points = [*range(1, len(x), 7), len(x)]
    for n, got in zip(points, pdc_lengths(C, x, points)):
        if n <= want[1]:
            assert got == len(oracle_pdc_run(C, x[:n]).output)
        else:
            fields = (got.position, got.state, got.top, got.partial_output, str(got))
            assert ("stuck", *fields) == want


def test_non_bits_stick_where_the_oracle_does():
    # int(·, 2) reads "_", leading whitespace and signs, and non-ASCII
    # digits, so a block coded with its non-bit could reuse a bit block's
    # entry, as "01_011" would "001011"'s. Each non-bit goes at every
    # offset of the first whole block or of one after five, with more
    # blocks behind it, on a memo warmed with all 64 bit blocks there.
    # Stack-free specs stick there too, whether their moves all emit one
    # bit, all two, or a mix, though a stream of bits reads c*n unrun.
    rng = random.Random(97)
    uniform = FstSpec(2, 1, {(1, "0"): (2, "01"), (1, "1"): (1, "10"),
                             (2, "0"): (1, "11"), (2, "1"): (2, "00")})
    specs = (build_half_compressor(9, 9, 0), pop_machine(), identity_pdc(),
             stack_free(uniform), stack_free(MIX))
    assert [C._tables[3] for C in specs] == [None, None, 1, 2, None]
    for C in specs:
        for head in ("", flag_free_bits(5 * BLOCK, 3)):
            for b in range(2**BLOCK):
                pdc_run(C, head + format(b, f"0{BLOCK}b"))
            for ch in NON_BITS:
                for offset in range(BLOCK):
                    block = flag_free_bits(BLOCK, offset)
                    block = block[:offset] + ch + block[offset + 1 :]
                    tail = "".join(rng.choice("01") for _ in range(rng.randint(0, 18)))
                    assert_runs_stuck_as_oracle(C, head + block + tail)


def test_one_run_table_keys_every_move_as_the_spec_does():
    # A spec compiles into one run table keyed as its moves are, with the
    # top as its byte and each push reversed to bottom-first bytes: an
    # input-free move sits under LAMBDA beside the bit moves. For the
    # builtins, a composed product and random valid specs of both kinds.
    rng = random.Random(98)
    specs = [identity_pdc(), build_half_compressor(9, 9, 0), build_half_compressor(9, 81, 2),
             compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())]
    specs += [random_pdc(rng, kind=rng.choice(["binary", "unary"]), max_states=5,
                         lambda_prob=0.4) for _ in range(60)]
    kinds = Counter()
    for C in specs:
        assert C._tables[0] == {
            (q, inp, ord(top)): (tgt, push[::-1].encode("latin-1"), e)
            for (q, inp, top), (tgt, push, e) in C.moves.items()
        }
        kinds.update("input-free" if inp == LAMBDA else "bit" for _, inp, _ in C.moves)
    assert min(kinds.values()) > 500, kinds


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
                length = rng.randint(1, 5 * BLOCK)
                x = "".join(rng.choice("01") for _ in range(length))
                spec = cold_copy(C)
                for _ in range(2):
                    got = run_outcome(pdc_run, spec, x, state, stack)
                    assert got == run_outcome(oracle_pdc_run, spec, x, state, stack)
                assert len(spec._blocks) <= cap
                full[cap] += len(spec._blocks) == cap
                full["popping-state windows"] += sum(
                    key[0] in spec._tables[2] for key in window_keys(spec)
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


def count_stepped_bits(monkeypatch):
    """A list that gets the length of every input `_bit_steps` runs on from
    now on, a block replay's included."""
    stepped = []
    bit_steps = pushdown._bit_steps

    def counting(C, x, *args):
        stepped.append(len(x))
        return bit_steps(C, x, *args)

    monkeypatch.setattr(pushdown, "_bit_steps", counting)
    return stepped


def test_matching_phase_runs_in_blocks(monkeypatch):
    # The engine's shape, not its time: on recipe b the half-compressor
    # spends most bits in matching phases, which pop one symbol per bit.
    # Measured share of bits stepped one at a time, replays included:
    # 6,183 of 107,019 (5.8 %) on a cold memo, 486 (0.45 %) on a warm one;
    # 6,081 and 240 when a block whose closure read below its top byte was
    # looked up again on its window, 7,236 cold when popping states first
    # looked up their top byte, and 54 % when popping blocks ran bit by bit.
    bits = SequenceRecipe(kind="b", k=9, stages=81, seed=1).generate().bits
    stepped = count_stepped_bits(monkeypatch)
    C = build_half_compressor(9, 9, 0)
    out = pdc_run(C, bits).output
    assert sum(stepped) < 0.08 * len(bits)  # 5.8 %, plus room for ~2,400 bits
    stepped.clear()
    assert pdc_run(C, bits).output == out
    assert sum(stepped) < 0.005 * len(bits)  # 0.45 %, plus room for 49 bits
    assert out == oracle_pdc_run(C, bits).output


def test_composed_deep_run_steps_few_bits_warm(monkeypatch):
    # The engine's shape on a stack that grows to the stream length: the
    # composed half-compressor over flag-free bits keys its blocks on the
    # top byte. Measured bits stepped one at a time on a warm memo, replays
    # included, for seeds 1 to 5: 90, 222, 162, 150 and 150 of 50,000.
    stepped = count_stepped_bits(monkeypatch)
    for seed in range(1, 6):
        bits = flag_free_bits(50_000, seed)
        N = compose_pdc_fst(build_half_compressor(9, 9, 0), identity_fst())
        assert pdc_run(N, bits).output == bits
        stepped.clear()
        assert pdc_run(N, bits).output == bits
        assert sum(stepped) <= 0.005 * len(bits)  # 222 at most, room for 28 bits


def test_profile_keeps_block_alignment_across_grid_points():
    # A grid step that is not a multiple of BLOCK: if each segment
    # started its own blocks, the profile would memoize 2.9 times the
    # entries of one run over the stream.
    bits = SequenceRecipe(kind="b", k=9, stages=81, seed=1).generate().bits
    assert 1000 % BLOCK
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

