import hashlib
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_min_input,
    described,
    enum_fsts_by_decoding,
    fst_key,
    machines,
    oracle_kfs_lengths,
    oracle_kfs_over_set,
    oracle_min_input_for_output,
    random_fst,
    silent_fst,
)
from depthlab import (
    FstSpec,
    SequenceRecipe,
    ValidationError,
    decode_fst,
    encode_fst,
    enum_fsts,
    fscomplexity,
    fst_run,
    identity_fst,
    kfs_complexity,
    kfs_over_set,
    min_input_for_output,
    random_bits,
    repeater_fst,
)
from depthlab.fscomplexity import kfs_lengths
from depthlab.fst import BITS


def all_inputs(max_len):
    for L in range(max_len + 1):
        for xs in product("01", repeat=L):
            yield "".join(xs)


def test_enum_small_universes():
    assert len(enum_fsts(7)) == 0
    u8 = enum_fsts(8)
    assert machines(u8) == [silent_fst()]
    sizes = [len(enum_fsts(k)) for k in range(8, 15)]
    assert sizes == sorted(sizes)


def test_enum_ceiling():
    with pytest.raises(ValidationError):
        enum_fsts(15)


# k = 0..16. Past the ceiling of 14, k = 16 is the first bound with a
# transition into state 1 from another state (offset m, not 0).
UNIVERSE_SIZES = [0] * 8 + [1, 1, 5, 5, 18, 18, 61, 61, 211]


@pytest.mark.parametrize("k", range(17))
def test_enum_matches_decoding_oracle(k, monkeypatch):
    monkeypatch.setattr(fscomplexity, "ENUM_CEILING", 16)
    u, oracle = enum_fsts(k), enum_fsts_by_decoding(k)
    assert u.k == k and len(u) == UNIVERSE_SIZES[k]
    assert u.entries == oracle.entries
    keys = [fst_key(spec) for _, spec in u.entries]
    assert keys == [fst_key(spec) for _, spec in oracle.entries]
    for desc, spec in u.entries:
        assert encode_fst(spec) == desc
        assert decode_fst(desc) == spec


@pytest.mark.parametrize("k", range(8, 15))
def test_kfs_matches_decoding_oracle(k):
    oracle = enum_fsts_by_decoding(k)
    rng = random.Random(2011)
    for _ in range(200):
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 24)))
        assert kfs_complexity(x, k) == kfs_over_set(x, oracle.entries)
        assert kfs_complexity(x, k) == oracle_kfs_over_set(x, oracle.entries)


# Behaviour classes per k = 0..16, k = 16 past the ceiling.
CLASS_COUNTS = [0] * 8 + [1, 1, 5, 5, 17, 17, 49, 49, 145]


def outputs_up_to(T: FstSpec, L: int) -> tuple[str, ...]:
    """T's output on every input of length <= L, shortest inputs first."""
    outs, level = [], [("", T.start)]
    for length in range(L + 1):
        outs.extend(out for out, _ in level)
        if length < L:
            level = [(out + e, t) for out, q in level
                     for t, e in (T.moves[(q, b)] for b in BITS)]
    return tuple(outs)


@pytest.mark.parametrize("k", range(17))
def test_behaviour_classes_match_bounded_outputs(k, monkeypatch):
    # Machines with m1 and m2 states agree on every input exactly when they
    # agree on every input of length <= m1 * m2 (a first difference shows
    # within that many steps of their product). Every machine here has at
    # most M states, so tables over length <= M * M group the same way.
    monkeypatch.setattr(fscomplexity, "ENUM_CEILING", 16)
    u = enum_fsts(k)
    assert len(u.classes) == CLASS_COUNTS[k]
    M = max((T.num_states for T in machines(u)), default=1)
    firsts: dict[tuple, int] = {}
    for i, T in enumerate(machines(u)):
        firsts.setdefault(outputs_up_to(T, M * M), i)
    # Each class is represented by its lowest index, in ascending order.
    assert u.classes == tuple(firsts.values())


def kfs_probes(rng: random.Random) -> list[str]:
    """Random strings of 0-40 bits, then strings whose winner the classes
    and the length bound decide."""
    xs = [random_bits(rng, rng.randint(0, 40)) for _ in range(40)]
    xs += [p * t for p in ("01", "110") for t in range(14)]
    xs += [b * n for b in "01" for n in range(30)]
    return xs


@pytest.mark.parametrize("k", range(8, 15))
def test_kfs_matches_search_oracle(k):
    entries = enum_fsts(k).entries
    for x in kfs_probes(random.Random(k)):
        want = oracle_kfs_over_set(x, entries)
        # value, description, input and machine_index, field by field
        assert kfs_complexity(x, k) == want, x
        assert kfs_over_set(x, entries) == want, x


def test_min_input_matches_search_oracle():
    rng = random.Random(23)
    for _ in range(60):
        T = random_fst(rng, max_states=3)
        for x in all_inputs(5):
            assert min_input_for_output(T, x) == oracle_min_input_for_output(T, x)


def comparable(values):
    return [v if isinstance(v, int) else (type(v).__name__, str(v)) for v in values]


def assert_one_pass_matches(k, entries, bits, oracle_entries=None):
    points = list(range(1, len(bits) + 1))
    got = comparable(kfs_lengths(k, entries, bits, points))
    want = comparable(oracle_kfs_lengths(k, oracle_entries or entries, bits, points))
    assert got == want, bits


@pytest.mark.parametrize("k", [10, 12, 14])
def test_one_pass_kfs_matches_per_prefix_oracle(k):
    u = enum_fsts(k)
    firsts = [u.entries[i] for i in u.classes]
    rng = random.Random(k)
    streams = [random_bits(rng, rng.randint(0, 300)) for _ in range(3)]
    streams.append(SequenceRecipe(kind="a", stages=5, seed=k).generate().bits[:300])
    streams.append("0" * 40 + "1" + "0" * 20)  # reachable, then not, at k = 10
    for bits in streams:
        assert_one_pass_matches(k, firsts, bits, u.entries)


def test_one_pass_relaxes_empty_emissions():
    # Reachability need not be monotone in n: repeater(01) reaches only
    # the even prefixes of (01)^t.
    assert_one_pass_matches(14, described(repeater_fst("01")), "01" * 30)
    multi = [e for e in enum_fsts(14).entries if e[1].num_states > 1]
    rng = random.Random(41)
    randoms = described(*(random_fst(rng, max_states=3) for _ in range(30)))
    assert any(not e for _, T in randoms for _, e in T.moves.values())
    for entries in (described(*machines(enum_fsts(12))), multi, randoms):
        for bits in [random_bits(rng, 120), "0" * 60, "01" * 40 + "1" * 20]:
            assert_one_pass_matches(14, entries, bits)


def test_enum_cache_keeps_ceiling(monkeypatch):
    u12, u14 = enum_fsts(12), enum_fsts(14)
    with pytest.raises(ValidationError):
        enum_fsts(15)
    monkeypatch.setattr(fscomplexity, "ENUM_CEILING", 12)
    with pytest.raises(ValidationError):
        enum_fsts(14)
    assert enum_fsts(12) == u12
    monkeypatch.undo()
    assert enum_fsts(14) == u14


def test_enum_dedup_keeps_shortest_description():
    for desc, spec in enum_fsts(12).entries:
        assert len(desc) <= 12
        from depthlab import decode_fst

        assert decode_fst(desc) == spec


def test_kfs_empty_target():
    assert kfs_complexity("", 8).value == 0


def test_kfs_identity_bound():
    u = enum_fsts(12)
    assert identity_fst() in machines(u)
    rng = random.Random(4)
    for _ in range(20):
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        r = kfs_complexity(x, 12)
        assert r.value <= len(x)


def test_kfs_over_set_identity_and_repeater():
    assert kfs_over_set("0110", described(identity_fst())).value == 4
    tr = described(repeater_fst("10"))
    for t in range(9):
        r = kfs_over_set("10" * t, tr)
        assert r.value == t
    assert kfs_over_set("1011", tr).value == math.inf
    assert kfs_over_set("1011", tr).witness is None


def test_witness_replays_to_target():
    u = enum_fsts(12)
    rng = random.Random(8)
    for _ in range(30):
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        r = kfs_complexity(x, 12)
        if r.witness is None:
            continue
        desc, T = u.entries[r.witness.machine_index]
        assert r.witness.description == desc
        assert fst_run(T, r.witness.input_bits).output == x
        assert len(r.witness.input_bits) == r.value


def test_shortest_path_equals_brute_force_random_machines():
    rng = random.Random(21)
    for _ in range(40):
        T = random_fst(rng, max_states=2)
        for x in all_inputs(4):
            got = min_input_for_output(T, x)
            brute = brute_force_min_input(T, x, 6)
            if got is not None and got[0] <= 6:
                assert brute is not None and len(brute) == got[0]
                assert fst_run(T, got[1]).output == x
            else:
                assert brute is None


# sha256 of one repr((x, value, witness)) line per target of kfs_targets,
# pinned before the search carried each node's input in its queue.
KFS_WITNESS_SHA256 = "074bcdb82ae06a45ffaf1a72555e0ab061fa3173d70d6d5aacfe9bf878f9bc80"


def kfs_targets() -> list[str]:
    """300 seeded 64-bit strings, then every string of at most 8 bits."""
    rng = random.Random(18)
    xs = [format(rng.getrandbits(64), "064b") for _ in range(300)]
    return xs + ["".join(p) for n in range(9) for p in product("01", repeat=n)]


def test_kfs_witnesses_are_pinned():
    lines = []
    for x in kfs_targets():
        r = kfs_complexity(x, 14)
        lines.append(repr((x, r.value, r.witness)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == KFS_WITNESS_SHA256


def test_lex_least_witness():
    # Both bits emit the same thing, so many shortest inputs exist; the
    # reported one must be all zeros.
    T = repeater_fst("1")
    got = min_input_for_output(T, "111")
    assert got == (3, "000")


def test_monotone_in_k():
    rng = random.Random(6)
    for _ in range(15):
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        values = [kfs_complexity(x, k).value for k in (8, 10, 12, 14)]
        assert values == sorted(values, reverse=True)


def test_splitting_inequality_small_instance():
    # With a 4-bit bound no machine exists at all (8 bits is the minimum
    # description), so every left side is infinite and the inequality
    # D^4(x y^n z) >= D^12(x) + n D^12(y) + D^12(z) holds vacuously.
    assert len(enum_fsts(4)) == 0
    checked = skipped = 0
    for x in all_inputs(2):
        for y in all_inputs(2):
            for z in all_inputs(2):
                for n in (1, 2):
                    left = kfs_complexity(x + y * n + z, 4).value
                    if math.isinf(left):
                        skipped += 1
                        continue
                    right = (
                        kfs_complexity(x, 12).value
                        + n * kfs_complexity(y, 12).value
                        + kfs_complexity(z, 12).value
                    )
                    assert left >= right
                    checked += 1
    assert skipped > 0


def pad_blocks(p: str, b: int) -> str:
    """Frame p for streaming: 0 before every full b-bit block, then a 1
    marker, then the leftover bits doubled.

    With |p| = n*b + r the result has length n*(b+1) + 2r + 1, so the
    overhead fades as b grows.
    """
    if b < 1:
        raise ValidationError("block size must be >= 1")
    n = len(p) // b
    pieces = []
    for i in range(n):
        pieces.append("0" + p[i * b : (i + 1) * b])
    pieces.append("1")
    for c in p[n * b :]:
        pieces.append(c + c)
    return "".join(pieces)


def unpad_blocks(s: str, b: int) -> str:
    """Inverse of pad_blocks; raises ValueError on framing violations."""
    if b < 1:
        raise ValidationError("block size must be >= 1")
    i = 0
    pieces = []
    while True:
        if i >= len(s):
            raise ValueError(f"missing tail marker at bit {i}")
        flag = s[i]
        i += 1
        if flag == "1":
            break
        block = s[i : i + b]
        if len(block) < b:
            raise ValueError(f"truncated block at bit {i}")
        pieces.append(block)
        i += b
    tail = s[i:]
    if len(tail) % 2:
        raise ValueError(f"odd doubled tail starting at bit {i}")
    for j in range(0, len(tail), 2):
        if tail[j] != tail[j + 1]:
            raise ValueError(f"bad doubling at bit {i + j}")
        pieces.append(tail[j])
    return "".join(pieces)


def build_pad_combiner(A: FstSpec, B: FstSpec, b: int) -> FstSpec:
    """Machine mapping pad_blocks(p, b) + "10" + q to A(p)B(q).

    It tracks the framing of the padded section, feeds the recovered bits
    of p to a simulation of A, switches on the 10 pair that cannot occur
    inside a doubled tail, and then feeds the rest to B. Inputs that break
    the framing fall into a silent sink.
    """
    if b < 1:
        raise ValidationError("block size must be >= 1")
    # State encoding: ("F", a, j) frame position j (0 = expecting a frame
    # bit) while A sits in state a; ("D", a, pending) inside the doubled
    # tail; ("G", s) feeding B; ("X",) sink.
    index: dict[tuple, int] = {}
    order: list[tuple] = []

    def ref(state: tuple) -> int:
        if state not in index:
            index[state] = len(order) + 1
            order.append(state)
        return index[state]

    moves: dict[tuple[int, str], tuple[int, str]] = {}
    ref(("F", A.start, 0))
    i = 0
    while i < len(order):
        state = order[i]
        idx = index[state]
        i += 1
        for bit in BITS:
            if state[0] == "F":
                _, a, j = state
                if j == 0:
                    tgt, em = (("F", a, 1) if bit == "0" else ("D", a, "")), ""
                else:
                    a2, em = A.moves[(a, bit)]
                    tgt = ("F", a2, 0 if j == b else j + 1)
            elif state[0] == "D":
                _, a, pending = state
                if pending == "":
                    tgt, em = ("D", a, bit), ""
                elif pending == bit:
                    a2, em = A.moves[(a, bit)]
                    tgt = ("D", a2, "")
                elif pending == "1":  # the 10 separator
                    tgt, em = ("G", B.start), ""
                else:  # 01 never occurs in a doubled tail
                    tgt, em = ("X",), ""
            elif state[0] == "G":
                _, s = state
                s2, em = B.moves[(s, bit)]
                tgt = ("G", s2)
            else:
                tgt, em = ("X",), ""
            moves[(idx, bit)] = (ref(tgt), em)
    return FstSpec(len(order), 1, moves)


def test_pad_examples():
    assert pad_blocks("110", 2) == "011100"
    assert pad_blocks("", 3) == "1"
    assert len(pad_blocks("11010", 2)) == 2 * 3 + 2 * 1 + 1


@settings(max_examples=150)
@given(st.text(alphabet="01", max_size=40), st.integers(min_value=1, max_value=8))
def test_pad_roundtrip(p, b):
    s = pad_blocks(p, b)
    n, r = divmod(len(p), b)
    assert len(s) == n * (b + 1) + 2 * r + 1
    assert unpad_blocks(s, b) == p


def test_pad_overhead_bound():
    # For b = ceil(2/eps) and long enough p the padded form stays within
    # (1+eps)|p| + 2.
    eps = 0.5
    b = math.ceil(2 / eps)
    rng = random.Random(2)
    for L in (b * b, 64, 200):
        p = "".join(rng.choice("01") for _ in range(L))
        assert len(pad_blocks(p, b)) <= len(p) * (1 + eps) + 2


def test_unpad_rejects_malformed():
    with pytest.raises(ValueError):
        unpad_blocks("", 2)
    with pytest.raises(ValueError):
        unpad_blocks("011", 2)  # truncated block
    with pytest.raises(ValueError):
        unpad_blocks("110", 2)  # odd doubled tail
    with pytest.raises(ValueError):
        unpad_blocks("101", 2)  # broken doubling


def test_pad_combiner_concatenates_outputs():
    rng = random.Random(13)
    emitter = FstSpec(1, 1, {(1, "0"): (1, "0"), (1, "1"): (1, "")})
    pairs = [(identity_fst(), identity_fst()), (emitter, identity_fst())]
    for A, B in pairs:
        for b in (2, 4):
            M = build_pad_combiner(A, B, b)
            for _ in range(40):
                p = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
                q = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
                inp = pad_blocks(p, b) + "10" + q
                want = fst_run(A, p).output + fst_run(B, q).output
                assert fst_run(M, inp).output == want


def test_pad_combiner_witnesses_concat_bound():
    # Feeding the combiner a padded shortest input for x plus one for y
    # shows D(xy) <= (1+eps) D(x) + D(y) + 2 over the combined machine.
    eps = 0.5
    b = math.ceil(2 / eps)
    A = B = identity_fst()
    M = build_pad_combiner(A, B, b)
    rng = random.Random(3)
    for _ in range(20):
        x = "".join(rng.choice("01") for _ in range(rng.randint(b * b, 40)))
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        dx = kfs_over_set(x, described(A)).value
        dy = kfs_over_set(y, described(B)).value
        got = kfs_over_set(x + y, described(M)).value
        assert got <= (1 + eps) * dx + dy + 2
