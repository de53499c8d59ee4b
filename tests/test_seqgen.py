import hashlib
import json
import math

import pytest

from depthlab import (
    SequenceRecipe,
    ValidationError,
    fs_random_string,
    gen_recipe_a,
    gen_recipe_b,
    gen_recipe_c,
    intervals,
    kfs_complexity,
    fscomplexity,
    lz_encode,
    seqgen,
)
from depthlab.seqgen import _no_long_ones, devoted_k, power_ceiling


def bounds(part, j: int) -> tuple[int, int]:
    """(min, max) of the j-th interval of an IntervalPartition, 1-based."""
    lo = sum(part.lengths[: j - 1])
    return lo, lo + part.lengths[j - 1] - 1


def test_intervals_exponential():
    part = intervals("exponential", count=3)
    assert part.lengths == (2, 4, 64)
    assert bounds(part, 1) == (0, 1)
    assert bounds(part, 2) == (2, 5)
    assert bounds(part, 3) == (6, 69)


def test_intervals_budget_truncation():
    part = intervals("exponential", bit_budget=10**6)
    assert part.lengths == (2, 4, 64)  # the next interval has 2^70 bits
    assert part.truncated
    # Without a budget that cuts it, a stage random_bits cannot draw is refused.
    with pytest.raises(ValidationError, match=f"^stage 4 needs an interval of {2**70}"):
        intervals("exponential", count=4)
    with pytest.raises(ValidationError, match="^stage 2 needs"):
        intervals("scaled", count=3, g=2**16)


def test_intervals_scaled():
    assert intervals("scaled", count=4, g=4).lengths == (4, 16, 64, 256)
    with pytest.raises(ValidationError):
        intervals("scaled", count=2, g=1)
    with pytest.raises(ValidationError):
        intervals("nope", count=2)
    # Both are checked before any stage is built, so an empty schedule
    # is refused too; exponential growth does not read g.
    with pytest.raises(ValidationError, match="^unknown growth mode 'bogus'$"):
        intervals("bogus", count=0)
    with pytest.raises(ValidationError, match="^scaled growth needs g >= 2$"):
        intervals("scaled", count=0, g=-5)
    assert intervals("exponential", count=0, g=1).lengths == ()


def test_devotion_schedule():
    assert [devoted_k(j) for j in (2, 4, 6, 8, 10, 12)] == [1, 2, 1, 3, 1, 2]
    # Every even index is devoted to exactly one k of the form 2^k + t 2^(k+1).
    for j in range(2, 600, 2):
        k = devoted_k(j)
        assert (j - 2**k) % 2 ** (k + 1) == 0


def test_power_ceiling():
    assert [power_ceiling(9, n) for n in (1, 2, 9, 10, 81, 82)] == [
        1, 9, 9, 81, 81, 729,
    ]
    for n in range(1, 200):
        t = power_ceiling(9, n)
        assert n <= t <= 9 * n


def test_recipe_a_structure():
    stream = gen_recipe_a(SequenceRecipe(kind="a", stages=6, g=4, seed=7))
    lengths = [4, 16, 64, 256, 1024, 4096]
    assert len(stream.bits) == sum(lengths)
    kinds = [b["kind"] for b in stream.blocks]
    assert kinds == ["random", "devoted"] * 3
    # Stage 2 is devoted to k=1 and holds exactly one copy of a 16-bit
    # block; stage 6 repeats the same block 256 times.
    b2, b6 = stream.blocks[1], stream.blocks[5]
    assert (b2["k"], b2["copies"]) == (1, 1)
    assert (b6["k"], b6["copies"]) == (1, 256)
    s2 = stream.bits[4:20]
    s6 = stream.bits[sum(lengths[:5]) :]
    assert s6 == s2 * 256


def test_recipe_a_exponential_mode_truncates():
    recipe = SequenceRecipe(kind="a", growth="exponential", bit_budget=10**6, seed=1)
    stream = gen_recipe_a(recipe)
    assert stream.truncated
    assert len(stream.bits) == 70
    # Stage 2 is one copy of the 4-bit repeat block.
    assert stream.blocks[1] == {
        "stage": 2, "len": 4, "kind": "devoted", "k": 1, "copies": 1,
    }


@pytest.mark.parametrize(
    "recipe, length, truncated",
    [
        (SequenceRecipe(kind="a", bit_budget=100), 84, True),
        (SequenceRecipe(kind="b", k=9, bit_budget=100), 198, False),
        (SequenceRecipe(kind="c", k=6, v=2, bit_budget=100), 258, False),
    ],
    ids=["a", "b", "c"],
)
def test_bit_budget_stage_rules(recipe, length, truncated):
    # Recipe a stops before the stage that would cross the budget and sets
    # truncated; recipes b and c finish the stage that crosses it.
    stream = recipe.generate()
    assert (len(stream.bits), stream.truncated) == (length, truncated)
    n = stream.blocks[-1]["stage"]
    before, at, after = (
        len(recipe._replace(bit_budget=None, stages=s).generate().bits)
        for s in (n - 1, n, n + 1)
    )
    assert at == length
    if truncated:
        assert at <= recipe.bit_budget < after
    else:
        assert before < recipe.bit_budget < at


def test_recipe_a_random_blocks_look_incompressible():
    stream = gen_recipe_a(SequenceRecipe(kind="a", stages=6, g=4, seed=3))
    block = stream.bits[-4096:]  # stage 6 is devoted; take stage 5 instead
    start = 4 + 16 + 64 + 256
    block = stream.bits[start : start + 1024]
    assert len(lz_encode(block)) / len(block) >= 0.75


def test_recipe_a_determinism():
    r = SequenceRecipe(kind="a", growth="scaled", g=4, seed=11, stages=6)
    assert r.generate().sha256() == r.generate().sha256()
    other = SequenceRecipe(kind="a", growth="scaled", g=4, seed=12, stages=6)
    assert other.generate().sha256() != r.generate().sha256()


def test_fs_random_string_surrogate_and_certified(monkeypatch):
    s1, cert1 = fs_random_string(64, 3, mode="surrogate", seed=5)
    s2, _ = fs_random_string(64, 3, mode="surrogate", seed=5)
    assert s1 == s2 and len(s1) == 64
    assert cert1.mode == "surrogate" and cert1.value is None

    # Bound 4 - 4*1 = 0 is vacuous: the first candidate certifies.
    r, cert = fs_random_string(4, 1, mode="certified", seed=5)
    assert cert.bound == 0 and cert.value >= 0

    r, cert = fs_random_string(16, 2, mode="certified", seed=5)
    assert cert.value >= cert.bound == 8
    assert kfs_complexity(r, 6).value >= 8

    with pytest.raises(ValidationError):
        fs_random_string(16, 5, mode="certified")
    monkeypatch.setattr(seqgen, "MAX_CANDIDATES", 0)
    with pytest.raises(ValidationError):
        fs_random_string(16, 2, mode="certified")


def test_certified_mode_reads_the_enumeration_ceiling_when_called(monkeypatch):
    monkeypatch.setattr(fscomplexity, "ENUM_CEILING", 11)
    refusal = r"^certified mode needs 3k <= 11, got k=4$"
    with pytest.raises(ValidationError, match=refusal):
        fs_random_string(16, 4, mode="certified")
    # Recipe a certifies r_k only while 3k is inside the same ceiling.
    modes = []
    real = seqgen.fs_random_string

    def spy(length, k, mode, seed):
        modes.append((k, mode))
        return real(length, k, mode=mode, seed=seed)

    monkeypatch.setattr(seqgen, "fs_random_string", spy)
    monkeypatch.setattr(fscomplexity, "ENUM_CEILING", 3)
    gen_recipe_a(SequenceRecipe(kind="a", stages=4, certify=True))
    assert modes == [(1, "certified"), (2, "surrogate")]


def test_recipe_b_structure():
    stream = gen_recipe_b(SequenceRecipe(kind="b", k=9, stages=12, seed=2))
    pos = 0
    for blk in stream.blocks:
        j, rlen = blk["stage"], blk["len_r"]
        assert rlen == 9 * power_ceiling(9, j)
        stage = stream.bits[pos : pos + 2 * rlen + 9]
        r = stage[:rlen]
        assert "1" * 9 not in r
        assert stage[rlen : rlen + 9] == "1" * 9
        assert stage[rlen + 9 :] == r[::-1]
        pos += len(stage)
    assert pos == len(stream.bits)


def test_recipe_b_rejects_small_k():
    with pytest.raises(ValidationError):
        gen_recipe_b(SequenceRecipe(kind="b", k=8, stages=2))


def test_recipe_b_needs_stages_or_a_bit_budget():
    # Without either, the stage loop would never end.
    with pytest.raises(ValidationError, match="^recipe b needs stages or a bit budget$"):
        gen_recipe_b(SequenceRecipe(kind="b", k=9))


def test_recipe_b_refuses_an_oversized_stage():
    # Stage 1 has 3 * 10^5 bits; stage 2 would need 2 * 10^10 + 10^5.
    with pytest.raises(ValidationError, match=f"^stage 2 needs {2 * 10**10 + 10**5} bits"):
        gen_recipe_b(SequenceRecipe(kind="b", k=10**5, stages=2))
    # A budget that ends the stream first never reaches the check.
    cut = SequenceRecipe(kind="b", k=10**5, stages=2, bit_budget=1000)
    assert len(gen_recipe_b(cut).bits) == 3 * 10**5
    with pytest.raises(ValidationError, match="^stage 1 needs"):
        gen_recipe_b(SequenceRecipe(kind="b", k=3 * 10**9, stages=1))


def test_recipe_c_refuses_an_oversized_stage(monkeypatch):
    # k = 4, n = 4: 3 palindromes, 6 pairs, f = 8, so v = 10^5 needs
    # 4*3 + 8 + 2*4*6 + 100001*8 + 100001*100002/2 bits.
    def list_strings(n, k):
        if n == 4:
            raise AssertionError("strings listed for an oversized stage")
        return real(n, k)

    real = seqgen._no_long_ones
    monkeypatch.setattr(seqgen, "_no_long_ones", list_strings)
    with pytest.raises(
        ValidationError, match=f"^stage 4 needs 5000950077 bits, over {2**31 - 1}$"
    ):
        gen_recipe_c(SequenceRecipe(kind="c", k=4, v=10**5, stages=4))


@pytest.mark.parametrize("cap", [{"stages": 3}, {"bit_budget": 30}])
def test_recipe_c_stops_before_it_builds_a_stage(monkeypatch, cap):
    # Stages 1-3 hold 2 + 8 + 24 = 34 bits, which reach a budget of 30;
    # stage 4 is the oversized one of the test above, so the stop rule
    # must run before it is sized or listed.
    def list_strings(n, k):
        raise AssertionError(f"strings listed for stage {n}")

    monkeypatch.setattr(seqgen, "_no_long_ones", list_strings)
    stream = gen_recipe_c(SequenceRecipe(kind="c", k=4, v=10**5, **cap))
    assert len(stream.bits) == 34
    assert [b["stage"] for b in stream.blocks] == [1, 2, 3]


@pytest.mark.parametrize("k, v, stages", [(5, 2, 7), (6, 2, 5), (4, 3, 4)])
def test_recipe_c_stage_guard_is_exact(monkeypatch, k, v, stages):
    # A zone stage, an all-strings stage (n < k) and the first zone stage
    # right after the bridge.
    recipe = SequenceRecipe(kind="c", k=k, v=v, stages=stages)
    stream = gen_recipe_c(recipe)
    size = stream.blocks[-1]["len"]
    monkeypatch.setattr(seqgen, "MAX_INTERVAL_BITS", size)
    assert gen_recipe_c(recipe) == stream
    monkeypatch.setattr(seqgen, "MAX_INTERVAL_BITS", size - 1)
    with pytest.raises(ValidationError, match=f"^stage {stages} needs {size} bits"):
        gen_recipe_c(recipe)


def test_flag_free_count_matches_the_list():
    for k in (4, 6, 9):
        for n in range(13):
            assert seqgen._count_no_long_ones(n, k) == len(seqgen._no_long_ones(n, k))


def test_recipe_b_fallback_still_flag_free(monkeypatch):
    monkeypatch.setattr(seqgen, "SAMPLE_RETRIES", 0)
    stream = gen_recipe_b(SequenceRecipe(kind="b", k=9, stages=8, seed=1))
    assert any(b["fallback"] for b in stream.blocks)
    pos = 0
    for blk in stream.blocks:
        rlen = blk["len_r"]
        assert "1" * 9 not in stream.bits[pos : pos + rlen]
        pos += 2 * rlen + 9


def test_recipe_b_determinism():
    r = SequenceRecipe(kind="b", k=9, seed=4, stages=8)
    assert r.generate().sha256() == r.generate().sha256()


def test_no_long_ones_enumeration():
    for n, k in ((6, 6), (8, 4), (10, 6)):
        strings = _no_long_ones(n, k)
        assert strings == sorted(strings)
        assert len(set(strings)) == len(strings)
        assert all("1" * k not in s for s in strings)
        # Count formula checks from first principles.
        brute = [
            format(i, f"0{n}b")
            for i in range(2**n)
            if "1" * k not in format(i, f"0{n}b")
        ]
        assert strings == brute


def test_recipe_c_set_sizes():
    k = 6
    for n in range(k, 13):
        t_n = _no_long_ones(n, k)
        assert len(t_n) >= 2 ** (n * (k - 1) / k)
        assert len(t_n) < 2 * len(_no_long_ones(n - 1, k))
        palis = [s for s in t_n if s == s[::-1]]
        assert len(palis) <= 2 ** math.ceil(n / 2)


def test_recipe_c_preamble_and_bridge():
    stream = gen_recipe_c(SequenceRecipe(kind="c", k=6, v=2, stages=6))
    preamble = "".join(
        "".join(format(i, f"0{n}b") for i in range(2**n)) for n in range(1, 6)
    )
    bridge = "".join("1" * j for j in range(6, 12))
    assert stream.bits.startswith(preamble + bridge)


def test_recipe_c_stage_structure():
    k, v = 6, 2
    stream = gen_recipe_c(SequenceRecipe(kind="c", k=k, v=v, stages=9))
    zone_blocks = [b for b in stream.blocks if b["kind"] == "zones"]
    offset = sum(b["len"] for b in stream.blocks if b["kind"] != "zones")
    # Verify the last zone stage against an independent reconstruction.
    blk = zone_blocks[-1]
    n = blk["stage"]
    start = sum(b["len"] for b in stream.blocks[: stream.blocks.index(blk)])
    stage = stream.bits[start : start + blk["len"]]
    f_n = 2 * k + (n - k) * (v + 2)
    assert blk["flag"] == f_n
    # palindromes, then the flag
    pal_len = blk["palindromes"] * n
    assert stage[pal_len : pal_len + f_n] == "1" * f_n
    body = stage[pal_len + f_n :]
    assert sum(blk["zone_sizes"]) == blk["pairs"]
    for i, size in enumerate(blk["zone_sizes"], start=1):
        flag = "1" * (f_n + i)
        head, rest = body[: size * n], body[size * n :]
        assert rest.startswith(flag)
        tail, body = rest[len(flag) : len(flag) + size * n], rest[
            len(flag) + size * n :
        ]
        assert tail == head[::-1]
        if size:
            # zone content is reversal pairs, tail mirroring head
            xs = [head[j * n : (j + 1) * n] for j in range(size)]
            ys = [tail[j * n : (j + 1) * n] for j in range(size)]
            assert ys == [x[::-1] for x in reversed(xs)]
    assert body == ""


def test_zone_rotation_prefers_zero_boundaries():
    from depthlab.seqgen import _rotate_for_leading_zeros

    rot = _rotate_for_leading_zeros(["110", "010", "100"])
    assert rot[0].startswith("0") and rot[-1].endswith("0")
    assert sorted(rot) == ["010", "100", "110"]
    # No rotation can work here; the order is left alone.
    assert _rotate_for_leading_zeros(["11", "111"]) == ["11", "111"]


def test_recipe_c_empty_remainder_zone_is_bare_flag():
    # Stage n = k has few pairs; with a huge v every regular zone is empty
    # and the remainder zone may be too, leaving bare flags.
    stream = gen_recipe_c(SequenceRecipe(kind="c", k=4, v=50, stages=4))
    blk = stream.blocks[-1]
    assert blk["kind"] == "zones"
    assert any(size == 0 for size in blk["zone_sizes"])


def test_recipe_c_determinism_and_args():
    r = SequenceRecipe(kind="c", k=6, v=2, stages=8)
    assert r.generate().sha256() == r.generate().sha256()
    with pytest.raises(ValidationError):
        gen_recipe_c(SequenceRecipe(kind="c", k=3, v=2, stages=5))
    with pytest.raises(ValidationError):
        gen_recipe_c(SequenceRecipe(kind="c", k=6, v=0, stages=5))
    with pytest.raises(ValidationError):
        gen_recipe_c(SequenceRecipe(kind="c", k=6, v=2))


# Every recipe shape the generators read, with the stage rule's edges:
# budgets 27 and 198 (k = 9) and 258 (c(6,2)) end exactly on a stage, and
# the last ten are refused.
PINNED_RECIPES = [
    SequenceRecipe(kind="a", g=g, stages=stages, seed=seed)
    for g in (3, 4)
    for stages in range(1, 9)
    for seed in (0, 1, 7)
] + [
    SequenceRecipe(kind="a", growth="exponential", bit_budget=10**6, seed=1),
    SequenceRecipe(kind="a", bit_budget=100),
    SequenceRecipe(kind="a", stages=6, certify=True, seed=5),
    SequenceRecipe(kind="b", k=9, stages=6, seed=3),
    SequenceRecipe(kind="b", k=10, stages=4, seed=1),
    SequenceRecipe(kind="b", k=9, bit_budget=27),
    SequenceRecipe(kind="b", k=9, bit_budget=198),
    SequenceRecipe(kind="b", k=10, bit_budget=1000, seed=2),
    SequenceRecipe(kind="b", k=9, stages=3, bit_budget=10**4, seed=4),
    SequenceRecipe(kind="b", k=10, stages=9, bit_budget=300, seed=4),
    SequenceRecipe(kind="c", k=4, v=1, stages=6),
    SequenceRecipe(kind="c", k=6, v=2, stages=9),
    SequenceRecipe(kind="c", k=5, v=3, stages=8),
    SequenceRecipe(kind="c", k=4, v=50, stages=4),
    SequenceRecipe(kind="c", k=6, v=2, bit_budget=100),
    SequenceRecipe(kind="c", k=6, v=2, bit_budget=258),
    SequenceRecipe(kind="c", k=4, v=1, stages=9, bit_budget=143),
    SequenceRecipe(kind="b", k=8, stages=2),
    SequenceRecipe(kind="b", k=9),
    SequenceRecipe(kind="b", k=10**5, stages=2),
    SequenceRecipe(kind="c", k=3, v=2, stages=5),
    SequenceRecipe(kind="c", k=6, v=0, stages=5),
    SequenceRecipe(kind="c", k=6, v=2),
    SequenceRecipe(kind="z"),
    SequenceRecipe(kind="a", growth="exponential", stages=4),
    SequenceRecipe(kind="a", growth="nope", stages=2),
    SequenceRecipe(kind="a", g=1, stages=2),
]


def test_recipe_outputs_are_pinned():
    # One hash over each recipe's fields and its stream, blocks and cut, or
    # its error text. Any change to what a recipe generates or refuses
    # changes it.
    h = hashlib.sha256()
    for recipe in PINNED_RECIPES:
        h.update(json.dumps(recipe.fields(), sort_keys=True).encode())
        try:
            s = recipe.generate()
        except ValidationError as exc:
            h.update(f"error: {exc}".encode())
        else:
            h.update(json.dumps([s.bits, list(s.blocks), s.truncated]).encode())
    assert len(PINNED_RECIPES) == 75
    assert h.hexdigest() == (
        "726454b96fbee9565edf012ed1ada629ff5f45c9a0e631fdc5ee40fc2f365e39"
    )
