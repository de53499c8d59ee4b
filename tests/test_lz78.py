import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NON_BITS, OracleLzParser, oracle_lz_conditional
from depthlab import (
    ValidationError,
    check_parse,
    compute_profile,
    lz_conditional,
    lz_decode,
    lz_encode,
    lz_parse,
    make_compressor,
    random_bits,
    repeat_bound,
)
from depthlab import lz78
from depthlab.lz78 import LzParser, lz_lengths, pointer_width


def all_inputs(max_len):
    for L in range(max_len + 1):
        for xs in product("01", repeat=L):
            yield "".join(xs)


def test_parse_worked_example():
    p = lz_parse("010110")
    assert p.phrases == ["0", "1", "01", "10"]
    assert p.tokens == [(0, "0"), (0, "1"), (1, "1"), (2, "0")]
    assert p.tail is None


def test_parse_empty_and_tail():
    assert lz_parse("").tokens == []
    p = lz_parse("00")
    assert p.phrases == ["0"]
    assert p.tail == 1  # repeats phrase 1


def test_encode_lengths():
    assert lz_encode("0") == "0"
    assert len(lz_encode("010110")) == (0 + 1) + (1 + 1) + (2 + 1) + (2 + 1)
    assert lz_encode("010110") == "0" + "01" + "011" + "100"


def test_roundtrip_exhaustive_small():
    for x in all_inputs(11):
        assert lz_decode(lz_encode(x)) == x


@settings(max_examples=200)
@given(st.text(alphabet="01", max_size=400))
def test_roundtrip_random(x):
    assert lz_decode(lz_encode(x)) == x


def test_parser_resumes_across_chunks():
    # Feeding a stream in pieces parses it exactly as one call, and the
    # running coded length equals lz_encode's length at every prefix.
    rng = random.Random(21)
    for _ in range(30):
        x = random_bits(rng, rng.randint(0, 300))
        parser, pos = LzParser(), 0
        while pos < len(x):
            chunk = x[pos : pos + rng.randint(0, 9)]
            parser.feed(chunk)
            pos += len(chunk)
            assert parser.coded_bits() == len(lz_encode(x[:pos]))
        assert parser.result() == lz_parse(x)


@settings(max_examples=300)
@given(
    st.lists(st.text(alphabet="01", max_size=12), max_size=30),
    st.text(alphabet="01", max_size=40),
    st.sampled_from([1, 2, 5, lz78.FEED_CHUNK]),
)
@example(["0", "", "0"], "0", lz78.FEED_CHUNK)  # "00" ends inside phrase "0"
@example(["01", "", "0110"], "1", lz78.FEED_CHUNK)  # ends on a phrase boundary
@example(["0110100"], "", 3)  # a phrase spans two encoded pieces
def test_parser_matches_oracle_on_any_chunking(chunks, y, feed_chunk):
    # feed_chunk is how many bits LzParser.feed encodes to bytes at a time.
    parser, oracle = LzParser(), OracleLzParser()
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lz78, "FEED_CHUNK", feed_chunk)
            parser.feed(chunk)
        oracle.feed(chunk)
        assert parser.coded_bits() == oracle.coded_bits()
    got, want = parser.result(), oracle.result()
    assert got.tokens == want.tokens
    assert got.tail == want.tail
    assert got.phrases == want.phrases
    x = "".join(chunks)
    assert lz_conditional(y, x) == oracle_lz_conditional(y, x)
    assert lz_encode(x) == oracle_lz_conditional(x, "")[0]


def test_coded_bits_closed_form_across_power_of_two_edges():
    # One bit at a time through every token count t from 0 to 2**12 + 1:
    # coded_bits() is the sum of pointer_width(i) + 1 over tokens 1..t,
    # plus pointer_width(t + 1) while the input ends inside a phrase.
    rng = random.Random(12)
    parser, oracle = LzParser(), OracleLzParser()
    t = total = 0
    boundary, inside = {0}, set()
    while t <= 2**12 + 1:
        b = rng.choice("01")
        parser.feed(b)
        oracle.feed(b)
        if len(oracle.tokens) > t:
            t += 1
            total += pointer_width(t) + 1
        if oracle.node:
            inside.add(t)
            assert parser.coded_bits() == total + pointer_width(t + 1)
        else:
            boundary.add(t)
            assert parser.coded_bits() == total
    assert boundary == set(range(2**12 + 3))
    assert inside >= set(range(8, 2**12 + 2))


def test_decode_errors_name_positions():
    # Tokens 1-2 ok, then token 3 is cut off mid-pointer.
    with pytest.raises(ValueError, match="bit 3"):
        lz_decode("0011")
    # Token 3's pointer 11 exceeds the 3-phrase dictionary.
    with pytest.raises(ValueError, match="out of range"):
        lz_decode("001" + "110")
    # A pointer-only tail token naming the empty phrase, which lz_encode
    # never writes: token 2's lone pointer bit, then token 3's two.
    with pytest.raises(ValueError, match="bit 1"):
        lz_decode("00")
    with pytest.raises(ValueError, match="bit 3"):
        lz_decode("0" + "01" + "00")


def test_public_functions_refuse_a_non_bit_string():
    # lz_encode("0 1") used to code the space as a literal, and "0a" raised
    # a bare IndexError.
    for bad in ("0 1", "0a", "2"):
        calls = [
            (lz_parse, (bad,)), (lz_encode, (bad,)),
            (lz_conditional, (bad, "01")), (lz_conditional, ("01", bad)),
        ]
        for fn, args in calls:
            with pytest.raises(ValidationError, match=f"must be a string over 0/1, got {bad!r}"):
                fn(*args)


def test_the_depth_column_refuses_a_non_bit_stream_unechoed():
    # LzParser.feed picks a child table by the input byte, so lz_lengths
    # read a space as 0 and raised a bare IndexError on "_". The LZ78
    # column of a depth profile refuses such a stream before it parses
    # any of it, and its message quotes none of a stream that may be long.
    calls = [lambda: list(lz_lengths("0 1 0 1", [7])),
             lambda: compute_profile("01_0", [make_compressor("lz78")], [1, 4])]
    calls += [lambda ch=ch: next(lz_lengths("01" + ch + "0", [1])) for ch in NON_BITS]
    for call in calls:
        with pytest.raises(ValidationError, match="^LZ78 input must be a string over 0/1$"):
            call()


def test_parse_structure_checked():
    rng = random.Random(10)
    for _ in range(50):
        x = random_bits(rng, rng.randint(0, 200))
        check_parse(lz_parse(x))


@pytest.mark.parametrize("phrases, message", [
    (["0", "0"], "duplicate complete phrase"),
    (["11"], "phrase '11' lacks its prefix"),
])
def test_parse_structure_check_refuses(phrases, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        check_parse(lz78.LzParse([], None, phrases))


def test_conditional_empty_prefix_is_plain_encode():
    for x in ("", "0", "0110", "1010101"):
        bits, n = lz_conditional(x, "")
        assert bits == lz_encode(x)
        assert n == len(bits)


def test_conditional_primed_widths():
    # After parsing "0" the dictionary holds one phrase; "0" then matches
    # it and ends, leaving a pointer-only token of width 1.
    bits, n = lz_conditional("0", "0")
    assert (bits, n) == ("1", 1)


def test_conditional_extends_boundary_encodings():
    rng = random.Random(4)
    for _ in range(60):
        z = random_bits(rng, rng.randint(2, 80))
        parse = lz_parse(z)
        if not parse.tokens:
            continue
        cut = rng.randint(1, len(parse.tokens))
        x = "".join(p for p in parse.phrases[:cut])
        y = random_bits(rng, rng.randint(0, 40))
        assert lz_encode(x + y) == lz_encode(x) + lz_conditional(y, x)[0]


def test_repeat_bound_value_and_monotonicity():
    assert repeat_bound(1, 1, 0) == 2.0
    assert repeat_bound(2, 1, 0) >= repeat_bound(1, 1, 0)
    assert repeat_bound(1, 2, 0) >= repeat_bound(1, 1, 0)
    assert repeat_bound(1, 1, 5) >= repeat_bound(1, 1, 0)


@pytest.mark.parametrize("len_y, n, d", [(0, 1, 0), (1, 0, 0), (1, 1, -1)])
def test_repeat_bound_refuses_out_of_range(len_y, n, d):
    with pytest.raises(ValidationError, match=r"^need len_y >= 1, n >= 1, d >= 0$"):
        repeat_bound(len_y, n, d)


def test_repeat_bound_holds_on_samples():
    rng = random.Random(99)
    for _ in range(60):
        x = random_bits(rng, rng.randint(0, 64))
        y = random_bits(rng, rng.randint(1, 8))
        n = rng.randint(1, 64)
        d = len(lz_parse(x).phrases)
        _, measured = lz_conditional(y * n, x)
        assert measured <= repeat_bound(len(y), n, d)
