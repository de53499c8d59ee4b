import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fst_size, oracle_decode_fst, random_fst, silent_fst
from depthlab import (
    FstSpec,
    ValidationError,
    dagger,
    decode_fst,
    diamond,
    double_bits,
    encode_fst,
    identity_fst,
    nat_bin,
)


def nat_string(n: int) -> str:
    """nat_bin(n) minus its leading 1; length is floor(log2 n)."""
    return nat_bin(n)[1:]


def reverse_bits(x: str) -> str:
    return x[::-1]


def test_nat_bin_values():
    assert [nat_bin(n) for n in (1, 2, 3, 6)] == ["1", "10", "11", "110"]
    assert nat_string(1) == ""
    assert nat_string(6) == "10"
    with pytest.raises(ValidationError):
        nat_bin(0)


def test_nat_string_length_is_floor_log():
    for n in range(1, 2**16 + 1):
        assert len(nat_string(n)) == n.bit_length() - 1


def test_pair_codes():
    assert dagger("01") == "0011"
    assert diamond("") == "00"
    assert double_bits("10") == "1100"
    assert reverse_bits("0011") == "1100"
    with pytest.raises(ValidationError):
        dagger("")


def test_silent_machine_description():
    assert encode_fst(silent_fst()) == "11010000"
    assert fst_size(silent_fst()) == 8
    assert decode_fst("11010000") == silent_fst()


def test_identity_roundtrip():
    assert decode_fst(encode_fst(identity_fst())) == identity_fst()


def test_decode_rejects_malformed():
    assert decode_fst("") is None
    assert decode_fst("10") is None  # undoubled start pointer
    assert decode_fst("1101") is None  # empty table
    assert decode_fst("110100") is None  # truncated table chunk
    assert decode_fst("0101") is None  # start pointer missing
    assert decode_fst("11010000abc") is None


def test_decode_matches_scanner_oracle_on_every_short_string():
    for length in range(17):
        for val in range(1 << length):
            desc = format(val, f"0{length}b") if length else ""
            assert decode_fst(desc) == oracle_decode_fst(desc), desc


def test_decode_matches_scanner_oracle_near_valid_descriptions():
    # Every truncation and one-bit flip of a valid description.
    rng = random.Random(18)
    for _ in range(200):
        desc = encode_fst(random_fst(rng, max_states=5, max_emit=3))
        variants = [desc[:i] for i in range(len(desc))]
        variants += [
            desc[:i] + ("1" if desc[i] == "0" else "0") + desc[i + 1 :]
            for i in range(len(desc))
        ]
        for v in variants:
            assert decode_fst(v) == oracle_decode_fst(v), v


def test_decode_rejects_start_beyond_state_count():
    # Start pointer 2 with a one-state table.
    desc = double_bits("10") + "01" + "0000"
    assert decode_fst(desc) is None


def all_specs_m1(max_emit=2):
    emissions = [""]
    for L in range(1, max_emit + 1):
        emissions.extend("".join(e) for e in product("01", repeat=L))
    for e0 in emissions:
        for e1 in emissions:
            yield FstSpec(1, 1, {(1, "0"): (1, e0), (1, "1"): (1, e1)})


def test_exhaustive_roundtrip_one_state():
    for T in all_specs_m1():
        assert decode_fst(encode_fst(T)) == T


def test_random_roundtrip_five_states():
    rng = random.Random(77)
    for _ in range(200):
        T = random_fst(rng, max_states=5, max_emit=3)
        assert decode_fst(encode_fst(T)) == T


def test_table_chunk_shape():
    # Dagger chunks pair-flag 0 until a final 1; diamond chunks the reverse.
    rng = random.Random(3)
    for _ in range(50):
        T = random_fst(rng, max_states=4)
        desc = encode_fst(T)
        # walk to the separator: doubled pairs then "01"
        j = 0
        while desc[j : j + 2] != "01":
            j += 2
        table = desc[j + 2 :]
        pos = 0
        while pos < len(table):
            if table[pos] == "1":  # dagger chunk
                while table[pos + 1] != "1":
                    pos += 2
                pos += 2
            assert table[pos] == "0"  # diamond chunk follows
            if table[pos : pos + 2] == "00":
                pos += 2
                continue
            pos += 2
            while table[pos + 1] != "0":
                pos += 2
            pos += 2


def test_minimal_offset_canonical_form():
    # Two-state machine, both targets state 1: offsets encode n = m = 2.
    T = FstSpec(
        2, 1, {(1, "0"): (2, ""), (1, "1"): (1, ""), (2, "0"): (1, ""), (2, "1"): (2, "")}
    )
    desc = encode_fst(T)
    # entry (1,0): target 2 -> n=1 -> dagger("1") = "11"
    # entry (2,0): target 1 -> n=2 -> dagger("10") = "1001"
    assert desc == "11" + "01" + "11" + "00" + "00" + "1001" + "00" + "00"
    assert decode_fst(desc) == T


def test_size_lower_bound():
    rng = random.Random(5)
    for _ in range(50):
        T = random_fst(rng, max_states=5)
        m = T.num_states
        assert fst_size(T) >= 2 * (m.bit_length() - 1) + 4
        assert fst_size(T) >= 4


def test_bit_flips_never_crash():
    rng = random.Random(9)
    descs = [encode_fst(identity_fst()), encode_fst(silent_fst())]
    descs += [encode_fst(random_fst(rng, max_states=5)) for _ in range(50)]
    for desc in descs:
        for i in range(len(desc)):
            flipped = desc[:i] + ("1" if desc[i] == "0" else "0") + desc[i + 1 :]
            decode_fst(flipped)  # any return is fine; raising is not


def tuple_encode(parts: list[str]) -> str:
    """Self-delimiting concatenation; every part but the last is framed.

    The frame for a part p is 1^(|bin(|p|)|-1) 0 bin(|p|), then p itself;
    the final part is appended raw. Parts before the last must be
    nonempty so their length is codable.
    """
    if not parts:
        raise ValidationError("tuple_encode needs at least one part")
    pieces = []
    for p in parts[:-1]:
        if not p:
            raise ValidationError("only the final part may be empty")
        nb = nat_bin(len(p))
        pieces.append("1" * (len(nb) - 1) + "0" + nb + p)
    pieces.append(parts[-1])
    return "".join(pieces)


def tuple_decode(bits: str, count: int) -> list[str]:
    """Recover a tuple of `count` parts from tuple_encode output."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    parts = []
    i = 0
    for _ in range(count - 1):
        ones = 0
        while i < len(bits) and bits[i] == "1":
            ones += 1
            i += 1
        if i >= len(bits):
            raise ValueError(f"truncated length frame at bit {i}")
        i += 1  # the 0 ending the unary run
        width = ones + 1
        nb = bits[i : i + width]
        if len(nb) < width or not nb.startswith("1"):
            raise ValueError(f"bad length field at bit {i}")
        i += width
        n = int(nb, 2)
        part = bits[i : i + n]
        if len(part) < n:
            raise ValueError(f"truncated part at bit {i}")
        parts.append(part)
        i += n
    parts.append(bits[i:])
    return parts


def test_tuple_single_part_raw():
    assert tuple_encode(["10110"]) == "10110"
    assert tuple_encode([""]) == ""


def test_tuple_worked_example():
    assert tuple_encode(["01", "1"]) == "1010011"
    assert tuple_decode("1010011", 2) == ["01", "1"]


@settings(max_examples=150)
@given(
    st.lists(st.text(alphabet="01", min_size=1, max_size=9), min_size=1, max_size=4),
    st.text(alphabet="01", max_size=9),
)
def test_tuple_roundtrip(parts, last):
    parts = parts + [last]
    assert tuple_decode(tuple_encode(parts), len(parts)) == parts


def test_tuple_errors():
    with pytest.raises(ValidationError):
        tuple_encode([])
    with pytest.raises(ValidationError):
        tuple_encode(["", "1"])
    with pytest.raises(ValueError):
        tuple_decode("111", 2)
