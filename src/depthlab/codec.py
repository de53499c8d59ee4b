"""Binary code for transducers, plus the small string codes it is built from.

A machine description is: the start-state index in binary with every bit
doubled, a "01" separator, then the transition table. Each table entry is
an optional target code (dagger-marked binary of a state offset; empty for
a self-loop) followed by the emission in the complemented diamond code.
The two chunk kinds parse deterministically left to right: a dagger chunk
begins 10/11, a diamond chunk begins 00/01.
"""
from __future__ import annotations

from typing import Optional

from .errors import ValidationError
from .fst import BITS, FstSpec


def nat_bin(n: int) -> str:
    """Standard binary of n >= 1 (always starts with 1)."""
    if n < 1:
        raise ValidationError("nat_bin needs n >= 1")
    return format(n, "b")


def dagger(x: str) -> str:
    """Interleave a 0 after every bit of x except the last, which gets a 1."""
    if not x:
        raise ValidationError("dagger needs a nonempty string")
    return "".join(c + "0" for c in x[:-1]) + x[-1] + "1"


def complement(x: str) -> str:
    return "".join("1" if c == "0" else "0" for c in x)


def diamond(x: str) -> str:
    """Complemented dagger of 1x; self-delimits even for empty x."""
    return complement(dagger("1" + x))


def double_bits(x: str) -> str:
    """Duplicate every bit: 10 -> 1100."""
    return "".join(c + c for c in x)


def target_code(m: int, q: int, tgt: int) -> str:
    """Canonical target chunk of a move from q to tgt among m states.

    Empty for a self-loop; otherwise the dagger of the smallest n >= 1
    with 1 + (n mod m) = tgt.
    """
    if tgt == q:
        return ""
    return dagger(nat_bin(tgt - 1 if tgt >= 2 else m))


def encode_fst(T: FstSpec) -> str:
    """Canonical description of T: minimal offset in every dagger chunk."""
    m = T.num_states
    parts = [double_bits(nat_bin(T.start)), "01"]
    for q in range(1, m + 1):
        for b in BITS:
            tgt, e = T.moves[(q, b)]
            # The emission e is itself string(n') for n' = value of 1e.
            parts.append(target_code(m, q, tgt) + diamond(e))
    return "".join(parts)


def decode_fst(bits: str) -> Optional[FstSpec]:
    """Inverse of encode_fst on its range; None for anything malformed.

    None covers: bad doubling in the start pointer, missing separator,
    truncated or misaligned table chunks, an odd entry count, and a start
    index beyond the decoded state count.
    """
    if bits.strip("01") != "":
        return None
    # Start pointer: doubled pairs up to the 01 separator.
    i = 0
    startbits = []
    while True:
        grp = bits[i : i + 2]
        if len(grp) < 2:
            return None
        i += 2
        if grp == "01":
            break
        if grp[0] != grp[1]:
            return None
        startbits.append(grp[0])
    if not startbits or startbits[0] != "1":
        return None
    start = int("".join(startbits), 2)

    # Table entries: optional dagger chunk (first pair starts 1) then a
    # diamond chunk (first pair starts 0).
    entries: list[tuple[Optional[int], str]] = []
    while i < len(bits):
        n: Optional[int] = None
        if bits[i] == "1":
            nb = []
            while True:
                grp = bits[i : i + 2]
                if len(grp) < 2:
                    return None
                i += 2
                nb.append(grp[0])
                if grp[1] == "1":
                    break
            n = int("".join(nb), 2)
        grp = bits[i : i + 2]
        if len(grp) < 2 or grp[0] != "0":
            return None
        payload = []
        i += 2
        if grp == "01":
            while True:
                grp = bits[i : i + 2]
                if len(grp) < 2:
                    return None
                i += 2
                payload.append(grp[0])
                if grp[1] == "0":
                    break
        entries.append((n, complement("".join(payload))))

    if not entries or len(entries) % 2:
        return None
    m = len(entries) // 2
    if start > m:
        return None
    moves: dict[tuple[int, str], tuple[int, str]] = {}
    for idx, (n, emission) in enumerate(entries):
        q = idx // 2 + 1
        moves[(q, BITS[idx % 2])] = (q if n is None else 1 + (n % m), emission)
    return FstSpec(m, start, moves)


def fst_size(T: FstSpec) -> int:
    """Length of the shortest description of T.

    The canonical description is the unique shortest string that decodes
    to T: m is fixed by the entry count and the start pointer by its
    value, a larger offset n' = n (mod m) has at least as many binary
    digits as the minimal n, and a self-loop written with a dagger chunk
    is longer than the empty chunk.
    """
    return len(encode_fst(T))
