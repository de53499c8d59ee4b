"""Finite-state transducers over the binary alphabet.

A transducer has states 1..m, a start state, and a total move map on
(state, bit): each move names a target state and the bits it emits.
Running one on an input concatenates the per-step emissions.

`fst_run` reads its input in blocks of BLOCK bits and looks each up in
a memo the spec owns, keyed by (state, block), so a run costs one lookup
per block rather than per bit. `block_keys` codes the blocks, and the
pushdown engine reads its blocks through it too: a whole block of bits
is keyed on its base64 digit, which one pass in C codes for all of an
input's whole blocks, and a shorter last block, or any from the first
non-bit on, on its string. A miss runs the block one bit at a time and
memoizes it until the memo holds BLOCK_MEMO_CAP entries; past that,
blocks it lacks keep running one bit at a time. Everything else here is
a pure function over immutable specs, and a memo entry is the same
whichever run writes it, so concurrent use needs no coordination.
"""
from __future__ import annotations

from binascii import b2a_base64
from itertools import chain
from pathlib import Path
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence,
                    TypeVar, Union)

from .errors import ValidationError

BITS = ("0", "1")
T = TypeVar("T")

BLOCK = 6  # input bits per memoized block: one base64 digit, its key
BLOCK_MEMO_CAP = 1 << 16  # most memoized blocks per spec, FST or PDC


def read_text(path: str) -> str:
    """The text of a file; a file that is not UTF-8 is a ValidationError
    naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text") from exc


def is_bits(s: str) -> bool:
    """Whether s is a string over 0/1."""
    return s.isascii() and not s.encode().translate(None, b"01")


def check_bits(s: str, what: str) -> None:
    if not is_bits(s):
        raise ValidationError(f"{what} must be a string over 0/1, got {s!r}")


def ascii_number(s: str, read: Callable[[str], T] = int) -> T:
    """read(s), for int or float, refusing the other scripts' digits and the
    '_' that both read."""
    if not s.isascii() or "_" in s:
        raise ValueError(f"not an ASCII number: {s!r}")
    return read(s)


class FrozenRecord:
    """Field equality, a Name(field=value, ...) repr and read-only fields,
    for a record that checks what it is built from: a subclass names its
    fields in `_fields`, and its __init__ sets them through vars(self)."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class FstSpec(FrozenRecord):
    """A finite-state transducer: states 1..num_states, total on (state, bit).

    `moves` maps (state, bit) -> (target state, emitted bits, possibly
    empty). Searches read it by state from `_rows`, built with the spec,
    and runs memoize blocks in `_blocks`, (state, block) -> (state,
    emission), so the map must not change. Every move emits `width` bits,
    or `width` is None.
    """

    _fields = ("num_states", "start", "moves")

    def __init__(self, num_states: int, start: int,
                 moves: Mapping[tuple[int, str], tuple[int, str]]) -> None:
        m = num_states
        if m < 1:
            raise ValidationError("num_states must be >= 1")
        if not 1 <= start <= m:
            raise ValidationError(f"start state {start} not in 1..{m}")
        # Count first: a huge header with a short table fails at once.
        if len(moves) != 2 * m or any(
            (q, b) not in moves for q in range(1, m + 1) for b in BITS
        ):
            raise ValidationError("moves must be total on states x bits")
        for key, (t, _) in moves.items():
            if not 1 <= t <= m:
                raise ValidationError(f"target state {t} out of range 1..{m} in {key}")
        for key, (_, e) in moves.items():
            if e.strip("01"):  # the move is named only when it is refused
                check_bits(e, f"emission {key}")
        # rows[q] is q's moves on 0 and 1, for searches that step every state:
        # built here, as a cached_property's first read costs more than these.
        rows = ((), *((moves[(q, "0")], moves[(q, "1")]) for q in range(1, m + 1)))
        widths = {len(e) for _, e in moves.values()}
        longest = max(widths)
        vars(self).update(num_states=m, start=start, moves=moves, _rows=rows, _longest=longest,
                          width=longest if len(widths) == 1 else None, _blocks={})

    def max_emission(self) -> int:
        return self._longest


class RunResult(NamedTuple):
    output: str
    final_state: int


def fst_run(T: FstSpec, x: str, start: Optional[int] = None) -> RunResult:
    """Run T on x: output is the concatenation of per-step emissions."""
    q = T.start if start is None else start
    if not 1 <= q <= T.num_states:
        raise ValidationError(f"state {q} out of range 1..{T.num_states}")
    moves, blocks = T.moves, T._blocks
    pieces = []
    for i, block in enumerate(block_keys(x)):
        move = blocks.get((q, block))
        if move is None:
            q0, emitted = q, []
            for b in x[i * BLOCK : i * BLOCK + BLOCK]:
                q, e = moves[(q, b)]
                emitted.append(e)
            move = q, "".join(emitted)
            if len(blocks) < BLOCK_MEMO_CAP:
                blocks[(q0, block)] = move
        q, e = move
        pieces.append(e)
    return RunResult("".join(pieces), q)


def block_keys(x: str) -> Iterable[Union[int, str]]:
    """The memo key of each block of BLOCK bits of x, in order. Whole
    blocks before x's first non-bit are keyed on the byte of their base64
    digit: the number they spell, padded with zeros to whole bytes, in
    base64, less the digits past the last whole block. They stop at the
    first non-bit, as `int(·, 2)` would also read "_", spaces, signs and
    non-ASCII digits. Any other block is keyed on its string."""
    n = len(x)
    if n < BLOCK:  # no whole block: a step-1 grid runs one bit per call
        return (x,) if x else ()
    bits = x if is_bits(x) else x[: n - len(x.lstrip("01"))]  # up to the first non-bit
    whole = len(bits) // BLOCK
    pad = -whole * BLOCK % 8
    number = int(bits or "0", 2) >> len(bits) % BLOCK << pad  # "" if x starts with a non-bit
    digits = b2a_base64(number.to_bytes((whole * BLOCK + pad) // 8, "big"), newline=False)
    return chain(digits[:whole], (x[i : i + BLOCK] for i in range(whole * BLOCK, n, BLOCK)))


def fst_lengths(T: FstSpec, bits: str, points: Sequence[int]) -> Iterator[int]:
    """The output bit count of T on bits[:n] for each n of the ascending
    `points` (all <= len(bits)), resuming from the last point's state.
    When every move emits c bits and bits is all bits, bits[:n] yields c*n
    without a run: the move map is total, so no run can stop early."""
    if T.width is not None and is_bits(bits):
        yield from (T.width * n for n in points)
        return
    q, total, prev = T.start, 0, 0
    for n in points:
        run = fst_run(T, bits[prev:n], start=q)
        q, total, prev = run.final_state, total + len(run.output), n
        yield total


# Common machines, also exposed as CLI builtins.

def identity_fst() -> FstSpec:
    return FstSpec(1, 1, {(1, b): (1, b) for b in BITS})


def repeater_fst(r: str) -> FstSpec:
    """Single state, emits r on every input bit: T(x) = r^|x|."""
    check_bits(r, "repeater emission")
    return FstSpec(1, 1, {(1, b): (1, r) for b in BITS})


# Textual machine format: header "fst m start", then one line per entry
# "q b -> q' emission" with "-" standing for the empty emission.

def format_fst(T: FstSpec) -> str:
    lines = [f"fst {T.num_states} {T.start}"]
    for q in range(1, T.num_states + 1):
        for b in BITS:
            tgt, e = T.moves[(q, b)]
            lines.append(f"{q} {b} -> {tgt} {e or '-'}")
    return "\n".join(lines) + "\n"


def parse_fst(text: str) -> FstSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty transducer description")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "fst":
        raise ValidationError(f"bad fst header: {lines[0]!r}")
    try:
        m, start = ascii_number(head[1]), ascii_number(head[2])
    except ValueError as exc:
        raise ValidationError(f"bad fst header: {lines[0]!r}") from exc
    moves: dict[tuple[int, str], tuple[int, str]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5 or parts[2] != "->":
            raise ValidationError(f"bad fst line: {ln!r}")
        try:
            q, b, tgt, e = ascii_number(parts[0]), parts[1], ascii_number(parts[3]), parts[4]
        except ValueError as exc:
            raise ValidationError(f"bad fst line: {ln!r}") from exc
        if b not in BITS:
            raise ValidationError(f"bad input bit in line: {ln!r}")
        if (q, b) in moves:
            raise ValidationError(f"duplicate entry for ({q}, {b})")
        moves[(q, b)] = (tgt, "" if e == "-" else e)
    return FstSpec(m, start, moves)
