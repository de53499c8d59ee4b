"""Finite-state transducers over the binary alphabet.

A transducer has states 1..m, a start state, and total transition/output
maps on (state, bit). Running one on an input concatenates the per-step
emissions.

`fst_run` reads its input in blocks of FST_BLOCK bits and looks each up
in a memo the spec owns, keyed by (state, block), so a run costs one
lookup per block rather than per bit. A miss runs the block one bit at
a time and memoizes it until the memo holds BLOCK_MEMO_CAP entries; past
that, blocks it lacks keep running one bit at a time. Everything else
here is a pure function over immutable specs, and a memo entry is the
same whichever run writes it, so concurrent use needs no coordination.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .errors import ValidationError

BITS = ("0", "1")

FST_BLOCK = 8  # input bits per memoized block
BLOCK_MEMO_CAP = 1 << 16  # most memoized blocks per spec, FST or PDC


def check_bits(s: str, what: str) -> None:
    if s.strip("01") != "":
        raise ValidationError(f"{what} must be a string over 0/1, got {s!r}")


@dataclass(frozen=True)
class FstSpec:
    """A finite-state transducer: states 1..num_states, total on (state, bit).

    `next` maps (state, bit) -> state; `out` maps (state, bit) -> emitted
    bits (possibly empty). Runs memoize blocks in `_blocks`, so the maps
    must not change after the first run.
    """

    num_states: int
    start: int
    next: Mapping[tuple[int, str], int]
    out: Mapping[tuple[int, str], str]

    def __post_init__(self) -> None:
        m = self.num_states
        if m < 1:
            raise ValidationError("num_states must be >= 1")
        if not 1 <= self.start <= m:
            raise ValidationError(f"start state {self.start} not in 1..{m}")
        keys = {(q, b) for q in range(1, m + 1) for b in BITS}
        if set(self.next) != keys or set(self.out) != keys:
            raise ValidationError("next/out must be total on states x bits")
        for key, tgt in self.next.items():
            if not 1 <= tgt <= m:
                raise ValidationError(f"next{key} -> {tgt} out of range 1..{m}")
        for key, e in self.out.items():
            check_bits(e, f"out{key}")

    def max_emission(self) -> int:
        return max(len(e) for e in self.out.values())

    @cached_property
    def _blocks(self) -> dict[tuple[int, str], tuple[int, str]]:
        """The block memo, filled as runs go: (state, block) -> (state,
        emission)."""
        return {}


@dataclass(frozen=True)
class RunResult:
    output: str
    final_state: int


def fst_run(T: FstSpec, x: str, start: Optional[int] = None) -> RunResult:
    """Run T on x: output is the concatenation of per-step emissions."""
    q = T.start if start is None else start
    if not 1 <= q <= T.num_states:
        raise ValidationError(f"state {q} out of range 1..{T.num_states}")
    blocks = T._blocks
    pieces = []
    i, n = 0, len(x)
    while i < n:
        block = x[i : i + FST_BLOCK]
        move = blocks.get((q, block))
        if move is None:
            q0, emitted = q, []
            for b in block:
                emitted.append(T.out[(q, b)])
                q = T.next[(q, b)]
            move = q, "".join(emitted)
            if len(blocks) < BLOCK_MEMO_CAP:
                blocks[(q0, block)] = move
        q, e = move
        pieces.append(e)
        i += FST_BLOCK
    return RunResult("".join(pieces), q)


def fst_lengths(T: FstSpec, bits: str, points: Sequence[int]) -> Iterator[int]:
    """The output bit count of T on bits[:n] for each n of the ascending
    `points` (all <= len(bits)), resuming from the last point's state."""
    q, total, prev = T.start, 0, 0
    for n in points:
        run = fst_run(T, bits[prev:n], start=q)
        q, total, prev = run.final_state, total + len(run.output), n
        yield total


def il_check(T: FstSpec, L: int) -> Optional[tuple[str, str]]:
    """Bounded information-losslessness check.

    Returns None when x -> (output, final state) is injective over all
    inputs with |x| <= L, else the first colliding pair found in
    breadth-first order.
    """
    if L < 1:
        raise ValidationError("L must be >= 1")
    seen: dict[tuple[str, int], str] = {("", T.start): ""}
    frontier = [("", T.start, "")]
    for _ in range(L):
        nxt = []
        for x, q, outp in frontier:
            for b in BITS:
                x2 = x + b
                out2 = outp + T.out[(q, b)]
                q2 = T.next[(q, b)]
                key = (out2, q2)
                if key in seen:
                    return (seen[key], x2)
                seen[key] = x2
                nxt.append((x2, q2, out2))
        frontier = nxt
    return None


def fst_compose(A: FstSpec, B: FstSpec) -> FstSpec:
    """Machine computing x -> A(B(x)).

    Product states are (state of A after consuming B's emission so far,
    state of B); unreachable products are pruned and states renumbered in
    discovery order.
    """
    start = (A.start, B.start)
    index = {start: 1}
    order = [start]
    next_map: dict[tuple[int, str], int] = {}
    out_map: dict[tuple[int, str], str] = {}
    i = 0
    while i < len(order):
        qa, qb = order[i]
        i += 1
        for b in BITS:
            e = B.out[(qb, b)]
            ra = fst_run(A, e, start=qa)
            pair = (ra.final_state, B.next[(qb, b)])
            if pair not in index:
                index[pair] = len(order) + 1
                order.append(pair)
            next_map[(index[(qa, qb)], b)] = index[pair]
            out_map[(index[(qa, qb)], b)] = ra.output
    return FstSpec(len(order), 1, next_map, out_map)


# Common machines, also exposed as CLI builtins.

def identity_fst() -> FstSpec:
    return FstSpec(1, 1, {(1, "0"): 1, (1, "1"): 1}, {(1, "0"): "0", (1, "1"): "1"})


def repeater_fst(r: str) -> FstSpec:
    """Single state, emits r on every input bit: T(x) = r^|x|."""
    check_bits(r, "repeater emission")
    return FstSpec(1, 1, {(1, "0"): 1, (1, "1"): 1}, {(1, "0"): r, (1, "1"): r})


# Textual machine format: header "fst m start", then one line per entry
# "q b -> q' emission" with "-" standing for the empty emission.

def format_fst(T: FstSpec) -> str:
    lines = [f"fst {T.num_states} {T.start}"]
    for q in range(1, T.num_states + 1):
        for b in BITS:
            e = T.out[(q, b)] or "-"
            lines.append(f"{q} {b} -> {T.next[(q, b)]} {e}")
    return "\n".join(lines) + "\n"


def parse_fst(text: str) -> FstSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty transducer description")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "fst":
        raise ValidationError(f"bad fst header: {lines[0]!r}")
    try:
        m, start = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValidationError(f"bad fst header: {lines[0]!r}") from exc
    next_map: dict[tuple[int, str], int] = {}
    out_map: dict[tuple[int, str], str] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5 or parts[2] != "->":
            raise ValidationError(f"bad fst line: {ln!r}")
        try:
            q, b, tgt, e = int(parts[0]), parts[1], int(parts[3]), parts[4]
        except ValueError as exc:
            raise ValidationError(f"bad fst line: {ln!r}") from exc
        if b not in BITS:
            raise ValidationError(f"bad input bit in line: {ln!r}")
        if (q, b) in next_map:
            raise ValidationError(f"duplicate entry for ({q}, {b})")
        next_map[(q, b)] = tgt
        out_map[(q, b)] = "" if e == "-" else e
    return FstSpec(m, start, next_map, out_map)
