"""Bounded pushdown compressors with binary or unary stacks.

A spec carries one partial move map from (state, input symbol, stack
top) to (target state, push, emission), where the input symbol may be
the empty string for a move that consumes no input. Such moves emit the
empty string, and at most `lambda_budget` of them may run back to back;
a run applies them before every bit and after the last, until none
applies.
A spec is checked against these rules when it is built (`pdc_validate`),
and an invalid one raises ValidationError, so a run over any spec either
reads all of its input or sticks on a bit with no move: it never loses
the bottom marker and never loops on input-free moves. The check's one
pass collects the input-free moves for one topological walk of their
graph, which a cycle leaves short, and the spec keeps the walk's longest
chain and most pops for composition.

At the public boundary (`pdc_run`'s `stack` argument and
`PdcRun.final_stack`) a stack is a top-first string whose last character
is the bottom marker. Inside a run it is a bottom-first `bytearray`, one
byte per symbol (the character's code, so symbols must lie below U+0100),
so a push or pop at the top costs O(1) amortized and a run is linear in
its input whatever the stack height. Each spec compiles its moves once,
on first run, into tables keyed by (state, [bit,] top byte).

Every run, a stack-free one's included, reads its input in blocks of
BLOCK bits, coded by `fst.block_keys` as `fst_run`'s are, and looks each
up once in a memo the spec owns. A popping state, one with a bit move
that pops, as in a matching phase that pops one symbol per bit, keys its
blocks on (state, block, top PDC_WINDOW symbols); any other state keys
them on (state, block, top byte). A hit pops the key symbols the block
replaces, pushes what it adds and emits, so a run costs one lookup per
block rather than per bit. A miss replays the block (`_replay`). One
whose replay sticks or reads below its key, as when an input-free
closure pops, is memoized as no block and runs one bit at a time on the
real stack, so stuck positions are exactly those of a bit-by-bit run.
Past BLOCK_MEMO_CAP entries a spec's memo stops growing, and blocks it
lacks run one bit at a time.

A replay that needs the symbol below its top has, at that point, nothing
left on its stack but the unknown rest. So it stops with a continuation
(state, unread input, output so far) that runs on over the next symbol
down exactly as a replay over both symbols would. Composition relies on
this to replay each (state, top, unread input) once, however deep its
buffer: the product state that pops a symbol resumes its parent's
continuations.

`pdc_lengths` runs a spec over a stream's prefixes in one pass, resuming
from its (state, stack) at every grid point, and reruns only a prefix
that sticks, for the output before the stuck bit.
"""
from __future__ import annotations

from collections import deque
from functools import cache, cached_property
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import StuckError, ValidationError
from .fst import (BITS, BLOCK, BLOCK_MEMO_CAP, FrozenRecord, FstSpec, ascii_number,
                  block_keys, identity_fst, is_bits, parse_fst, read_text)

Z0 = "z"
LAMBDA = ""

MoveKey = tuple[int, str, str]  # (state, input bit or LAMBDA, stack top)
Move = tuple[int, str, str]  # (target state, push string, emission)

# Stack symbols a popping block is keyed on: one pop per bit, as in a
# matching phase, plus the new top that the closure after the block reads.
PDC_WINDOW = BLOCK + 1
COMPOSE_STATE_CEILING = 200_000  # most product states compose_pdc_fst builds
ESCAPE_BITS_CEILING = 10**7  # most bits build_half_compressor's escape codes emit


class PdcSpec(FrozenRecord):
    """A pushdown compressor.

    stack_kind is "binary" or "unary". moves maps (state, input, top) ->
    (state, push string, emission); the push replaces the consumed top, so
    an empty push is a pop, and a move that writes nothing has emission "".
    The map is compiled on the first run, so it must not change after it,
    and each spec memoizes the blocks its runs read in `_blocks`: (state,
    block, key symbols) -> (state, slice of the key symbols popped or None
    for none, bottom-first push of what the block adds over the key
    symbols it keeps, emission), or () for no block; the block is its
    `block_keys` key, and the key symbols are the top byte, or in a
    popping state the bottom-first bytes of the top PDC_WINDOW symbols.
    """

    _fields = ("num_states", "start", "stack_kind", "moves", "lambda_budget")

    def __init__(self, num_states: int, start: int, stack_kind: str,
                 moves: Mapping[MoveKey, Move], lambda_budget: int) -> None:
        vars(self).update(num_states=num_states, start=start, stack_kind=stack_kind,
                          moves=moves, lambda_budget=lambda_budget, _blocks={})
        if num_states < 1:
            raise ValidationError("num_states must be >= 1")
        if not 1 <= start <= num_states:
            raise ValidationError("start state out of range")
        if stack_kind not in ("binary", "unary"):
            raise ValidationError(f"unknown stack kind {stack_kind!r}")
        if lambda_budget < 0:
            raise ValidationError("lambda_budget must be >= 0")
        problems = pdc_validate(self)
        if problems:
            raise ValidationError("; ".join(problems))

    def stack_symbols(self) -> str:
        return "01" if self.stack_kind == "binary" else "0"

    @cached_property
    def _tables(self) -> tuple[dict, dict, frozenset, frozenset, Optional[int]]:
        """The run engine's tables, built on first use in one pass over the
        moves: input-free moves (state, top byte) -> (target, push); bit
        moves (state, bit, top byte) -> (target, push, emission), each
        push reversed to bottom-first bytes; the states with an input-free
        move; the popping states, those with a bit move that pops; and,
        when every move reads and re-pushes the bottom marker, every
        (state, bit) has one and every move emits c bits, c, else None."""
        free: dict[tuple[int, int], tuple[int, bytes]] = {}
        bit: dict[tuple[int, str, int], tuple[int, bytes, str]] = {}
        popping = set()
        kept_z = []  # the emission widths of the moves that re-push z
        for (q, inp, top), (tgt, push, e) in self.moves.items():
            code = push[::-1].encode("latin-1")
            if inp == LAMBDA:
                free[(q, ord(top))] = (tgt, code)
                continue
            bit[(q, inp, ord(top))] = (tgt, code, e)
            if not push:
                popping.add(q)
            elif push == Z0:  # only a move on z may push z
                kept_z.append(len(e))
        total = len(kept_z) == len(self.moves) == 2 * self.num_states
        c = kept_z[0] if total and len(set(kept_z)) == 1 else None
        return free, bit, frozenset(q for q, _ in free), frozenset(popping), c


class PdcRun(NamedTuple):
    output: str
    final_state: int
    final_stack: str  # top first, ends with the bottom marker


def pdc_validate(C: PdcSpec) -> list[str]:
    """All invariant violations, each naming the offending key; [] passes.
    A spec runs this when it is built, so for a built spec it gives [].

    Checks key well-formedness, determinism per (state, top), bottom-marker
    preservation, emissions over 0/1, silence of input-free moves, unary
    stack discipline, and that no chain of input-free moves can exceed the
    budget (a cycle in the move graph counts as unbounded). One pass over
    the moves lists every structural problem, then every emission problem,
    and collects the input-free moves for the move-graph walk, whose
    (most moves, most pops) C keeps as `_chains`.
    """
    problems, late = [], []  # late: emission problems, listed after the others
    syms = C.stack_symbols()
    tops = (*syms, Z0)
    moves, m = C.moves, C.num_states
    free = {}  # input-free moves: (state, top) -> (target, push)
    odd = set()  # (state, top) of moves on a non-bit input
    for key, (tgt, push, bits) in moves.items():
        q, inp, top = key
        if not 1 <= q <= m:
            problems.append(f"state out of range in {key}")
        if inp == LAMBDA:
            free[(q, top)] = (tgt, push)
        elif inp != "0" and inp != "1":
            problems.append(f"bad input symbol in {key}")
            odd.add((q, top))
        if top not in tops:
            problems.append(f"bad stack top in {key}")
        if not 1 <= tgt <= m:
            problems.append(f"target state out of range in {key}")
        if push.lstrip(syms) != (Z0 if top == Z0 else ""):  # some push rule fails
            if top == Z0:
                if not push.endswith(Z0) or Z0 in push[:-1]:
                    problems.append(f"bottom marker not preserved in {key}")
                body = push[:-1]
            else:
                body = push
                if Z0 in push:
                    problems.append(f"bottom marker pushed mid-stack in {key}")
            if body.lstrip(syms):
                problems.append(f"push alphabet violation in {key}")
        if bits:
            if bits.strip("01"):
                late.append(f"emission {key} must be a string over 0/1, got {bits!r}")
            if inp == LAMBDA:
                late.append(f"input-free move must not emit: {key}")
    problems += late
    both = [(q, top) for q, top in free
            if (q, "0", top) in moves or (q, "1", top) in moves or (q, top) in odd]
    problems += [f"both input-free and bit moves on {pair}" for pair in sorted(both)]
    chains = vars(C)["_chains"] = _lambda_chains(free, syms + Z0)
    if chains is None or chains[0] > C.lambda_budget:
        problems.append(
            f"input-free moves can chain beyond budget {C.lambda_budget}"
        )
    return problems


def _lambda_chains(
    free: Mapping[tuple[int, str], tuple[int, str]], tops: str
) -> Optional[tuple[int, int]]:
    """(most moves, most pops) over chains of the input-free moves `free`,
    (state, top) -> (target, push), or None when the move graph has a
    cycle, so chains are unbounded.

    Nodes are (state, top). A push leads to its first pushed symbol; a
    pure pop leaves the next top unknown, so it leads to its target's
    nodes on the symbols of `tops`, listed once per state. Three passes,
    none recursive: list each node's successors and count its parents;
    order the nodes topologically (Kahn), from those no move enters, so a
    cycle and the nodes it reaches are left out of the order; then sum
    each node's (moves, pops) from the end of the order back.
    """
    popped_into: dict[int, list[tuple[int, str]]] = {}  # state -> nodes on a symbol
    symbols = set(tops)  # exact: a mutated top such as "1z" is no symbol
    for node in free:
        if node[1] in symbols:
            popped_into.setdefault(node[0], []).append(node)
    after: dict[tuple[int, str], Sequence] = {}  # node -> its successors
    parents = dict.fromkeys(free, 0)
    for node, (tgt, push) in free.items():
        if push:
            nxt = ((tgt, push[0]),) if (tgt, push[0]) in free else ()
        else:
            nxt = popped_into.get(tgt, ())
        after[node] = nxt
        for s in nxt:
            parents[s] += 1
    order = [node for node, n in parents.items() if not n]
    for node in order:  # grows behind its cursor
        for s in after[node]:
            parents[s] -= 1
            if not parents[s]:
                order.append(s)
    if len(order) < len(free):
        return None
    best: dict[tuple[int, str], tuple[int, int]] = {}
    for node in reversed(order):  # its successors come later in the order
        moves_below = pops_below = 0
        for s in after[node]:
            m, p = best[s]
            if m > moves_below:
                moves_below = m
            if p > pops_below:
                pops_below = p
        best[node] = (1 + moves_below, (not free[node][1]) + pops_below)
    return (max((m for m, _ in best.values()), default=0),
            max((p for _, p in best.values()), default=0))


def _bit_steps(
    C: PdcSpec, x: str, q: int, buf: bytearray, out: list[str]
) -> tuple[Optional[int], int]:
    """Run C on x one bit at a time from state q over the bottom-first
    stack buf, in place, appending emissions to out. Before every bit and
    after the last, input-free moves run until none applies. Returns
    (position, state): the position of the bit that had no move, or None
    when all of x ran, and the state the run ended in."""
    free, bit, _, _, _ = C._tables
    i, n = 0, len(x)
    while True:
        move = free.get((q, buf[-1]))
        while move is not None:
            q, push = move
            del buf[-1]
            buf += push
            move = free.get((q, buf[-1]))
        if i == n:
            return None, q
        move = bit.get((q, x[i], buf[-1]))
        if move is None:
            return i, q
        q, push, e = move
        del buf[-1]
        buf += push
        if e:
            out.append(e)
        i += 1


_BELOW = "?"  # ends a partial stack: the unknown rest, read by no move
_BELOW_BYTE = ord(_BELOW)


class _Resume(NamedTuple):
    """A replay stopped for want of the symbol below its stack."""

    state: int
    rest: str  # the input it has not read
    emitted: str  # what it emitted so far


def _replay(C: PdcSpec, q: int, known: bytes, e: str):
    """Run C on e from state q over the bottom-first stack _BELOW + known.

    Returns (state, bottom-first stack left above _BELOW, output), or None
    when the run sticks on a known symbol or one pushed over it. When the
    outcome could depend on the symbols below `known` (the run sticks on
    _BELOW, which no move reads, or ends on _BELOW alone in a state with
    an input-free move), returns the continuation _Resume(state, unread
    rest of e, output so far). Only _BELOW is left on the stack then, so
    replaying the continuation over the next symbol down goes on exactly
    as a replay over all of them would. A known stack that starts with the
    bottom marker never needs more.
    """
    buf = bytearray((_BELOW_BYTE, *known))
    out: list[str] = []
    pos, q = _bit_steps(C, e, q, buf, out)
    if pos is not None:
        return _Resume(q, e[pos:], "".join(out)) if buf[-1] == _BELOW_BYTE else None
    if len(buf) == 1 and q in C._tables[2]:  # only _BELOW is left
        return _Resume(q, "", "".join(out))
    return q, bytes(buf[1:]), "".join(out)


def _steps(
    C: PdcSpec, x: str, q: int, buf: bytearray, out: list[str]
) -> tuple[Optional[int], int]:
    """`_bit_steps` from a closed configuration, with the same result and
    effects, but one memo lookup per block of BLOCK bits wherever the memo
    has the block, keyed on its `block_keys` key. A miss replays the block
    over its key symbols; the entry's slice is built once rather than per
    hit."""
    popping, blocks = C._tables[3], C._blocks
    for i, block in enumerate(block_keys(x)):
        key = (q, block, bytes(buf[-PDC_WINDOW:]) if q in popping else buf[-1])
        move = blocks.get(key)
        if not move:  # not memoized, or no block
            at = i * BLOCK
            block = x[at : at + BLOCK]
            if move is None and len(blocks) < BLOCK_MEMO_CAP:
                known = buf[-PDC_WINDOW:] if q in popping else buf[-1:]
                got = _replay(C, q, known, block)
                move = ()
                if type(got) is tuple:
                    keep = len(known)  # key symbols the block leaves in place
                    while got[1][:keep] != known[:keep]:
                        keep -= 1
                    popped = slice(keep - len(known), None) if keep < len(known) else None
                    move = (got[0], popped, got[1][keep:], got[2])
                blocks[key] = move
            if not move:
                pos, q = _bit_steps(C, block, q, buf, out)
                if pos is not None:
                    return at + pos, q
                continue
        q, popped, push, e = move
        if popped:
            del buf[popped]
        buf += push
        if e:
            out.append(e)
    return None, q


def pdc_run(
    C: PdcSpec,
    x: str,
    state: Optional[int] = None,
    stack: Optional[str] = None,
) -> PdcRun:
    """Run C on x, optionally from an explicit mid-run configuration
    (`stack` top-first, ending with the bottom marker).

    Input-free moves are applied exhaustively before every bit and after
    the last. A missing bit transition raises StuckError naming the
    position.
    """
    q = C.start if state is None else state
    if not 1 <= q <= C.num_states:
        raise ValidationError(f"state {q} out of range 1..{C.num_states}")
    if stack is None:
        stack = Z0
    elif not stack.endswith(Z0):
        raise ValidationError(f"stack must end with the bottom marker {Z0!r}")
    elif max(stack) > "\xff":
        raise ValidationError(f"stack symbol {max(stack)!r} is at or above U+0100")
    buf = bytearray(stack[::-1], "latin-1")
    out: list[str] = []
    _, q = _bit_steps(C, "", q, buf, out)  # closes the start
    pos, q = _steps(C, x, q, buf, out)
    if pos is not None:
        raise StuckError(pos, q, chr(buf[-1]), "".join(out))
    return PdcRun("".join(out), q, buf[::-1].decode("latin-1"))


def pdc_lengths(
    C: PdcSpec, bits: str, points: Sequence[int]
) -> Iterator[Union[int, StuckError]]:
    """The output bit count of C on bits[:n] for each n of the ascending
    `points` (all <= len(bits)), or the StuckError that stops it, which
    every later point repeats. A total stack-free spec whose every move
    emits c bits yields c*n when bits is all bits: no such run sticks."""
    c = C._tables[4]
    if c is not None and is_bits(bits):
        yield from (c * n for n in points)
        return
    # The engine closes over input-free moves before every bit and after
    # the last, so once the start is closed every segment starts closed,
    # and resuming from the last (state, stack) runs exactly as a fresh
    # run would. The stack stays one bottom-first bytearray from segment
    # to segment. A segment that crosses a multiple of BLOCK first runs up
    # to it, so blocks start at the same stream offsets whatever the grid,
    # and a profile memoizes the blocks of a single run.
    buf, total, prev = bytearray(Z0, "latin-1"), 0, 0
    out: list[str] = []  # one segment's emissions, counted and dropped
    _, q = _bit_steps(C, "", C.start, buf, out)  # closes the start
    for i, n in enumerate(points):
        cut = -(-prev // BLOCK) * BLOCK
        for a, b in ((prev, cut), (cut, n)) if prev < cut < n else ((prev, n),):
            pos, q = _steps(C, bits[a:b], q, buf, out)
            if pos is not None:
                # Every longer prefix sticks at the same bit.
                pos += a
                head = pdc_run(C, bits[:pos]).output
                stuck = StuckError(pos, q, chr(buf[-1]), head)
                yield from [stuck] * (len(points) - i)
                return
        total, prev = total + sum(map(len, out)), n
        out.clear()
        yield total


def pdc_il_check(C: PdcSpec, L: int) -> Optional[tuple[str, str]]:
    """Bounded losslessness: None when x -> (output, final state) is
    injective for all |x| <= L, else the first colliding pair found.

    Inputs that strand the machine are skipped; they identify themselves.
    Each frontier entry is (input, output, closed state, bottom-first
    stack), and extends by one bit with `_bit_steps` on a copy of its
    stack.
    """
    if L < 1:
        raise ValidationError("L must be >= 1")
    buf = bytearray(Z0, "latin-1")
    _, q = _bit_steps(C, "", C.start, buf, [])  # closes the start
    seen: dict[tuple[str, int], str] = {("", q): ""}
    frontier = [("", "", q, buf)]
    out: list[str] = []
    for _ in range(L):
        nxt = []
        for x, outp, q, buf in frontier:
            for b in BITS:
                buf2 = buf[:]
                pos, q2 = _bit_steps(C, b, q, buf2, out)
                if pos is not None:
                    continue
                x2, out2 = x + b, outp + "".join(out)
                out.clear()
                sig = (out2, q2)
                if sig in seen:
                    return (seen[sig], x2)
                seen[sig] = x2
                nxt.append((x2, out2, q2, buf2))
        frontier = nxt
    return None


def stack_free(T: FstSpec) -> PdcSpec:
    """T as a unary-stack compressor whose move on (q, b, z) re-pushes z
    and emits what T's move on (q, b) emits: it never uses its stack."""
    moves = {(q, b, Z0): (tgt, Z0, e) for (q, b), (tgt, e) in T.moves.items()}
    return PdcSpec(T.num_states, T.start, "unary", moves, 0)


def identity_pdc() -> PdcSpec:
    """Unary-stack machine that copies its input and ignores the stack."""
    return stack_free(identity_fst())


def il_check(T: FstSpec, L: int) -> Optional[tuple[str, str]]:
    """`pdc_il_check` of the transducer T, run as `stack_free(T)`."""
    return pdc_il_check(stack_free(T), L)


def compose_pdc_fst(C: PdcSpec, T: FstSpec) -> PdcSpec:
    """A compressor N with N(x) = C(T(x)) for every x.

    Product states are (state of C, state of T, buffered stack prefix).
    Each bit move replays C over T's emission for that bit on the buffered
    region of the stack; when the replay would need symbols below the
    known region, N instead pops one more symbol into its buffer with an
    input-free move. The buffer never needs to exceed (1 + worst pops per
    closure) symbols per emitted bit, so filling terminates. Unary stacks
    stay unary. Raises when the reachable product exceeds
    COMPOSE_STATE_CEILING states.

    A product state that buffers a symbol keeps its parent's replays, per
    bit, queued in build order: finished, stuck, or a `_Resume` that runs on
    over the new top. A state reads T's two moves once, and each (state,
    top, unread input) is replayed once per call: a lookup per top and bit.
    """
    d = T.max_emission()
    syms = C.stack_symbols()
    # Worst pops per replay: one closure before the first bit (only the
    # start state can be unclosed, but unreachable product states are
    # built from arbitrary configurations) plus, per emitted bit, one
    # bit-move pop and one closure.
    cap = C._chains[1] * (d + 1) + d
    index: dict[tuple[int, int, str], int] = {}
    order: list[tuple[int, int, str]] = []
    kept: deque = deque()  # per state to build: replays on 0, 1, or None, None

    def ref(key: tuple[int, int, str], g0=None, g1=None) -> int:
        i = index.get(key)
        if i is None:
            if len(order) >= COMPOSE_STATE_CEILING:
                raise ValidationError(
                    f"composition exceeds state ceiling {COMPOSE_STATE_CEILING}"
                )
            i = index[key] = len(order) + 1
            order.append(key)
            kept.extend((g0, g1))
        return i

    memo: dict[tuple[int, str, str], object] = {}

    def resume(got, a: str):
        """A replay carried on over the next symbol down, a: a finished one
        keeps a below what it leaves, and a continuation runs on over a."""
        if got is None:
            return None
        if type(got) is not _Resume:
            return got[0], got[1] + a, got[2]
        q, rest, emitted = got
        key = (q, a, rest)
        new = memo.get(key, memo)  # the memo itself marks a miss
        if new is memo:
            new = memo[key] = _replay(C, q, a.encode(), rest)
            if new and type(new) is not _Resume:
                new = memo[key] = (new[0], new[1][::-1].decode("latin-1"), new[2])
        if not new or not emitted:
            return new
        if type(new) is _Resume:
            return _Resume(new.state, new.rest, emitted + new.emitted)
        return new[0], new[1], emitted + new[2]

    # A state's row lists its moves in file order: by input, then top (0, 1, z).
    n = len(syms) + 1
    slots = ((n - 1, Z0), *enumerate(syms))  # z first: this order fixes the numbering
    moves: dict[MoveKey, Move] = {}
    start = ref((C.start, T.start, ""))
    for idx, (qc, qt, buf) in enumerate(order, start=1):  # sees what ref() appends
        (qt0, e0), (qt1, e1) = T._rows[qt]  # T's moves on 0 and 1
        r0, r1 = kept.popleft(), kept.popleft()
        if r0 is r1 is None:
            r0, r1 = _Resume(qc, e0, ""), _Resume(qc, e1, "")
        row = [None] * (3 * n)
        for i, a in slots:
            g0, g1 = resume(r0, a), resume(r1, a)
            if type(g0) is _Resume or type(g1) is _Resume:
                if len(buf) >= cap:
                    raise AssertionError("buffer bound violated in composition")
                row[i] = (idx, LAMBDA, a), (ref((qc, qt, buf + a), g0, g1), "", "")
                continue
            if g0 is not None:
                row[n + i] = (idx, "0", a), (ref((g0[0], qt0, "")), g0[1], g0[2])
            if g1 is not None:
                row[2 * n + i] = (idx, "1", a), (ref((g1[0], qt1, "")), g1[1], g1[2])
        moves.update(filter(None, row))
    return PdcSpec(len(order), start, C.stack_kind, moves, cap)


def fst_compose(A: FstSpec, B: FstSpec) -> FstSpec:
    """x -> A(B(x)): `compose_pdc_fst(stack_free(A), B)` read through its
    moves on z. Those on the unary symbol (from empty emissions) are never
    reached, and a stack-free A never underflows, so none is input-free."""
    N = compose_pdc_fst(stack_free(A), B)
    moves = {k[:2]: (tgt, e) for k, (tgt, _, e) in N.moves.items() if k[2] == Z0}
    return FstSpec(N.num_states, N.start, moves)


def check_half_compressor(k: int, v: int, m: int) -> None:
    """Refuse half-compressor parameters, in closed form: k <= 8, m < 0, v
    not a power of k, a machine of over COMPOSE_STATE_CEILING states, or
    escape codes that emit over ESCAPE_BITS_CEILING bits in all. Both
    ceilings are read when called."""
    if k <= 8:
        raise ValidationError("need k > 8")
    if m < 0:
        raise ValidationError("need m >= 0")
    w = k
    while w < v:
        w *= k
    if w != v:
        raise ValidationError("v must be a positive power of k")
    states = m + 3 * k + v + 5
    if states > COMPOSE_STATE_CEILING:
        raise ValidationError(
            f"half-compressor({k},{v},{m}) has {states} states, "
            f"over {COMPOSE_STATE_CEILING}"
        )
    # Two escapes 1^(3m+i) 0 b per matching state i = 1 .. v.
    escape_bits = 2 * v * (3 * m + 2) + v * (v + 1)
    if escape_bits > ESCAPE_BITS_CEILING:
        raise ValidationError(
            f"half-compressor({k},{v},{m}) escape codes emit {escape_bits} bits, "
            f"over {ESCAPE_BITS_CEILING}"
        )


def build_half_compressor(k: int, v: int, m: int = 0) -> PdcSpec:
    """The palindrome-zone compressor (binary stack).

    After skipping an m-bit prefix verbatim, it copies its input while
    pushing it and scanning k-bit groups for an all-ones flag; on the
    flag it pops the k flag bits and then checks the following input
    against the stack in reverse, emitting a single 0 per v matched bits.
    A mismatch emits 1^(3m+i) 0 x and falls into an absorbing copy state
    (always the highest-numbered state).

    Output on R 1^k reverse(R) with flag-free R and m = 0 is
    R 1^k 0^(|R|/v) when v divides |R|. Parameters that
    `check_half_compressor` refuses are refused before any state is listed.
    """
    check_half_compressor(k, v, m)
    names: list[tuple] = []
    names.append(("count", 0))
    names.extend(("count", i) for i in range(1, m + 1))
    names.append(("scan",))
    names.extend(("flag1", i) for i in range(1, k + 1))
    names.extend(("flag0", i) for i in range(1, k + 1))
    names.extend(("pop", i) for i in range(k + 1))
    names.extend(("match", i) for i in range(1, v + 2))
    names.append(("error",))
    idx = {name: i + 1 for i, name in enumerate(names)}
    tops = ("0", "1", Z0)

    moves: dict[MoveKey, Move] = {}

    def add(q: tuple, inp: str, top: str, tgt: tuple, push: str, e: str = "") -> None:
        moves[(idx[q], inp, top)] = (idx[tgt], push, e)

    # Pushing `a` re-pushes the consumed top: the stack is left unchanged.
    for a in tops:
        for i in range(m):
            for b in BITS:
                add(("count", i), b, a, ("count", i + 1), a, b)
        add(("count", m), LAMBDA, a, ("scan",), a)
        for b in BITS:
            fam = ("flag1", 1) if b == "1" else ("flag0", 1)
            add(("scan",), b, a, fam, b + a, b)
        for i in range(1, k):
            for b in BITS:
                add(("flag0", i), b, a, ("flag0", i + 1), b + a, b)
                fam = ("flag1", i + 1) if b == "1" else ("flag0", i + 1)
                add(("flag1", i), b, a, fam, b + a, b)
        add(("flag0", k), LAMBDA, a, ("scan",), a)
        add(("flag1", k), LAMBDA, a, ("pop", 0), a)
        add(("pop", k), LAMBDA, a, ("match", 1), a)
        add(("match", v + 1), LAMBDA, a, ("match", 1), a)
        for b in BITS:
            add(("error",), b, a, ("error",), a, b)
    for i in range(k):  # flag removal pops one pushed bit per step
        for a in ("0", "1"):
            add(("pop", i), LAMBDA, a, ("pop", i + 1), "")
    for i in range(1, v + 1):
        for a in ("0", "1"):
            for b in BITS:
                if b == a:
                    add(("match", i), b, a, ("match", i + 1), "", "0" if i == v else "")
                else:
                    add(("match", i), b, a, ("error",), a, "1" * (3 * m + i) + "0" + b)
        for b in BITS:
            fam = ("flag1", 1) if b == "1" else ("flag0", 1)
            add(("match", i), b, Z0, fam, b + Z0, b)

    return PdcSpec(len(names), idx[("count", 0)], "binary", moves, k + 2)


# Textual format: header "pdc m start kind budget", then lines
# "q b top -> q' push emission" with "-" for an input-free move, an empty
# push, or an empty emission; the bottom marker is written "z".

def format_pdc(C: PdcSpec) -> str:
    lines = [f"pdc {C.num_states} {C.start} {C.stack_kind} {C.lambda_budget}"]
    for (q, inp, top), (tgt, push, e) in sorted(C.moves.items()):
        lines.append(f"{q} {inp or '-'} {top} -> {tgt} {push or '-'} {e or '-'}")
    return "\n".join(lines) + "\n"


def parse_pdc(text: str) -> PdcSpec:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ValidationError("empty compressor description")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "pdc":
        raise ValidationError(f"bad pdc header: {lines[0]!r}")
    try:
        m, start, budget = ascii_number(head[1]), ascii_number(head[2]), ascii_number(head[4])
    except ValueError as exc:
        raise ValidationError(f"bad pdc header: {lines[0]!r}") from exc
    moves: dict[MoveKey, Move] = {}
    number = cache(ascii_number)  # reads each distinct state-number token once
    for ln in lines[1:]:
        try:
            q, inp, top, arrow, tgt, push, e = ln.split()
            if arrow != "->":
                raise ValueError(arrow)
            key = (number(q), "" if inp == "-" else inp, top)
            move = (number(tgt), "" if push == "-" else push, "" if e == "-" else e)
        except ValueError as exc:
            raise ValidationError(f"bad pdc line: {ln!r}") from exc
        if moves.setdefault(key, move) is not move:
            raise ValidationError(f"duplicate entry for {key}")
    return PdcSpec(m, start, head[3], moves, budget)


def load_machine(path: str) -> Union[FstSpec, PdcSpec]:
    """The machine in a file, parsed by its first word: fst or pdc."""
    text = read_text(path)
    head = (text.split(None, 1) or [""])[0]
    if head == "fst":
        return parse_fst(text)
    if head == "pdc":
        return parse_pdc(text)
    raise ValidationError(f"{path}: not a recognized machine format")
