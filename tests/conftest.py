import math
import random
import sys
from collections import defaultdict, deque
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from depthlab import (  # noqa: E402
    ComplexityResult,
    FstSpec,
    FstUniverse,
    PdcRun,
    PdcSpec,
    RunResult,
    StuckError,
    UnreachableError,
    ValidationError,
    encode_fst,
    fst_run,
    pdc_run,
    repeater_fst,
)
from depthlab.codec import complement  # noqa: E402
from depthlab.fscomplexity import Witness  # noqa: E402
from depthlab.fst import ascii_number, check_bits  # noqa: E402
from depthlab.lz78 import _ROOT, LzParse, pointer_width  # noqa: E402
from depthlab.pushdown import _BELOW, LAMBDA, Z0, MoveKey, Move  # noqa: E402

BITS = ("0", "1")

MAX_EMISSION_DEFAULT = 8  # longest emission random_fst draws


def silent_fst() -> FstSpec:
    return repeater_fst("")


def fst_size(T: FstSpec) -> int:
    """Length of the shortest description of T.

    The canonical description is the unique shortest string that decodes
    to T: m is fixed by the entry count and the start pointer by its
    value, a larger offset n' = n (mod m) has at least as many binary
    digits as the minimal n, and a self-loop written with a dagger chunk
    is longer than the empty chunk.
    """
    return len(encode_fst(T))


def fst_key(T: FstSpec):
    """Hashable value identity, independent of dict insertion order."""
    return T.num_states, T.start, tuple(sorted(T.moves.items()))


def described(*specs: FstSpec) -> list[tuple[str, FstSpec]]:
    """(description, machine) entries, as kfs_over_set takes them."""
    return [(encode_fst(T), T) for T in specs]


def machines(universe: FstUniverse) -> list[FstSpec]:
    return [T for _, T in universe.entries]


def pdc_fields(C: PdcSpec) -> tuple:
    """The five fields a PdcSpec is built from, as oracle_pdc_validate
    takes them."""
    return C.num_states, C.start, C.stack_kind, C.moves, C.lambda_budget


def random_fst(rng: random.Random, max_states: int = 3, max_emit: int = 2) -> FstSpec:
    assert max_emit <= MAX_EMISSION_DEFAULT
    m = rng.randint(1, max_states)
    moves = {}
    for q in range(1, m + 1):
        for b in BITS:
            tgt = rng.randint(1, m)
            e = "".join(rng.choice(BITS) for _ in range(rng.randint(0, max_emit)))
            moves[(q, b)] = (tgt, e)
    return FstSpec(m, rng.randint(1, m), moves)


def random_pdc(
    rng: random.Random,
    kind: str = "binary",
    max_states: int = 3,
    lambda_prob: float = 0.2,
) -> PdcSpec:
    """A valid, total compressor: every (state, top) has either one
    input-free move or both bit moves, and input-free moves only jump to
    strictly higher states so chains stay within the budget."""
    m = rng.randint(1, max_states)
    syms = "01" if kind == "binary" else "0"
    tops = syms + Z0
    moves = {}
    for q in range(1, m + 1):
        for top in tops:
            lam = q < m and top != Z0 and rng.random() < lambda_prob
            if lam:
                tgt = rng.randint(q + 1, m)
                push = rng.choice(["", top, rng.choice(syms) + top])
                moves[(q, LAMBDA, top)] = (tgt, push, "")
                continue
            for b in BITS:
                tgt = rng.randint(1, m)
                if top == Z0:
                    push = rng.choice(
                        [Z0, rng.choice(syms) + Z0, rng.choice(syms) * 2 + Z0]
                    )
                else:
                    push = rng.choice(
                        ["", top, rng.choice(syms) + top, rng.choice(syms) * 2]
                    )
                e = "".join(rng.choice(BITS) for _ in range(rng.randint(0, 2)))
                moves[(q, b, top)] = (tgt, push, e)
    return PdcSpec(m, rng.randint(1, m), kind, moves, m + 1)


def drop_bit_move(rng: random.Random, C: PdcSpec) -> PdcSpec:
    """C with one bit move removed, so runs can stick."""
    drop = rng.choice([key for key in C.moves if key[1] != LAMBDA])
    moves = {key: v for key, v in C.moves.items() if key != drop}
    return PdcSpec(C.num_states, C.start, C.stack_kind, moves, C.lambda_budget)


def chain_pdc(n: int, budget: int) -> PdcSpec:
    """Unary copying compressor behind a chain of n - 1 input-free moves
    from state 1 to state n; valid exactly when budget >= n - 1."""
    moves = {(q, LAMBDA, Z0): (q + 1, Z0, "") for q in range(1, n)}
    moves.update({(n, b, Z0): (n, Z0, b) for b in BITS})
    return PdcSpec(n, 1, "unary", moves, budget)


def chain_pdc_text(n: int, budget: int) -> str:
    """chain_pdc(n, budget) in the textual format, written line by line,
    so an over-budget chain can be written to a file."""
    lines = [f"pdc {n} 1 unary {budget}"]
    lines += [f"{q} - z -> {q + 1} z -" for q in range(1, n)]
    lines += [f"{n} {b} z -> {n} z {b}" for b in BITS]
    return "\n".join(lines) + "\n"


# Characters that are not bits. `int(·, 2)` reads "_", leading whitespace,
# signs and non-ASCII digits such as "\u0661"; it refuses "2" and "a".
NON_BITS = ("_", " ", "\t", "+", "-", "2", "a", "\u0661")


def flag_free_bits(n: int, seed: int) -> str:
    """n seeded random bits with every 9th forced to 0: no aligned 1^9 flag,
    so the half-compressor pushes all of them."""
    rng = random.Random(seed)
    x = bytearray(format(rng.getrandbits(n), f"0{n}b") if n else "", "ascii")
    x[8::9] = b"0" * len(x[8::9])
    return x.decode()


def oracle_decode_fst(bits: str) -> Optional[FstSpec]:
    """Oracle for decode_fst: a pair-by-pair scanner of the description
    code. Inverse of encode_fst on its range; None for anything malformed.

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


def enum_fsts_by_decoding(k: int) -> FstUniverse:
    """Slow oracle for enum_fsts: decode every bit string of length <= k,
    keep the first description of each machine, order by (length, bits)."""
    seen: dict[tuple, tuple[str, FstSpec]] = {}
    for length in range(k + 1):
        for val in range(1 << length):
            desc = format(val, f"0{length}b") if length else ""
            spec = oracle_decode_fst(desc)
            if spec is None:
                continue
            key = fst_key(spec)
            if key not in seen:
                seen[key] = (desc, spec)
    entries = sorted(seen.values(), key=lambda e: (len(e[0]), e[0]))
    return FstUniverse(k, tuple(entries))


def brute_force_min_input(T: FstSpec, x: str, max_len: int):
    """Oracle for min_input_for_output: try every input of length <= max_len
    in order; the first whose output is x, or None."""
    for length in range(max_len + 1):
        for y in product(BITS, repeat=length):
            s = "".join(y)
            if fst_run(T, s).output == x:
                return s
    return None


def oracle_min_input_for_output(T: FstSpec, x: str) -> Optional[tuple[int, str]]:
    """Oracle for min_input_for_output: the search over the move map, a
    per-state set of matched lengths and a deque."""
    n = len(x)
    if n == 0:
        return (0, "")
    moves = T.moves
    seen = defaultdict(set)  # state -> matched lengths reached
    seen[T.start].add(0)
    queue = deque([(T.start, 0, "", None)])
    while queue:
        cell = queue.popleft()
        q, pos, _, _ = cell
        for b in BITS:  # bit order makes the first-found path lex-least
            tgt, e = moves[(q, b)]
            end = pos + len(e)
            if end > n or x[pos:end] != e or end in seen[tgt]:
                continue
            if end == n:
                bits = [b]
                while cell[3] is not None:
                    bits.append(cell[2])
                    cell = cell[3]
                return (len(bits), "".join(reversed(bits)))
            seen[tgt].add(end)
            queue.append((tgt, end, b, cell))
    return None


def oracle_kfs_over_set(
    x: str, entries: Sequence[tuple[str, FstSpec]]
) -> ComplexityResult:
    """Oracle for kfs_over_set and kfs_complexity: every machine of the
    list searched, no class skipped and no bound applied."""
    if not entries:
        raise ValidationError("machine list must be nonempty")
    best: Optional[tuple[int, str, int]] = None
    for idx, (_, T) in enumerate(entries):
        found = oracle_min_input_for_output(T, x)
        if found is None:
            continue
        length, y = found
        if best is None or length < best[0]:
            best = (length, y, idx)
    if best is None:
        return ComplexityResult(math.inf, None)
    length, y, idx = best
    return ComplexityResult(length, Witness(entries[idx][0], y, idx))


def oracle_kfs_lengths(k: int, entries, bits: str, points):
    """Oracle for kfs_lengths: each prefix searched afresh over every
    machine of the list."""
    for n in points:
        value = oracle_kfs_over_set(bits[:n], entries).value
        yield UnreachableError(k, n) if math.isinf(value) else value


def output_bits(comp, x: str) -> int:
    """Output bit count of x under a depth.Compressor; raises the
    StuckError that stops it."""
    (value,) = comp.lengths(x, [len(x)])
    if isinstance(value, StuckError):
        raise value
    return value


def oracle_fst_run(T: FstSpec, x: str, start=None) -> RunResult:
    """Oracle for fst_run: one map lookup per input bit, no block memo."""
    q = T.start if start is None else start
    pieces = []
    for b in x:
        q, e = T.moves[(q, b)]
        pieces.append(e)
    return RunResult("".join(pieces), q)


def oracle_il_check(T: FstSpec, L: int) -> Optional[tuple[str, str]]:
    """Oracle for il_check: the transducer-only breadth-first search.

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
                q2, e = T.moves[(q, b)]
                x2, out2 = x + b, outp + e
                key = (out2, q2)
                if key in seen:
                    return (seen[key], x2)
                seen[key] = x2
                nxt.append((x2, q2, out2))
        frontier = nxt
    return None


def oracle_pdc_il_check(C: PdcSpec, L: int) -> Optional[tuple[str, str]]:
    """Oracle for pdc_il_check: the breadth-first search that extends each
    closed configuration by one bit with the public pdc_run, skipping a
    bit whose run raises StuckError."""
    if L < 1:
        raise ValidationError("L must be >= 1")
    start = pdc_run(C, "")
    seen: dict[tuple[str, int], str] = {("", start.final_state): ""}
    frontier = [("", "", start)]  # (input, output so far, closed configuration)
    for _ in range(L):
        nxt = []
        for x, outp, run in frontier:
            for b in BITS:
                try:
                    step = pdc_run(C, b, state=run.final_state, stack=run.final_stack)
                except StuckError:
                    continue
                x2, out2 = x + b, outp + step.output
                sig = (out2, step.final_state)
                if sig in seen:
                    return (seen[sig], x2)
                seen[sig] = x2
                nxt.append((x2, out2, step))
        frontier = nxt
    return None


def oracle_fst_compose(A: FstSpec, B: FstSpec) -> FstSpec:
    """Oracle for fst_compose: the transducer-only product construction.

    Product states are (state of A after consuming B's emission so far,
    state of B); unreachable products are pruned and states renumbered in
    discovery order.
    """
    start = (A.start, B.start)
    index = {start: 1}
    order = [start]
    moves: dict[tuple[int, str], tuple[int, str]] = {}
    for i, (qa, qb) in enumerate(order, start=1):  # sees what is appended
        for b in BITS:
            tgt, e = B.moves[(qb, b)]
            ra = fst_run(A, e, start=qa)
            pair = (ra.final_state, tgt)
            if pair not in index:
                index[pair] = len(order) + 1
                order.append(pair)
            moves[(i, b)] = (index[pair], ra.output)
    return FstSpec(len(order), 1, moves)


def counter_fst(n: int) -> FstSpec:
    """n states in a cycle, one step per input bit, each bit copied: its
    product with a counter of coprime length reaches every state pair."""
    moves = {(q, b): (q % n + 1, b) for q in range(1, n + 1) for b in BITS}
    return FstSpec(n, 1, moves)


def oracle_closure(C: PdcSpec, q: int, stack: str) -> tuple[int, str]:
    """Oracle for the engine's input-free closure, on a top-first string
    stack that is copied at every move."""
    while (q, LAMBDA, stack[0]) in C.moves:
        tgt, push, _ = C.moves[(q, LAMBDA, stack[0])]
        stack = push + stack[1:]
        q = tgt
    return q, stack


def oracle_pdc_run(C: PdcSpec, x: str, state=None, stack=None) -> PdcRun:
    """Oracle for pdc_run: the string-stack step loop, quadratic in stack
    height, reading C.moves directly."""
    q = C.start if state is None else state
    st = Z0 if stack is None else stack
    out: list[str] = []
    q, st = oracle_closure(C, q, st)
    for i, b in enumerate(x):
        key = (q, b, st[0])
        if key not in C.moves:
            raise StuckError(i, q, st[0], "".join(out))
        tgt, push, e = C.moves[key]
        out.append(e)
        st = push + st[1:]
        q = tgt
        q, st = oracle_closure(C, q, st)
    return PdcRun("".join(out), q, st)


def free_moves(moves) -> dict:
    """The input-free moves of a raw move map, (state, top) -> (target,
    push), as pdc_validate's pass hands them to _lambda_chains."""
    return {(q, top): (tgt, push)
            for (q, inp, top), (tgt, push, _) in moves.items() if inp == LAMBDA}


def chains_by_brute_force(moves, tops):
    """Oracle for _lambda_chains: follow every chain of input-free moves,
    one move at a time, with no memo. Walks start from the nodes that no
    move enters, where every longest chain of an acyclic graph starts, then
    from any node no walk has reached, so a cycle is still found."""
    free = {(q, top): moves[(q, inp, top)] for q, inp, top in moves if inp == LAMBDA}

    def successors(node):
        tgt, push, _ = free[node]
        return [(tgt, push[0])] if push else [(tgt, t) for t in tops]

    entered = {s for node in free for s in successors(node)}
    reached = set()
    most_moves = most_pops = 0
    for root in [node for node in free if node not in entered] + list(free):
        if root in reached:
            continue
        chain, on_chain = [], set()  # nodes whose move the current chain took
        todo = [(root, 0, 0)]  # (node, moves so far, pops so far)
        while todo:
            node, n, p = todo.pop()
            reached.add(node)
            for gone in chain[n:]:
                on_chain.discard(gone)
            del chain[n:]
            if node not in free:
                most_moves, most_pops = max(most_moves, n), max(most_pops, p)
                continue
            if node in on_chain:
                return None
            chain.append(node)
            on_chain.add(node)
            popped = not free[node][1]
            todo.extend((s, n + 1, p + popped) for s in successors(node))
    return most_moves, most_pops


def oracle_pdc_validate(num_states, start, stack_kind, moves, budget) -> list[str]:
    """Oracle for pdc_validate, on the fields of a spec that need not
    build: one check at a time, every emission run through check_bits,
    conflicts found by grouping the inputs of every (state, top), and
    chains measured by chains_by_brute_force."""
    problems = []
    syms = "01" if stack_kind == "binary" else "0"
    tops = (*syms, Z0)
    for key, (tgt, push, _) in moves.items():
        q, inp, top = key
        if not 1 <= q <= num_states:
            problems.append(f"state out of range in {key}")
        if inp not in (LAMBDA, "0", "1"):
            problems.append(f"bad input symbol in {key}")
        if top not in tops:
            problems.append(f"bad stack top in {key}")
        if not 1 <= tgt <= num_states:
            problems.append(f"target state out of range in {key}")
        if top == Z0:
            if not push.endswith(Z0) or Z0 in push[:-1]:
                problems.append(f"bottom marker not preserved in {key}")
            body = push[:-1]
        else:
            body = push
            if Z0 in push:
                problems.append(f"bottom marker pushed mid-stack in {key}")
        if any(c not in syms for c in body):
            problems.append(f"push alphabet violation in {key}")
    for key, (_, _, bits) in moves.items():
        try:
            check_bits(bits, f"emission {key}")
        except ValidationError as exc:
            problems.append(str(exc))
        if key[1] == LAMBDA and bits:
            problems.append(f"input-free move must not emit: {key}")
    by_pair: dict[tuple[int, str], set[str]] = {}
    for q, inp, top in moves:
        by_pair.setdefault((q, top), set()).add(inp)
    for pair, inputs in sorted(by_pair.items()):
        if LAMBDA in inputs and len(inputs) > 1:
            problems.append(f"both input-free and bit moves on {pair}")
    chains = chains_by_brute_force(moves, syms + Z0)
    if chains is None or chains[0] > budget:
        problems.append(f"input-free moves can chain beyond budget {budget}")
    return problems


def oracle_replay(C: PdcSpec, qc: int, known: str, e: str):
    """Run C on e from state qc over the top-first stack `known` + _BELOW
    with oracle_pdc_run: (state, top-first stack left of `known`, output),
    None when the run sticks on a known top, or "underflow" when it sticks
    on _BELOW or ends on _BELOW alone in a state with an input-free move."""
    try:
        r = oracle_pdc_run(C, e, state=qc, stack=known + _BELOW)
    except StuckError as exc:
        return "underflow" if exc.top == _BELOW else None
    free_states = {q for q, inp, _ in C.moves if inp == LAMBDA}
    if r.final_stack == _BELOW and r.final_state in free_states:
        return "underflow"
    return r.final_state, r.final_stack[:-1], r.output


def oracle_compose_pdc_fst(C: PdcSpec, T: FstSpec) -> PdcSpec:
    """Oracle for compose_pdc_fst: every product state (state of C, state
    of T, buffered stack prefix) replays C over its whole buffer plus the
    top, for each top and bit, with no memo and no continuation."""
    syms = C.stack_symbols()
    d = T.max_emission()
    cap = chains_by_brute_force(C.moves, syms + Z0)[1] * (d + 1) + d
    index: dict[tuple[int, int, str], int] = {}
    order: list[tuple[int, int, str]] = []

    def ref(key):
        if key not in index:
            if len(order) >= 200_000:
                raise ValidationError("composition exceeds state ceiling 200000")
            index[key] = len(order) + 1
            order.append(key)
        return index[key]

    moves = {}
    start = ref((C.start, T.start, ""))
    for idx, (qc, qt, buf) in enumerate(order, start=1):
        step = {b: T.moves[(qt, b)] for b in BITS}  # T's (target, emission)
        for a in (Z0, *syms):
            results = {b: oracle_replay(C, qc, buf + a, e) for b, (_, e) in step.items()}
            if "underflow" in results.values():
                if len(buf) >= cap:
                    raise AssertionError("buffer bound violated in composition")
                moves[(idx, LAMBDA, a)] = (ref((qc, qt, buf + a)), "", "")
                continue
            for b, got in results.items():
                if got is None:
                    continue
                qc2, st2, outbits = got
                moves[(idx, b, a)] = (ref((qc2, step[b][0], "")), st2, outbits)
    fields = (len(order), start, C.stack_kind, moves, cap)
    problems = oracle_pdc_validate(*fields)
    if problems:
        raise ValidationError("; ".join(problems))
    return PdcSpec(*fields)


def oracle_parse_pdc(text: str) -> PdcSpec:
    """Oracle for parse_pdc: its earlier line loop, a length and arrow
    test, then a conversion of each number, then a membership test for
    duplicates. Numbers go through ascii_number where that loop called int()."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty compressor description")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "pdc":
        raise ValidationError(f"bad pdc header: {lines[0]!r}")
    try:
        m, start, budget = ascii_number(head[1]), ascii_number(head[2]), ascii_number(head[4])
    except ValueError as exc:
        raise ValidationError(f"bad pdc header: {lines[0]!r}") from exc
    kind = head[3]
    moves: dict[MoveKey, Move] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 7 or parts[3] != "->":
            raise ValidationError(f"bad pdc line: {ln!r}")
        try:
            q, tgt = ascii_number(parts[0]), ascii_number(parts[4])
        except ValueError as exc:
            raise ValidationError(f"bad pdc line: {ln!r}") from exc
        inp, top = (LAMBDA if parts[1] == "-" else parts[1]), parts[2]
        push = "" if parts[5] == "-" else parts[5]
        em = "" if parts[6] == "-" else parts[6]
        key = (q, inp, top)
        if key in moves:
            raise ValidationError(f"duplicate entry for {key}")
        moves[key] = (tgt, push, em)
    return PdcSpec(m, start, kind, moves, budget)


class OracleLzParser:
    """Oracle for lz78.LzParser: a list-of-lists trie walked one character
    at a time, with a running count of the complete tokens' coded bits.

    Feeding x and then y parses exactly as feeding xy.
    """

    def __init__(self) -> None:
        # Trie node k is phrase k, node 0 the empty phrase; the input so far
        # ends inside a known phrase exactly when node is not the root.
        self.children: list[list[Optional[int]]] = [[None, None]]
        self.tokens: list[tuple[int, str]] = []
        self.node = _ROOT
        self.token_bits = 0  # coded length of the complete tokens

    def feed(self, x: str) -> None:
        children, tokens, node = self.children, self.tokens, self.node
        for b in x:
            nxt = children[node][b == "1"]
            if nxt is None:
                children[node][b == "1"] = len(children)
                children.append([None, None])
                tokens.append((node, b))
                self.token_bits += pointer_width(len(tokens)) + 1
                node = _ROOT
            else:
                node = nxt
        self.node = node

    def coded_bits(self) -> int:
        """len(lz_encode(everything fed so far)), tail pointer included."""
        if self.node != _ROOT:
            return self.token_bits + pointer_width(len(self.tokens) + 1)
        return self.token_bits

    def result(self) -> LzParse:
        phrases = [""]  # phrase k is phrase ptr plus its final bit
        for ptr, bit in self.tokens:
            phrases.append(phrases[ptr] + bit)
        tail = self.node if self.node != _ROOT else None
        return LzParse(list(self.tokens), tail, phrases[1:])


def oracle_lz_conditional(y: str, x: str) -> tuple[str, int]:
    """Oracle for lz_conditional, on OracleLzParser: each token written
    one at a time, its pointer in pointer_width(i) bits (none for token
    1), then its bit, then the tail pointer."""
    parser = OracleLzParser()
    parser.feed(x)
    d = len(parser.tokens)
    parser.node = _ROOT
    parser.feed(y)
    parse = parser.result()
    pieces = []
    for i, (ptr, bit) in enumerate(parse.tokens[d:], start=d + 1):
        w = pointer_width(i)
        pieces.append((format(ptr, f"0{w}b") if w else "") + bit)
    if parse.tail is not None:
        pieces.append(format(parse.tail, f"0{pointer_width(len(parse.tokens) + 1)}b"))
    bits = "".join(pieces)
    return bits, len(bits)
