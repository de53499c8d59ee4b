import random
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from depthlab import (  # noqa: E402
    FstSpec,
    FstUniverse,
    PdcRun,
    PdcSpec,
    RunResult,
    StuckError,
    ValidationError,
    decode_fst,
    encode_fst,
    fst_run,
    repeater_fst,
)
from depthlab.fst import check_bits  # noqa: E402
from depthlab.pushdown import _BELOW, LAMBDA, Z0  # noqa: E402

BITS = ("0", "1")

MAX_EMISSION_DEFAULT = 8  # longest emission random_fst draws


def silent_fst() -> FstSpec:
    return repeater_fst("")


def fst_key(T: FstSpec):
    """Hashable value identity, independent of dict insertion order."""
    return (
        T.num_states,
        T.start,
        tuple(sorted(T.next.items())),
        tuple(sorted(T.out.items())),
    )


def described(*specs: FstSpec) -> list[tuple[str, FstSpec]]:
    """(description, machine) entries, as kfs_over_set takes them."""
    return [(encode_fst(T), T) for T in specs]


def machines(universe: FstUniverse) -> list[FstSpec]:
    return [T for _, T in universe.entries]


def pdc_fields(C: PdcSpec) -> tuple:
    """The six fields a PdcSpec is built from, as oracle_pdc_validate
    takes them."""
    return C.num_states, C.start, C.stack_kind, C.trans, C.emit, C.lambda_budget


def random_fst(rng: random.Random, max_states: int = 3, max_emit: int = 2) -> FstSpec:
    assert max_emit <= MAX_EMISSION_DEFAULT
    m = rng.randint(1, max_states)
    next_map, out_map = {}, {}
    for q in range(1, m + 1):
        for b in BITS:
            next_map[(q, b)] = rng.randint(1, m)
            out_map[(q, b)] = "".join(
                rng.choice(BITS) for _ in range(rng.randint(0, max_emit))
            )
    return FstSpec(m, rng.randint(1, m), next_map, out_map)


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
    trans, emit = {}, {}
    for q in range(1, m + 1):
        for top in tops:
            lam = q < m and top != Z0 and rng.random() < lambda_prob
            if lam:
                tgt = rng.randint(q + 1, m)
                push = rng.choice(["", top, rng.choice(syms) + top])
                trans[(q, LAMBDA, top)] = (tgt, push)
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
                trans[(q, b, top)] = (tgt, push)
                e = "".join(rng.choice(BITS) for _ in range(rng.randint(0, 2)))
                if e:
                    emit[(q, b, top)] = e
    return PdcSpec(m, rng.randint(1, m), kind, trans, emit, m + 1)


def drop_bit_move(rng: random.Random, C: PdcSpec) -> PdcSpec:
    """C with one bit move removed, so runs can stick."""
    drop = rng.choice([key for key in C.trans if key[1] != LAMBDA])
    trans = {key: v for key, v in C.trans.items() if key != drop}
    emit = {key: v for key, v in C.emit.items() if key != drop}
    return PdcSpec(C.num_states, C.start, C.stack_kind, trans, emit, C.lambda_budget)


def chain_pdc(n: int, budget: int) -> PdcSpec:
    """Unary copying compressor behind a chain of n - 1 input-free moves
    from state 1 to state n; valid exactly when budget >= n - 1."""
    trans = {(q, LAMBDA, Z0): (q + 1, Z0) for q in range(1, n)}
    trans.update({(n, b, Z0): (n, Z0) for b in BITS})
    emit = {(n, b, Z0): b for b in BITS}
    return PdcSpec(n, 1, "unary", trans, emit, budget)


def chain_pdc_text(n: int, budget: int) -> str:
    """chain_pdc(n, budget) in the textual format, written line by line,
    so an over-budget chain can be written to a file."""
    lines = [f"pdc {n} 1 unary {budget}"]
    lines += [f"{q} - z -> {q + 1} z -" for q in range(1, n)]
    lines += [f"{n} {b} z -> {n} z {b}" for b in BITS]
    return "\n".join(lines) + "\n"


def flag_free_bits(n: int, seed: int) -> str:
    """n seeded random bits with every 9th forced to 0: no aligned 1^9 flag,
    so the half-compressor pushes all of them."""
    rng = random.Random(seed)
    x = bytearray(format(rng.getrandbits(n), f"0{n}b"), "ascii")
    x[8::9] = b"0" * len(x[8::9])
    return x.decode()


def enum_fsts_by_decoding(k: int) -> FstUniverse:
    """Slow oracle for enum_fsts: decode every bit string of length <= k,
    keep the first description of each machine, order by (length, bits)."""
    seen: dict[tuple, tuple[str, FstSpec]] = {}
    for length in range(k + 1):
        for val in range(1 << length):
            desc = format(val, f"0{length}b") if length else ""
            spec = decode_fst(desc)
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
        pieces.append(T.out[(q, b)])
        q = T.next[(q, b)]
    return RunResult("".join(pieces), q)


def oracle_closure(C: PdcSpec, q: int, stack: str) -> tuple[int, str]:
    """Oracle for the engine's input-free closure, on a top-first string
    stack that is copied at every move."""
    while (q, LAMBDA, stack[0]) in C.trans:
        tgt, push = C.trans[(q, LAMBDA, stack[0])]
        stack = push + stack[1:]
        q = tgt
    return q, stack


def oracle_pdc_run(C: PdcSpec, x: str, state=None, stack=None) -> PdcRun:
    """Oracle for pdc_run: the string-stack step loop, quadratic in stack
    height, reading C.trans and C.emit directly."""
    q = C.start if state is None else state
    st = Z0 if stack is None else stack
    out: list[str] = []
    q, st = oracle_closure(C, q, st)
    for i, b in enumerate(x):
        key = (q, b, st[0])
        if key not in C.trans:
            raise StuckError(i, q, st[0], "".join(out))
        tgt, push = C.trans[key]
        out.append(C.emit.get(key, ""))
        st = push + st[1:]
        q = tgt
        q, st = oracle_closure(C, q, st)
    return PdcRun("".join(out), q, st)


def chains_by_brute_force(trans, tops):
    """Oracle for _lambda_chains: follow every chain of input-free moves,
    one move at a time, with no memo. Walks start from the nodes that no
    move enters, where every longest chain of an acyclic graph starts, then
    from any node no walk has reached, so a cycle is still found."""
    moves = {(q, top): trans[(q, inp, top)] for q, inp, top in trans if inp == LAMBDA}

    def successors(node):
        tgt, push = moves[node]
        return [(tgt, push[0])] if push else [(tgt, t) for t in tops]

    entered = {s for node in moves for s in successors(node)}
    reached = set()
    most_moves = most_pops = 0
    for root in [node for node in moves if node not in entered] + list(moves):
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
            if node not in moves:
                most_moves, most_pops = max(most_moves, n), max(most_pops, p)
                continue
            if node in on_chain:
                return None
            chain.append(node)
            on_chain.add(node)
            popped = not moves[node][1]
            todo.extend((s, n + 1, p + popped) for s in successors(node))
    return most_moves, most_pops


def oracle_pdc_validate(num_states, start, stack_kind, trans, emit, budget) -> list[str]:
    """Oracle for pdc_validate, on the fields of a spec that need not
    build: one check at a time, every emission run through check_bits,
    conflicts found by grouping the inputs of every (state, top), and
    chains measured by chains_by_brute_force."""
    problems = []
    syms = "01" if stack_kind == "binary" else "0"
    tops = (*syms, Z0)
    for key, (tgt, push) in trans.items():
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
    for key, bits in emit.items():
        if key not in trans:
            problems.append(f"emission on undefined transition {key}")
        try:
            check_bits(bits, f"emission {key}")
        except ValidationError as exc:
            problems.append(str(exc))
        if key[1] == LAMBDA and bits:
            problems.append(f"input-free move must not emit: {key}")
    by_pair: dict[tuple[int, str], set[str]] = {}
    for q, inp, top in trans:
        by_pair.setdefault((q, top), set()).add(inp)
    for pair, inputs in sorted(by_pair.items()):
        if LAMBDA in inputs and len(inputs) > 1:
            problems.append(f"both input-free and bit moves on {pair}")
    chains = chains_by_brute_force(trans, syms + Z0)
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
    free_states = {q for q, inp, _ in C.trans if inp == LAMBDA}
    if r.final_stack == _BELOW and r.final_state in free_states:
        return "underflow"
    return r.final_state, r.final_stack[:-1], r.output


def oracle_compose_pdc_fst(C: PdcSpec, T: FstSpec, state_ceiling: int = 200_000) -> PdcSpec:
    """Oracle for compose_pdc_fst: every product state (state of C, state
    of T, buffered stack prefix) replays C over its whole buffer plus the
    top, for each top and bit, with no memo and no continuation."""
    syms = C.stack_symbols()
    d = T.max_emission()
    cap = chains_by_brute_force(C.trans, syms + Z0)[1] * (d + 1) + d
    index: dict[tuple[int, int, str], int] = {}
    order: list[tuple[int, int, str]] = []

    def ref(key):
        if key not in index:
            if len(order) >= state_ceiling:
                raise ValidationError(
                    f"composition exceeds state ceiling {state_ceiling}"
                )
            index[key] = len(order) + 1
            order.append(key)
        return index[key]

    trans, emit = {}, {}
    start = ref((C.start, T.start, ""))
    for idx, (qc, qt, buf) in enumerate(order, start=1):
        moves = {b: (T.out[(qt, b)], T.next[(qt, b)]) for b in BITS}
        for a in (Z0, *syms):
            results = {b: oracle_replay(C, qc, buf + a, e) for b, (e, _) in moves.items()}
            if "underflow" in results.values():
                if len(buf) >= cap:
                    raise AssertionError("buffer bound violated in composition")
                trans[(idx, LAMBDA, a)] = (ref((qc, qt, buf + a)), "")
                continue
            for b, got in results.items():
                if got is None:
                    continue
                qc2, st2, outbits = got
                trans[(idx, b, a)] = (ref((qc2, moves[b][1], "")), st2)
                if outbits:
                    emit[(idx, b, a)] = outbits
    fields = (len(order), start, C.stack_kind, trans, emit, cap)
    problems = oracle_pdc_validate(*fields)
    if problems:
        raise ValidationError("; ".join(problems))
    return PdcSpec(*fields)
