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
    fst_run,
    pdc_validate,
)
from depthlab.fst import MAX_EMISSION_DEFAULT  # noqa: E402
from depthlab.pushdown import LAMBDA, Z0  # noqa: E402

BITS = ("0", "1")


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
    spec = PdcSpec(m, rng.randint(1, m), kind, trans, emit, m + 1)
    assert pdc_validate(spec) == [], pdc_validate(spec)
    return spec


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
            key = spec.canonical_key()
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
    steps = 0
    while (q, LAMBDA, stack[0]) in C.trans:
        tgt, push = C.trans[(q, LAMBDA, stack[0])]
        stack = push + stack[1:]
        q = tgt
        steps += 1
        if steps > C.lambda_budget:
            raise ValidationError(
                "input-free moves exceeded the budget at run time; "
                "run pdc_validate on this machine"
            )
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
