import random
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from depthlab import (  # noqa: E402
    FstSpec,
    FstUniverse,
    PdcSpec,
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
