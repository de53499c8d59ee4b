"""Command-line surface.

Subcommands: generate, profile, ratio, lz, fst-run, pdc-run, encode-fst,
decode-fst, kfs, compose. Exit codes: 0 ok, 1 usage, 2 spec or config
validation failure, 3 a run got stuck.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import depth, lz78, seqgen
from .codec import decode_fst, encode_fst
from .errors import StuckError, ValidationError
from .fscomplexity import kfs_complexity
from .fst import FstSpec, fst_compose, fst_run, parse_fst, format_fst
from .pushdown import compose_pdc_fst, parse_pdc, format_pdc, pdc_run

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_STUCK = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a prefix must not pick a flag
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_bits_arg(args) -> str:
    if getattr(args, "bits", None) is not None:
        bits = args.bits
    elif getattr(args, "input", None) is not None:
        bits = depth.read_text(args.input)
    else:
        raise ValidationError("need --bits or --input")
    bits = "".join(bits.split())
    if bits.strip("01"):
        raise ValidationError("input must be a string over 0/1")
    return bits


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DEPTHLAB_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ValidationError(f"DEPTHLAB_SEED must be an integer, got {env!r}") from exc


def _recipe_from_args(args) -> seqgen.SequenceRecipe:
    if not args.recipe:
        raise ValidationError("need --recipe (a, b, or c) or --input")
    return seqgen.SequenceRecipe(
        kind=args.recipe,
        k=args.k,
        v=args.v,
        seed=_resolve_seed(args),
        growth=args.growth,
        g=args.g,
        stages=args.stages,
        bit_budget=args.bits_budget,
    )


def _sequence_from_args(args) -> str:
    if getattr(args, "input", None):
        return _read_bits_arg(args)
    return _recipe_from_args(args).generate().bits


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    recipe = _recipe_from_args(args)
    stream = recipe.generate()
    out = Path(args.out)
    out.write_text(stream.bits + "\n")
    manifest = {
        "recipe": recipe.fields(),
        "length": len(stream.bits),
        "sha256": stream.sha256(),
        "truncated": stream.truncated,
        "blocks": list(stream.blocks),
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(stream.bits)} bits to {out} (sha256 {stream.sha256()[:16]}...)")
    if stream.truncated:
        print(
            "note: schedule truncated at the bit budget; later stages "
            "would not fit",
            file=sys.stderr,
        )
    return EXIT_OK


def _compressor_name(args, name: str) -> str:
    # A bare half-compressor picks up its parameters from --k/--v/--m.
    if name == "half-compressor":
        return f"half-compressor({args.k},{args.v},{args.m})"
    return name


def _check_tail(tail: float) -> None:
    if not math.isfinite(tail):
        raise ValidationError(f"--tail must be a finite fraction, got {tail}")


def cmd_profile(args) -> int:
    """profile (weak and strong) and ratio (one compressor) share this body."""
    _check_tail(args.tail)
    bits = _sequence_from_args(args)
    names = [args.compressor] if args.command == "ratio" else [args.weak, args.strong]
    comps = [depth.make_compressor(_compressor_name(args, n)) for n in names]
    grid = depth.parse_grid(args.grid)
    table = depth.compute_profile(bits, comps, grid)
    _write_out(args, table.to_csv())
    lo, hi = table.tail_bracket(args.tail)
    value = "ratio" if len(comps) == 1 else "gap/n"
    print(
        f"tail {value} over last {args.tail:.0%} of grid: "
        f"min {lo:.6f}, max {hi:.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_lz(args) -> int:
    bits = _read_bits_arg(args)
    parse = lz78.lz_parse(bits)
    lines = ["index,pointer,bit,cumulative_bits"]
    total = 0
    for i, (ptr, bit) in enumerate(parse.tokens, start=1):
        total += lz78.pointer_width(i) + 1
        lines.append(f"{i},{ptr},{bit},{total}")
    if parse.tail is not None:
        i = len(parse.tokens) + 1
        total += lz78.pointer_width(i)
        lines.append(f"{i},{parse.tail},-,{total}")
    _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fst_run(args) -> int:
    spec = parse_fst(depth.read_text(args.machine))
    result = fst_run(spec, _read_bits_arg(args))
    print(f"output {result.output or '-'}")
    print(f"final_state {result.final_state}")
    return EXIT_OK


def cmd_pdc_run(args) -> int:
    spec = parse_pdc(depth.read_text(args.machine))
    result = pdc_run(spec, _read_bits_arg(args))
    print(f"output {result.output or '-'}")
    print(f"final_state {result.final_state}")
    print(f"final_stack {result.final_stack}")
    return EXIT_OK


def cmd_encode_fst(args) -> int:
    spec = parse_fst(depth.read_text(args.machine))
    print(encode_fst(spec))
    return EXIT_OK


def cmd_decode_fst(args) -> int:
    spec = decode_fst(_read_bits_arg(args))
    if spec is None:
        raise ValidationError("not a machine description")
    sys.stdout.write(format_fst(spec))
    return EXIT_OK


def cmd_kfs(args) -> int:
    result = kfs_complexity(_read_bits_arg(args), args.k)
    record = {
        "k": args.k,
        "value": "inf" if math.isinf(result.value) else int(result.value),
        "witness_description": result.witness.description if result.witness else None,
        "witness_input": result.witness.input_bits if result.witness else None,
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_compose(args) -> int:
    outer = depth.load_machine(args.outer)
    inner = parse_fst(depth.read_text(args.inner))
    if isinstance(outer, FstSpec):
        _write_out(args, format_fst(fst_compose(outer, inner)))
    else:
        _write_out(args, format_pdc(compose_pdc_fst(outer, inner)))
    return EXIT_OK


def _add_sequence_flags(p: _Parser, include_input: bool = True) -> None:
    p.add_argument("--recipe", choices=["a", "b", "c"], help="builtin sequence")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--v", type=int, default=0)
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to $DEPTHLAB_SEED, then 0")
    p.add_argument("--growth", choices=["exponential", "scaled"], default="scaled")
    p.add_argument("--g", type=int, default=4)
    p.add_argument("--stages", type=int, default=None)
    p.add_argument("--bits-budget", type=int, default=None, dest="bits_budget")
    if include_input:
        p.add_argument("--input", help="read the sequence from a bit file")
        p.add_argument("--m", type=int, default=0,
                       help="m of a bare half-compressor name")


def build_parser() -> _Parser:
    parser = _Parser(prog="depthlab")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("generate", help="write a recipe stream and manifest")
    _add_sequence_flags(p, include_input=False)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("profile", help="weak/strong gap over a prefix grid")
    _add_sequence_flags(p)
    p.add_argument("--weak", required=True)
    p.add_argument("--strong", required=True)
    p.add_argument("--grid", required=True, help="a:b:step or a:b:xF")
    p.add_argument("--tail", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("ratio", help="output bits over n for one compressor")
    _add_sequence_flags(p)
    p.add_argument("--compressor", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tail", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("lz", help="LZ78 parse table as CSV")
    p.add_argument("--bits")
    p.add_argument("--input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lz)

    for name, fn in (("fst-run", cmd_fst_run), ("pdc-run", cmd_pdc_run)):
        p = sub.add_parser(name, help=f"run a machine file on input bits")
        p.add_argument("--machine", required=True)
        p.add_argument("--bits")
        p.add_argument("--input")
        p.set_defaults(fn=fn)

    p = sub.add_parser("encode-fst", help="canonical description of a machine")
    p.add_argument("--machine", required=True)
    p.set_defaults(fn=cmd_encode_fst)

    p = sub.add_parser("decode-fst", help="machine from a description")
    p.add_argument("--bits")
    p.add_argument("--input")
    p.set_defaults(fn=cmd_decode_fst)

    p = sub.add_parser("kfs", help="size-bounded machine complexity of bits")
    p.add_argument("--bits")
    p.add_argument("--input")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_kfs)

    p = sub.add_parser("compose", help="outer machine applied after an fst")
    p.add_argument("--outer", required=True, help="fst or pdc file")
    p.add_argument("--inner", required=True, help="fst file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compose)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StuckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STUCK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
