"""Command-line surface.

Subcommands: generate, profile, ratio, lz, fst-run, pdc-run, encode-fst,
decode-fst, kfs, compose. Exit codes: 0 ok, 1 usage, 2 spec or config
validation failure, 3 a run got stuck.

Each command is declared once, in COMMANDS. `main` builds only the parser
of the command that argv names; argv that the command's parser cannot take
whole (no command, an unknown one, a leading option or leftover arguments)
goes to the full parser, so usage and error messages are the same either
way. Each parser is built at most once per process and reused by later
calls of `main`: parsing leaves a parser as it found it.

Only `errors` and `fst` are imported here; each command imports the
engine it runs when it runs, so a process compiles no other engine.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .errors import StuckError, ValidationError
from .fst import FstSpec, ascii_number, fst_run, is_bits, parse_fst, format_fst, read_text

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_STUCK = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a prefix must not pick a flag
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    def _get_values(self, action, arg_strings):
        # argparse before 3.12 drops "--" even from "--bits=--", which
        # left an empty list as the option's value.
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _read_bits_arg(args) -> str:
    if getattr(args, "bits", None) is not None:
        bits = args.bits
    elif getattr(args, "input", None) is not None:
        bits = read_text(args.input)
    else:
        raise ValidationError("need --bits or --input")
    bits = "".join(bits.split())
    if not is_bits(bits):
        raise ValidationError("input must be a string over 0/1")
    return bits


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DEPTHLAB_SEED")
    try:
        return ascii_number(env) if env else 0
    except ValueError as exc:
        raise ValidationError(f"DEPTHLAB_SEED must be an integer, got {env!r}") from exc


def _ascii_option(read):
    """An option's type: ascii_number(text, read), refused as argparse
    refuses read."""
    def option(text: str):
        try:
            return ascii_number(text, read)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {read.__name__} value: {text!r}") from None
    return option


_int_option, _float_option = _ascii_option(int), _ascii_option(float)


def _recipe_from_args(args):
    from .seqgen import SequenceRecipe
    if not args.recipe:
        raise ValidationError("need --recipe (a, b, or c) or --input")
    return SequenceRecipe(
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
    digest = stream.sha256()
    manifest = {
        "recipe": recipe.fields(),
        "length": len(stream.bits),
        "sha256": digest,
        "truncated": stream.truncated,
        "blocks": list(stream.blocks),
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(stream.bits)} bits to {out} (sha256 {digest[:16]}...)")
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
    if not 0 <= tail <= 1:
        raise ValidationError(f"--tail must lie in [0, 1], got {tail}")


def cmd_profile(args) -> int:
    """profile (weak and strong) and ratio (one compressor) share this body."""
    from .depth import compute_profile, make_compressor, parse_grid
    _check_tail(args.tail)
    bits = _sequence_from_args(args)
    names = [args.compressor] if args.command == "ratio" else [args.weak, args.strong]
    comps = [make_compressor(_compressor_name(args, n)) for n in names]
    grid = parse_grid(args.grid)
    table = compute_profile(bits, comps, grid)
    _write_out(args, table.to_csv())
    lo, hi = table.tail_bracket(args.tail)
    value = "ratio" if len(comps) == 1 else "gap/n"
    usable = sum(None not in counts for _, counts, _ in table.rows)
    rows = "grid" if usable == len(table.rows) else f"the {usable} usable rows"
    print(
        f"tail {value} over last {args.tail:.0%} of {rows}: "
        f"min {lo:.6f}, max {hi:.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_lz(args) -> int:
    from .lz78 import LzParser, pointer_width
    bits = _read_bits_arg(args)
    parser = LzParser()
    parser.feed(bits)
    lines = ["index,pointer,bit,cumulative_bits"]
    total = 0
    for i, (ptr, lit) in enumerate(zip(parser.ptrs, parser.lits), start=1):
        total += pointer_width(i) + 1
        lines.append(f"{i},{ptr},{chr(lit)},{total}")
    if parser.node:  # node 0 is the root: the input ends inside a phrase
        i = len(parser.ptrs) + 1
        total += pointer_width(i)
        lines.append(f"{i},{parser.node},-,{total}")
    _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fst_run(args) -> int:
    spec = parse_fst(read_text(args.machine))
    result = fst_run(spec, _read_bits_arg(args))
    print(f"output {result.output or '-'}")
    print(f"final_state {result.final_state}")
    return EXIT_OK


def cmd_pdc_run(args) -> int:
    from .pushdown import parse_pdc, pdc_run
    spec = parse_pdc(read_text(args.machine))
    result = pdc_run(spec, _read_bits_arg(args))
    print(f"output {result.output or '-'}")
    print(f"final_state {result.final_state}")
    print(f"final_stack {result.final_stack}")
    return EXIT_OK


def cmd_encode_fst(args) -> int:
    from .codec import encode_fst
    spec = parse_fst(read_text(args.machine))
    print(encode_fst(spec))
    return EXIT_OK


def cmd_decode_fst(args) -> int:
    from .codec import decode_fst
    spec = decode_fst(_read_bits_arg(args))
    if spec is None:
        raise ValidationError("not a machine description")
    sys.stdout.write(format_fst(spec))
    return EXIT_OK


def cmd_kfs(args) -> int:
    from .fscomplexity import enum_fsts, kfs_complexity
    result = kfs_complexity(_read_bits_arg(args), args.k)
    if result.witness is None and not enum_fsts(args.k).entries:
        raise ValidationError(f"no machines with descriptions <= {args.k} bits")
    record = {
        "k": args.k,
        "value": "inf" if math.isinf(result.value) else int(result.value),
        "witness_description": result.witness.description if result.witness else None,
        "witness_input": result.witness.input_bits if result.witness else None,
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_compose(args) -> int:
    from .pushdown import compose_pdc_fst, format_pdc, fst_compose, load_machine
    outer = load_machine(args.outer)
    inner = parse_fst(read_text(args.inner))
    if isinstance(outer, FstSpec):
        _write_out(args, format_fst(fst_compose(outer, inner)))
    else:
        _write_out(args, format_pdc(compose_pdc_fst(outer, inner)))
    return EXIT_OK


def _add_sequence_flags(p: _Parser, include_input: bool = True) -> None:
    p.add_argument("--recipe", choices=["a", "b", "c"], help="builtin sequence")
    p.add_argument("--k", type=_int_option, default=0)
    p.add_argument("--v", type=_int_option, default=0)
    p.add_argument("--seed", type=_int_option, default=None,
                   help="defaults to $DEPTHLAB_SEED, then 0")
    p.add_argument("--growth", choices=["exponential", "scaled"], default="scaled")
    p.add_argument("--g", type=_int_option, default=4)
    p.add_argument("--stages", type=_int_option, default=None)
    p.add_argument("--bits-budget", type=_int_option, default=None, dest="bits_budget")
    if include_input:
        p.add_argument("--input", help="read the sequence from a bit file")
        p.add_argument("--m", type=_int_option, default=0,
                       help="m of a bare half-compressor name")


def _args_generate(p: _Parser) -> None:
    _add_sequence_flags(p, include_input=False)
    p.add_argument("--out", required=True)


def _args_profile(p: _Parser) -> None:
    _add_sequence_flags(p)
    p.add_argument("--weak", required=True)
    p.add_argument("--strong", required=True)
    p.add_argument("--grid", required=True, help="a:b:step or a:b:xF")
    p.add_argument("--tail", type=_float_option, default=0.5)
    p.add_argument("--out")


def _args_ratio(p: _Parser) -> None:
    _add_sequence_flags(p)
    p.add_argument("--compressor", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tail", type=_float_option, default=0.5)
    p.add_argument("--out")


def _args_bits(p: _Parser) -> None:
    p.add_argument("--bits")
    p.add_argument("--input")


def _args_lz(p: _Parser) -> None:
    _args_bits(p)
    p.add_argument("--out")


def _args_machine_run(p: _Parser) -> None:
    p.add_argument("--machine", required=True)
    _args_bits(p)


def _args_encode_fst(p: _Parser) -> None:
    p.add_argument("--machine", required=True)


def _args_kfs(p: _Parser) -> None:
    _args_bits(p)
    p.add_argument("--k", type=_int_option, required=True)


def _args_compose(p: _Parser) -> None:
    p.add_argument("--outer", required=True, help="fst or pdc file")
    p.add_argument("--inner", required=True, help="fst file")
    p.add_argument("--out")


# name -> (handler, help line, a function that adds the command's arguments)
COMMANDS = {
    "generate": (cmd_generate, "write a recipe stream and manifest", _args_generate),
    "profile": (cmd_profile, "weak/strong gap over a prefix grid", _args_profile),
    "ratio": (cmd_profile, "output bits over n for one compressor", _args_ratio),
    "lz": (cmd_lz, "LZ78 parse table as CSV", _args_lz),
    "fst-run": (cmd_fst_run, "run a machine file on input bits", _args_machine_run),
    "pdc-run": (cmd_pdc_run, "run a machine file on input bits", _args_machine_run),
    "encode-fst": (
        cmd_encode_fst, "canonical description of a machine", _args_encode_fst
    ),
    "decode-fst": (cmd_decode_fst, "machine from a description", _args_bits),
    "kfs": (cmd_kfs, "size-bounded machine complexity of bits", _args_kfs),
    "compose": (cmd_compose, "outer machine applied after an fst", _args_compose),
}


@cache
def build_parser() -> _Parser:
    """The full parser: every command as a subparser."""
    parser = _Parser(prog="depthlab")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (fn, help_line, add_args) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(fn=fn)
    return parser


@cache
def _command_parser(name: str) -> _Parser:
    """One command's parser, alike in prog, arguments and help to its
    subparser in build_parser()."""
    fn, _, add_args = COMMANDS[name]
    p = _Parser(prog=f"depthlab {name}")
    add_args(p)
    p.set_defaults(fn=fn, command=name)
    return p


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The Namespace that build_parser().parse_args(argv) gives. When argv
    names a command and its parser takes every argument after the name,
    only that parser is built; in every other case the full parser parses,
    so its usage lines and error messages stay the same."""
    if argv and argv[0] in COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _glue_tail(argv: list[str]) -> list[str]:
    """argv, edited in place: each `--tail X` of profile or ratio before any
    `--` becomes `--tail=X` when X reads as a float, so that a value such
    as -inf or -1e-3 reaches _check_tail rather than reading as an option."""
    end = argv.index("--") if "--" in argv else len(argv)
    for i in reversed(range(1, end - 1)):
        if argv[0] in ("profile", "ratio") and argv[i] == "--tail":
            try:
                float(argv[i + 1])
            except ValueError:
                continue
            argv[i : i + 2] = [f"--tail={argv[i + 1]}"]
    return argv


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(_glue_tail(sys.argv[1:] if argv is None else list(argv)))
    if not getattr(args, "fn", None):
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at shutdown
        return code
    except BrokenPipeError:  # stdout was closed: stop quietly, as a filter does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
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
