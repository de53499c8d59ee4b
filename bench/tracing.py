"""Spans around calls into depthlab's modules, for the traced run only.

``Tracer.install`` replaces public functions (and a few methods) with
wrappers, in every ``depthlab`` module namespace that holds them, so any
caller that looks the name up at call time -- inside depthlab or in this
benchmark -- opens a span. Nothing in ``src/`` changes, and ``uninstall``
puts the originals back. A target the program no longer has is skipped
and listed in ``missing``, so a later refactor of the program still runs
here; the metrics built on it then read 0.

A span records its name, start, end, parent span and operation id. Self
time is the span's duration minus the time its child calls took. Spans
stay in memory and are written out once, at the end of the run.
``codec.decode_fst`` runs 32,767 times per kfs query, so it is *counted*
instead (calls, seconds, machines returned), and its time is still taken
out of its caller's self time.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, namedtuple

LAYERS = ("cli", "depth", "pushdown", "fst", "lz78", "codec", "fscomplexity", "seqgen")
SETUP = "setup"  # operation id of spans opened during set-up


def _bits(i):
    return lambda args, result: {"bits": len(args[i])}


def _stack(args, result):
    # final_stack ends with the bottom marker, which is not a pushed symbol
    return {"bits": len(args[1]), "stack": len(result.final_stack) - 1}


def _stream_bits(args, result):
    return {"bits": len(result if isinstance(result, str) else result.bits)}


# (module, attribute, info from (args, result)); "Class.method" patches a method.
TARGETS = (
    ("cli", "main", None),
    ("depth", "make_compressor", None),
    ("depth", "parse_grid", None),
    ("depth", "compute_profile", None),
    ("depth", "FstCompressor.output_bits", _bits(1)),
    ("depth", "PdcCompressor.output_bits", _bits(1)),
    ("depth", "LzCompressor.output_bits", _bits(1)),
    ("depth", "KfsCompressor.output_bits", _bits(1)),
    ("pushdown", "pdc_run", _stack),
    ("pushdown", "compose_pdc_fst", lambda a, r: {"states": r.num_states}),
    ("pushdown", "parse_pdc", None),
    ("pushdown", "format_pdc", None),
    ("pushdown", "pdc_validate", None),
    ("pushdown", "build_half_compressor", None),
    ("pushdown", "identity_pdc", None),
    ("fst", "fst_run", _bits(1)),
    ("fst", "parse_fst", None),
    ("fst", "format_fst", None),
    ("fst", "fst_compose", None),
    ("fst", "identity_fst", None),
    ("lz78", "lz_encode", _bits(0)),
    ("lz78", "lz_parse", None),
    ("lz78", "lz_decode", None),
    ("codec", "encode_fst", None),
    ("fscomplexity", "enum_fsts", lambda a, r: {"size": len(r)}),
    ("fscomplexity", "min_input_for_output", None),
    ("fscomplexity", "kfs_over_set", None),
    ("fscomplexity", "kfs_complexity", None),
    ("seqgen", "SequenceRecipe.generate", _stream_bits),
    ("seqgen", "gen_recipe_a", _stream_bits),
    ("seqgen", "gen_recipe_b", _stream_bits),
    ("seqgen", "random_bits", _stream_bits),
)
COUNTED = (("codec", "decode_fst"),)

Span = namedtuple("Span", "name start end parent op self_s info")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counted: dict[str, list] = {}  # name -> [calls, seconds, non-None results]
        self.op = SETUP
        self._open: list[list] = []  # [span index, seconds in child calls]
        self._patches: list[tuple] = []
        self.missing: set[str] = set()

    def _span(self, name, fn, info):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._open[-1][0] if tracer._open else None
            frame = [sid, 0.0]
            tracer._open.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                extra = None
                if info and result is not None:
                    try:
                        extra = info(args, result)
                    except (AttributeError, TypeError, IndexError):
                        pass  # the program changed shape; the metric reads 0
                tracer.spans[sid] = Span(name, start, end, parent, tracer.op,
                                         end - start - frame[1], extra)

        return wrapper

    def _count(self, name, fn):
        tracer = self
        stats = self.counted.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                took = time.perf_counter() - start
                stats[0] += 1
                stats[1] += took
                stats[2] += result is not None
                if tracer._open:
                    tracer._open[-1][1] += took

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "depthlab" or n.startswith("depthlab.")]
        targets = [(m, a, info, False) for m, a, info in TARGETS]
        targets += [(m, a, None, True) for m, a in COUNTED]
        for mod_name, attr, info, counted in targets:
            name = f"{mod_name}.{attr}"
            owner = sys.modules.get(f"depthlab.{mod_name}")
            *cls_name, key = attr.split(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name[0], None)
            orig = vars(owner).get(key) if owner is not None else None
            if orig is None:
                self.missing.add(name)
                continue
            if cls_name:
                self._patch(owner, key, orig, self._span(name, orig, info))
                continue
            wrapper = self._count(name, orig) if counted else self._span(name, orig, info)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "self_s": s.self_s, "info": s.info}) + "\n")
            for name, (calls, secs, hits) in self.counted.items():
                fh.write(json.dumps({"counted": name, "calls": calls,
                                     "seconds": secs, "results": hits}) + "\n")


def _rate(work, seconds):
    return work / seconds if seconds else 0.0


def layer_metrics(tracer: Tracer, requests: int, stream_bits: int) -> dict:
    """Per-layer metrics: per traced request, except seqgen (per set-up)."""
    req = [s for s in tracer.spans if s.op != SETUP]
    setup = [s for s in tracer.spans if s.op == SETUP]
    per = 1.0 / requests

    def named(name):
        return [s for s in req if s.name == name]

    def total(spans, key=None):
        if key:
            return sum(s.info[key] for s in spans if s.info)
        return sum(s.end - s.start for s in spans)

    self_s = Counter()
    for s in req:
        self_s[s.name.split(".")[0]] += s.self_s
    decode_calls, decode_s, decode_hits = tracer.counted.get("codec.decode_fst", (0, 0.0, 0))
    self_s["codec"] += decode_s

    measure = [s for s in req if s.name.endswith(".output_bits")]
    prefix_bits = total(measure, "bits") * per
    compressors = len(named("depth.make_compressor")) * per
    runs, compose = named("pushdown.pdc_run"), named("pushdown.compose_pdc_fst")
    encodes, fst_runs = named("lz78.lz_encode"), named("fst.fst_run")
    enums, bfs = named("fscomplexity.enum_fsts"), named("fscomplexity.min_input_for_output")
    outer_gen = [s for s in setup if s.name.startswith("seqgen.")
                 and (s.parent is None or not tracer.spans[s.parent].name.startswith("seqgen."))]

    m = {f"{layer}.self_s": self_s[layer] * per for layer in LAYERS if layer != "seqgen"}
    m.update({
        "depth.measure_calls": len(measure) * per,
        "depth.prefix_bits": prefix_bits,
        "depth.rework_ratio": (prefix_bits / (stream_bits * compressors)
                               if stream_bits and compressors else 0.0),
        "pushdown.run_calls": len(runs) * per,
        "pushdown.run_bits": total(runs, "bits") * per,
        "pushdown.run_s": total(runs) * per,
        "pushdown.run_bits_per_s": _rate(total(runs, "bits"), total(runs)),
        "pushdown.max_final_stack": max((s.info["stack"] for s in runs if s.info), default=0),
        "pushdown.compose_s": total(compose) * per,
        "pushdown.compose_states": total(compose, "states") * per,
        "pushdown.compose_states_per_s": _rate(total(compose, "states"), total(compose)),
        "pushdown.parse_s": total(named("pushdown.parse_pdc")) * per,
        "lz78.encode_calls": len(encodes) * per,
        "lz78.encode_bits": total(encodes, "bits") * per,
        "lz78.encode_s": total(encodes) * per,
        "lz78.encode_bits_per_s": _rate(total(encodes, "bits"), total(encodes)),
        "fst.run_calls": len(fst_runs) * per,
        "fst.run_s": total(fst_runs) * per,
        "fst.run_bits_per_s": _rate(total(fst_runs, "bits"), total(fst_runs)),
        "codec.decode_calls": decode_calls * per,
        "codec.decode_s": decode_s * per,
        "codec.decode_hit_ratio": decode_hits / decode_calls if decode_calls else 0.0,
        "fscomplexity.enum_calls": len(enums) * per,
        "fscomplexity.enum_s": total(enums) * per,
        "fscomplexity.universe_size": max((s.info["size"] for s in enums if s.info), default=0),
        "fscomplexity.bfs_calls": len(bfs) * per,
        "fscomplexity.bfs_s": total(bfs) * per,
        "seqgen.busy_s": sum(s.self_s for s in setup if s.name.startswith("seqgen.")),
        "seqgen.bits_out": total(outer_gen, "bits"),
        "trace.spans": len(req) * per,
    })
    return m
