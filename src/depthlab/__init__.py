"""depthlab: automata-based compression depth at desk scale.

Transducer and pushdown-compressor semantics, a binary machine codec,
size-bounded machine complexity, bit-exact LZ78, deterministic sequence
generators, and depth-profile measurement.

Importing the package loads none of its modules: each exported name, and
each module, is imported on first use (PEP 562), so a process compiles
only the engines it runs.
"""
from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "codec": ("dagger", "decode_fst", "diamond", "double_bits", "encode_fst", "nat_bin"),
    "depth": ("Compressor", "DepthProfile", "compute_profile", "make_compressor",
              "parse_grid"),
    "errors": ("StuckError", "UnreachableError", "ValidationError"),
    "fscomplexity": ("ComplexityResult", "FstUniverse", "INFINITE", "enum_fsts",
                     "kfs_complexity", "kfs_over_set", "min_input_for_output"),
    "fst": ("FstSpec", "RunResult", "format_fst", "fst_run", "identity_fst", "parse_fst",
            "repeater_fst"),
    "lz78": ("LzParse", "check_parse", "lz_conditional", "lz_decode", "lz_encode",
             "lz_parse", "repeat_bound"),
    "pushdown": ("PdcRun", "PdcSpec", "build_half_compressor", "compose_pdc_fst",
                 "format_pdc", "fst_compose", "identity_pdc", "il_check", "parse_pdc",
                 "pdc_il_check", "pdc_run", "pdc_validate", "stack_free"),
    "seqgen": ("Certificate", "GeneratedStream", "IntervalPartition", "SequenceRecipe",
               "fs_random_string", "gen_recipe_a", "gen_recipe_b", "gen_recipe_c",
               "intervals", "random_bits"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here as well
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
