"""depthlab: automata-based compression depth at desk scale.

Transducer and pushdown-compressor semantics, a binary machine codec,
size-bounded machine complexity, bit-exact LZ78, deterministic sequence
generators, and depth-profile measurement.
"""

from .codec import (
    dagger,
    decode_fst,
    diamond,
    double_bits,
    encode_fst,
    nat_bin,
)
from .depth import (
    Compressor,
    DepthProfile,
    compute_profile,
    make_compressor,
    parse_grid,
)
from .errors import StuckError, UnreachableError, ValidationError
from .fscomplexity import (
    ComplexityResult,
    FstUniverse,
    INFINITE,
    enum_fsts,
    kfs_complexity,
    kfs_over_set,
    min_input_for_output,
)
from .fst import (
    FstSpec,
    RunResult,
    format_fst,
    fst_run,
    identity_fst,
    parse_fst,
    repeater_fst,
)
from .lz78 import (
    LzParse,
    check_parse,
    lz_conditional,
    lz_decode,
    lz_encode,
    lz_parse,
    repeat_bound,
)
from .pushdown import (
    PdcRun,
    PdcSpec,
    build_half_compressor,
    compose_pdc_fst,
    format_pdc,
    fst_compose,
    identity_pdc,
    il_check,
    parse_pdc,
    pdc_il_check,
    pdc_run,
    pdc_validate,
    stack_free,
)
from .seqgen import (
    Certificate,
    GeneratedStream,
    IntervalPartition,
    SequenceRecipe,
    fs_random_string,
    gen_recipe_a,
    gen_recipe_b,
    gen_recipe_c,
    intervals,
    random_bits,
)

__all__ = [name for name in dir() if not name.startswith("_")]
