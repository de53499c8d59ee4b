"""Records: reprs keep their Name(field=value, ...) text, and the three
checked records (FstSpec, PdcSpec, FstUniverse) compare by field, refuse
assignment, and check what they are built from on every path."""
import pytest

from depthlab import (
    FstSpec,
    FstUniverse,
    PdcSpec,
    SequenceRecipe,
    ValidationError,
    build_half_compressor,
    compute_profile,
    enum_fsts,
    format_fst,
    format_pdc,
    fst_run,
    identity_fst,
    identity_pdc,
    intervals,
    kfs_complexity,
    lz_parse,
    make_compressor,
    parse_fst,
    parse_pdc,
    pdc_run,
    repeater_fst,
)

# Each repr as the records printed it when they were dataclasses.
REPRS = [
    (lambda: identity_fst(),
     "FstSpec(num_states=1, start=1, moves={(1, '0'): (1, '0'), (1, '1'): (1, '1')})"),
    (lambda: identity_pdc(),
     "PdcSpec(num_states=1, start=1, stack_kind='unary', moves={(1, '0', 'z'): "
     "(1, 'z', '0'), (1, '1', 'z'): (1, 'z', '1')}, lambda_budget=0)"),
    (lambda: enum_fsts(8),
     "FstUniverse(k=8, entries=(('11010000', FstSpec(num_states=1, start=1, "
     "moves={(1, '0'): (1, ''), (1, '1'): (1, '')})),))"),
    (lambda: fst_run(repeater_fst("01"), "011"), "RunResult(output='010101', final_state=1)"),
    (lambda: pdc_run(identity_pdc(), "0110"),
     "PdcRun(output='0110', final_state=1, final_stack='z')"),
    (lambda: kfs_complexity("0110", 12),
     "ComplexityResult(value=4, witness=Witness(description='110101000110', "
     "input_bits='1001', machine_index=11))"),
    (lambda: kfs_complexity("0110", 4), "ComplexityResult(value=inf, witness=None)"),
    (lambda: lz_parse("0110100"),
     "LzParse(tokens=[(0, '0'), (0, '1'), (2, '0'), (3, '0')], tail=None, "
     "phrases=['0', '1', '10', '100'])"),
    (lambda: intervals(count=3), "IntervalPartition(lengths=(2, 4, 64), truncated=False)"),
    (lambda: SequenceRecipe(kind="b", k=9, stages=2),
     "SequenceRecipe(kind='b', k=9, v=0, seed=0, growth='scaled', g=4, stages=2, "
     "bit_budget=None, certify=False)"),
    (lambda: SequenceRecipe(kind="b", k=9, stages=1).generate(),
     "GeneratedStream(bits='110001000111111111000100011', blocks=({'stage': 1, 't': 1, "
     "'len_r': 9, 'fallback': False},), truncated=False)"),
    (lambda: compute_profile("0110", [make_compressor("identity-fst"),
                                      make_compressor("lz78")], [2, 4]),
     "DepthProfile(labels=('identity-fst', 'lz78'), rows=((2, (2, 3), ''), "
     "(4, (4, 6), '')))"),
]


@pytest.mark.parametrize("build, text", REPRS, ids=[t.split("(")[0] for _, t in REPRS])
def test_repr_is_name_and_fields(build, text):
    assert repr(build()) == text


def test_recipe_fields_are_a_dict_in_field_order():
    assert SequenceRecipe(kind="b", k=9).fields() == {
        "kind": "b", "k": 9, "v": 0, "seed": 0, "growth": "scaled", "g": 4,
        "stages": None, "bit_budget": None, "certify": False}


def changed_fst(T: FstSpec) -> FstSpec:
    moves = dict(T.moves)
    tgt, e = moves[(1, "0")]
    moves[(1, "0")] = (tgt, e + "1")
    return FstSpec(T.num_states, T.start, moves)


def changed_pdc(C: PdcSpec) -> PdcSpec:
    moves = dict(C.moves)
    key = min(k for k, (_, _, e) in moves.items() if k[1] != "")
    tgt, push, e = moves[key]
    moves[key] = (tgt, push, e + "1")
    return PdcSpec(C.num_states, C.start, C.stack_kind, moves, C.lambda_budget)


FST_FIELDS = ("num_states", "start", "moves")
PDC_FIELDS = ("num_states", "start", "stack_kind", "moves", "lambda_budget")
# (build, its fields, a rebuilt equal copy, a copy with one move changed);
# a spec's copy is its round trip through the text format.
CHECKED = {
    "fst": (lambda: parse_fst("fst 2 1\n1 0 -> 2 01\n1 1 -> 1 -\n2 0 -> 1 1\n2 1 -> 2 0\n"),
            FST_FIELDS, lambda T: parse_fst(format_fst(T)), changed_fst),
    "identity-pdc": (identity_pdc, PDC_FIELDS, lambda C: parse_pdc(format_pdc(C)),
                     changed_pdc),
    "half-compressor": (lambda: build_half_compressor(9, 9, 0), PDC_FIELDS,
                        lambda C: parse_pdc(format_pdc(C)), changed_pdc),
    "universe": (lambda: enum_fsts(12), ("k", "entries"),
                 lambda U: FstUniverse(U.k, tuple(list(U.entries))),
                 lambda U: FstUniverse(U.k, U.entries[:-1])),
}


@pytest.mark.parametrize("name", CHECKED)
def test_checked_records_compare_by_field(name):
    build, fields, rebuild, changed = CHECKED[name]
    record = build()
    again = rebuild(record)
    assert again is not record and again == record and not again != record
    assert changed(record) != record
    assert record != tuple(getattr(record, f) for f in fields)


@pytest.mark.parametrize("name", CHECKED)
def test_checked_records_refuse_assignment(name):
    build, fields, _, _ = CHECKED[name]
    record = build()
    for field in (*fields, "_rows", "new_name"):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before
    with pytest.raises(TypeError):
        hash(record)


def test_checked_records_have_no_unchecked_copy():
    for cls in (FstSpec, PdcSpec, FstUniverse):
        assert not any(hasattr(cls, name) for name in ("_make", "_replace"))


BAD_FST = {(1, "0"): (1, ""), (1, "1"): (1, "")}
BAD_PDC = {(1, "0", "z"): (1, "z", "0"), (1, "1", "z"): (1, "z", "1")}
# Every constructor path, each given a start state out of range.
INVALID = [
    lambda: FstSpec(1, 2, BAD_FST),
    lambda: FstSpec(num_states=1, start=2, moves=BAD_FST),
    lambda: parse_fst("fst 1 2\n1 0 -> 1 -\n1 1 -> 1 -\n"),
    lambda: PdcSpec(1, 2, "unary", BAD_PDC, 0),
    lambda: PdcSpec(num_states=1, start=2, stack_kind="unary", moves=BAD_PDC,
                    lambda_budget=0),
    lambda: parse_pdc("pdc 1 2 unary 0\n1 0 z -> 1 z 0\n1 1 z -> 1 z 1\n"),
]


@pytest.mark.parametrize("build", INVALID)
def test_invalid_specs_are_refused_on_every_path(build):
    with pytest.raises(ValidationError, match="start state"):
        build()
