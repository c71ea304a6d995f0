import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramify.cover import (
    MAX_FILE_CELLS,
    MAX_FILE_DEGREE,
    BranchedCover,
    CoverFormatError,
    InvalidCoverError,
    cover_from_json_dict,
    dumps_cover,
    is_morse,
    loads_cover,
    monodromy_group,
    relation_product,
    total_space_genus,
    validate,
)
from ramify.perm import CycleParseError, Permutation, parse_cycles

from oracles import relabel


def mk(d, g, cycle_strs, handle_strs=()):
    return BranchedCover(
        degree=d,
        base_genus=g,
        handles=tuple((parse_cycles(a, d), parse_cycles(b, d))
                      for a, b in handle_strs),
        branch_cycles=tuple(parse_cycles(s, d) for s in cycle_strs),
    )


HYPERELLIPTIC6 = mk(2, 0, ["(1 2)"] * 6)
TREFOIL = mk(3, 0, ["(1 2)", "(2 3)", "(1 3 2)"])
TREFOIL_MORSE = mk(3, 0, ["(1 2)", "(1 2)", "(2 3)", "(2 3)"])
D4 = mk(4, 0, ["(1 2 3 4)", "(1 3)", "(1 4)(2 3)"])
GALOIS_V4 = mk(4, 0, ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"])
ETALE_G1 = mk(2, 1, [], handle_strs=[("(1 2)", "id")])
RAMIFIED_G1 = mk(2, 1, ["(1 2)", "(1 2)"], handle_strs=[("id", "id")])
IDENTITY_COVER = mk(1, 0, [])


@st.composite
def valid_covers_st(draw, max_degree=5, max_genus=1, max_branch=4):
    """Valid covers built by construction: a branch count some cover of the
    drawn degree and genus has, non-identity free cycles and the last
    cycle forced by the relation.  Only what construction does not settle
    is filtered: a forced cycle that is the identity (at r = 0, a relation
    product that is not) and an intransitive group."""
    d = draw(st.integers(min_value=1, max_value=max_degree))
    g = draw(st.integers(min_value=0, max_value=max_genus))
    # degree 1: every cycle is the identity; genus 0: r = 0 is
    # intransitive and r = 1 forces the identity; degree 2: every cycle
    # is (1 2), so an odd count has an odd product
    r = draw(st.sampled_from([
        r for r in range(max_branch + 1)
        if (r == 0 if d == 1 else (r >= 2 or g > 0))
        and (d != 2 or r % 2 == 0)]))
    perm_st = st.permutations(list(range(1, d + 1))).map(Permutation)
    handles = tuple((draw(perm_st), draw(perm_st)) for _ in range(g))
    moving = [Permutation([x + 1 for x in p])
              for p in itertools.permutations(range(d))][1:]
    frees = tuple(draw(st.sampled_from(moving)) for _ in range(max(r - 1, 0)))
    last = relation_product(BranchedCover(d, g, handles, frees)).inverse()
    if r > 0:
        assume(not last.is_identity())
        frees += (last,)
    else:
        assume(last.is_identity())
    cover = BranchedCover(d, g, handles, frees)
    report = validate(cover)
    assume(report.is_connected)
    assert report.valid, report.violations
    return cover


# -- validation ---------------------------------------------------------

def test_validate_hyperelliptic_pair():
    assert validate(mk(2, 0, ["(1 2)", "(1 2)"])).valid


def test_validate_relation_failure():
    report = validate(mk(3, 0, ["(1 2)", "(2 3)"]))
    assert not report.valid
    assert any("surface relation" in v for v in report.violations)


def test_validate_d4_cover():
    report = validate(D4)
    assert report.valid
    assert report.monodromy_order == 8


def test_validate_reports_all_violations():
    bad = mk(3, 0, ["id", "(1 2)"])
    report = validate(bad)
    assert not report.valid
    assert any("identity" in v for v in report.violations)
    assert any("surface relation" in v for v in report.violations)
    assert any("intransitive" in v for v in report.violations)


def test_validate_intransitive():
    report = validate(mk(3, 0, ["(1 2)", "(1 2)"]))
    assert not report.valid
    assert any("intransitive" in v for v in report.violations)


def test_validate_degree_mismatch():
    bad = BranchedCover(3, 0, (), (parse_cycles("(1 2)", 2),))
    report = validate(bad)
    assert not report.valid
    assert any("degree" in v for v in report.violations)


@pytest.mark.parametrize("cover, violation", [
    (BranchedCover(0, 0), "degree must be positive, got 0"),
    (BranchedCover(2, -1), "base genus must be non-negative, got -1"),
    (BranchedCover(3, 1, ((parse_cycles("(1 2)", 2), parse_cycles("id", 2)),),
                   (parse_cycles("(1 2 3)", 3),) * 3),
     "handle 1 alpha has degree 2, expected 3"),
    (BranchedCover(2, 0, branch_cycles=(parse_cycles("(1 2)", 2),) * 2,
                   labels=("x=0",)),
     "1 labels for 2 branch cycles"),
])
def test_validate_reports_each_structural_violation(cover, violation):
    report = validate(cover)
    assert not report.valid
    assert violation in report.violations


@pytest.mark.parametrize("genus, handle_strs", [
    (1, []),
    (0, [("id", "id")]),
    (1, [("(1 2)", "id"), ("id", "id")]),
])
def test_validate_requires_one_handle_pair_per_base_genus(genus, handle_strs):
    # the relation would run over len(handles) commutators while
    # Riemann-Hurwitz counts base_genus of them
    report = validate(mk(2, genus, ["(1 2)", "(1 2)"], handle_strs))
    assert not report.valid
    assert report.total_space_genus is None
    assert any(f"base genus {genus} needs {genus} handle pairs, "
               f"got {len(handle_strs)}" in v for v in report.violations)
    with pytest.raises(InvalidCoverError):
        total_space_genus(mk(2, genus, ["(1 2)", "(1 2)"], handle_strs))


def test_validate_etale_and_identity_covers():
    assert validate(ETALE_G1).valid
    assert validate(IDENTITY_COVER).valid


@pytest.mark.parametrize("bad", [
    mk(3, 0, ["(1 2)", "(1 2)"]),
    mk(3, 0, ["(1 2)", "(2 3)"]),
], ids=["intransitive", "relation_fails"])
def test_validate_builds_no_group_on_an_invalid_cover(bad, monodromy_builds):
    assert not validate(bad).valid
    with pytest.raises(InvalidCoverError):
        monodromy_group(bad)
    assert monodromy_builds == []


def test_validate_builds_one_group_on_a_valid_cover(monodromy_builds):
    assert validate(D4).monodromy_order == 8
    assert total_space_genus(D4) == 0
    assert monodromy_builds == [D4.all_generators()]


#: SHA-256 of the validation reports, one JSON text a line, of every
#: genus-0 tuple with d <= 4 and r <= 2 (654 tuples, most of them invalid),
#: recorded when validation still built the group of every cover.
VALIDATE_DIGEST = \
    "8a8f735ba11e2d104eaef16629c6065350b32824c42acfc1a04ea672c4697a0f"


def test_validate_reports_match_recorded():
    docs = []
    for d in range(1, 5):
        perms = [Permutation(p) for p in itertools.permutations(range(1, d + 1))]
        for r in range(3):
            for cycles in itertools.product(perms, repeat=r):
                report = validate(BranchedCover(d, 0, (), cycles))
                docs.append(json.dumps(report.to_json_dict()))
    assert len(docs) == 654
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() \
        == VALIDATE_DIGEST


def test_operations_reject_invalid_cover():
    bad = mk(3, 0, ["(1 2)", "(2 3)"])
    with pytest.raises(InvalidCoverError):
        total_space_genus(bad)
    with pytest.raises(InvalidCoverError):
        monodromy_group(bad)


# -- monodromy group ------------------------------------------------------

def test_monodromy_hyperelliptic():
    assert monodromy_group(HYPERELLIPTIC6).order == 2


def test_monodromy_trefoil():
    assert monodromy_group(TREFOIL).order == 6


def test_monodromy_d4():
    assert monodromy_group(D4).order == 8


# -- genus ----------------------------------------------------------------

def test_genus_hyperelliptic_six_points():
    assert total_space_genus(HYPERELLIPTIC6) == 2


def test_genus_trefoil():
    assert total_space_genus(TREFOIL) == 0


def test_genus_etale_over_torus():
    assert total_space_genus(ETALE_G1) == 1


def test_genus_identity_cover_matches_base():
    assert total_space_genus(IDENTITY_COVER) == 0
    torus_id = mk(1, 1, [], handle_strs=[("id", "id")])
    assert total_space_genus(torus_id) == 1


# -- predicates -------------------------------------------------------------

def test_is_morse():
    assert is_morse(TREFOIL_MORSE)
    assert not is_morse(TREFOIL)  # 3-cycle present
    klein = mk(4, 0, ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"])
    assert validate(klein).valid
    assert not is_morse(klein)  # double transpositions: two ramification points


def test_is_galois():
    assert validate(HYPERELLIPTIC6).is_galois
    assert not validate(D4).is_galois
    assert validate(mk(3, 0, ["(1 2 3)", "(1 3 2)"])).is_galois


# -- properties ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(valid_covers_st(), st.data())
def test_relabel_invariance(cover, data):
    sigma = Permutation(data.draw(
        st.permutations(list(range(1, cover.degree + 1)))))
    other = relabel(cover, sigma)
    r1, r2 = validate(cover), validate(other)
    assert r1.valid and r2.valid
    assert r1.total_space_genus == r2.total_space_genus
    assert r1.monodromy_order == r2.monodromy_order
    assert r1.is_morse == r2.is_morse
    assert r1.is_galois == r2.is_galois


@settings(max_examples=60, deadline=None)
@given(valid_covers_st())
def test_genus_is_non_negative_integer(cover):
    assert total_space_genus(cover) >= 0


def test_morse_parity_degree_two():
    # over genus 0 with d = 2, Morse covers need an even branch count
    for r in (2, 4, 6, 8):
        assert validate(mk(2, 0, ["(1 2)"] * r)).valid
    for r in (1, 3, 5):
        assert not validate(mk(2, 0, ["(1 2)"] * r)).valid


def test_galois_regular_model_consistency():
    # the same tuple viewed through its regular action also validates
    cover = mk(3, 0, ["(1 2 3)", "(1 3 2)"])
    report = validate(cover)
    assert report.valid and report.is_galois
    # regular action of C_3 on itself is the same degree here; genus agrees
    assert total_space_genus(cover) == 0


# -- cover files ----------------------------------------------------------

def test_cover_file_round_trip():
    for cover in (HYPERELLIPTIC6, TREFOIL, D4, ETALE_G1, IDENTITY_COVER):
        assert loads_cover(dumps_cover(cover)) == cover


def test_cover_file_with_labels_round_trip():
    cover = BranchedCover(2, 0,
                          branch_cycles=(parse_cycles("(1 2)", 2),) * 2,
                          labels=("x=0", "x=1"))
    assert loads_cover(dumps_cover(cover)) == cover


def test_cover_file_rejects_unknown_fields():
    doc = json.loads(dumps_cover(TREFOIL))
    doc["extra"] = 1
    with pytest.raises(CoverFormatError, match="unknown fields"):
        cover_from_json_dict(doc)


def test_cover_file_rejects_missing_fields():
    with pytest.raises(CoverFormatError, match="missing field"):
        cover_from_json_dict({"degree": 2})


def test_cover_file_rejects_bad_types():
    with pytest.raises(CoverFormatError):
        cover_from_json_dict({"degree": "2", "base_genus": 0,
                              "handles": [], "branch_cycles": []})
    with pytest.raises(CoverFormatError):
        loads_cover("not json")


_TREFOIL_DOC = json.loads(dumps_cover(TREFOIL))


@pytest.mark.parametrize("text, message", [
    ("[]", "cover document must be a JSON object"),
    (json.dumps({**_TREFOIL_DOC, "base_genus": -1}),
     "base_genus must be a non-negative integer, got -1"),
    (json.dumps({**_TREFOIL_DOC, "handles": {}}), "handles must be an array"),
    (json.dumps({**_TREFOIL_DOC, "branch_cycles": "x"}),
     "branch_cycles must be an array"),
    (json.dumps({**_TREFOIL_DOC, "base_genus": 1, "handles": [["id"]]}),
     "handle 1 must be a 2-element array of cycle strings"),
    (json.dumps({**_TREFOIL_DOC, "labels": [1]}),
     "labels must be an array of strings"),
])
def test_cover_file_refuses_each_malformed_field(text, message):
    with pytest.raises(CoverFormatError) as refused:
        loads_cover(text)
    assert str(refused.value) == message


def test_cover_file_rejects_non_string_branch_cycle():
    with pytest.raises(CoverFormatError, match="branch cycle 1"):
        loads_cover('{"degree": 2, "base_genus": 0, "handles": [], '
                    '"branch_cycles": [12]}')


def test_cover_file_rejects_non_string_handle():
    with pytest.raises(CoverFormatError, match="handle 1"):
        loads_cover('{"degree": 2, "base_genus": 1, "handles": [[1, 2]], '
                    '"branch_cycles": []}')


def test_cover_file_refuses_non_ascii_digit_in_a_cycle():
    with pytest.raises(CycleParseError, match="expected integer at position 3"):
        loads_cover('{"degree": 3, "base_genus": 0, "handles": [], '
                    '"branch_cycles": ["(1 \u00b2)", "(1 2)"]}')


def test_cover_file_refuses_a_long_digit_run_in_a_cycle():
    with pytest.raises(CycleParseError, match="position 3 out of range"):
        loads_cover('{"degree": 3, "base_genus": 0, "handles": [], '
                    '"branch_cycles": ["(1 ' + "1" * 5000 + ')", "(1 2)"]}')


def test_cover_file_rejects_a_long_integer_literal():
    # json.loads meets int()'s 4,300-digit limit with a plain ValueError
    with pytest.raises(CoverFormatError, match="not valid JSON"):
        loads_cover('{"degree": ' + "1" * 5001 + ', "base_genus": 0, '
                    '"handles": [], "branch_cycles": []}')


def test_cover_file_rejects_deep_nesting():
    # json.loads recurses once per level and raises RecursionError
    with pytest.raises(CoverFormatError, match="not valid JSON"):
        loads_cover("[" * 100_000)


def test_cover_file_rejects_degree_above_bound():
    with pytest.raises(CoverFormatError, match="exceeds"):
        cover_from_json_dict({"degree": MAX_FILE_DEGREE + 1, "base_genus": 0,
                              "handles": [], "branch_cycles": ["(1 2)"]})


def test_cover_file_accepts_degree_at_bound():
    c = cover_from_json_dict({"degree": MAX_FILE_DEGREE, "base_genus": 0,
                              "handles": [],
                              "branch_cycles": ["(1 2)", "(1 2)"]})
    assert c.degree == MAX_FILE_DEGREE
    assert str(c.branch_cycles[0]) == "(1 2)"


def test_cover_file_rejects_entries_above_bound():
    degree = 2_500
    entries = MAX_FILE_CELLS // degree + 1
    with pytest.raises(CoverFormatError, match="exceed"):
        cover_from_json_dict({"degree": degree, "base_genus": 0,
                              "handles": [], "branch_cycles": ["id"] * entries})
    # handles count twice, and the bound is checked before any entry is read
    with pytest.raises(CoverFormatError, match="exceed"):
        cover_from_json_dict({"degree": degree, "base_genus": 1,
                              "handles": [[None, None]] * (entries // 2 + 1),
                              "branch_cycles": []})


def test_cover_file_accepts_entries_at_bound():
    degree = 2_500
    entries = MAX_FILE_CELLS // degree
    assert entries * degree == MAX_FILE_CELLS
    c = cover_from_json_dict({"degree": degree, "base_genus": 1,
                              "handles": [["id", "(1 2)"]],
                              "branch_cycles": ["id"] * (entries - 2)})
    assert 2 * len(c.handles) + len(c.branch_cycles) == entries


def test_cover_file_is_deterministic():
    assert dumps_cover(D4) == dumps_cover(D4)
