import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramify.perm import (
    CycleParseError,
    DegreeMismatchError,
    GeneratedGroup,
    MembershipError,
    Permutation,
    Transitivity,
    _congruence,
    _orbits,
    _pair_orbits,
    format_cycles,
    normal_closure,
    orbits,
    parse_cycles,
    point_stabilizer,
    transitivity,
    transversal,
)

from oracles import (
    naive_closure,
    o_closure,
    o_normal_closure,
    o_pair_orbits,
    o_point_orbits,
    o_stabilizer,
    o_transitivity,
)


def perm(text: str, d: int) -> Permutation:
    return parse_cycles(text, d)


@st.composite
def permutations_st(draw, max_degree=8):
    d = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(list(range(1, d + 1))))
    return Permutation(images)


@st.composite
def small_groups_st(draw, max_degree=6, max_gens=3):
    d = draw(st.integers(min_value=1, max_value=max_degree))
    k = draw(st.integers(min_value=1, max_value=max_gens))
    gens = [Permutation(draw(st.permutations(list(range(1, d + 1)))))
            for _ in range(k)]
    return GeneratedGroup(d, gens)


# -- composition ------------------------------------------------------------

def test_compose_involution_is_identity():
    t = perm("(1 2)", 2)
    assert (t * t).is_identity()


def test_compose_right_factor_first():
    a = perm("(1 2 3 4)", 4)
    b = perm("(1 3)", 4)
    assert str(a * b) == "(1 4)(2 3)"


def test_compose_identity_law():
    a = perm("(1 3 2)", 4)
    assert a * Permutation.identity(4) == a
    assert Permutation.identity(4) * a == a


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        perm("(1 2)", 2) * perm("(1 2)", 3)


@given(permutations_st())
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(st.data())
def test_compose_matches_pointwise(data):
    d = data.draw(st.integers(min_value=1, max_value=7))
    a = Permutation(data.draw(st.permutations(list(range(1, d + 1)))))
    b = Permutation(data.draw(st.permutations(list(range(1, d + 1)))))
    c = a * b
    for i in range(1, d + 1):
        assert c(i) == a(b(i))


# -- parsing / printing -----------------------------------------------------

def test_parse_basic():
    assert parse_cycles("(1 2)(3 4)", 4).images == (2, 1, 4, 3)


def test_parse_id():
    assert parse_cycles("id", 3).is_identity()


def test_parse_repeated_point():
    with pytest.raises(CycleParseError, match="repeated point"):
        parse_cycles("(1 2 2)", 3)


def test_parse_out_of_range():
    with pytest.raises(CycleParseError, match="out of range"):
        parse_cycles("(1 5)", 4)


def test_parse_refuses_a_digit_run_longer_than_the_degree_at_its_position():
    # int() refuses a run above 4,300 digits with a plain ValueError
    with pytest.raises(CycleParseError, match="position 3 out of range 1..3"):
        parse_cycles("(1 " + "1" * 5000 + ")", 3)
    with pytest.raises(CycleParseError, match="position 3 out of range 1..9"):
        parse_cycles("(1 10)", 9)
    # leading zeros are not significant
    assert parse_cycles("(1 0002)", 3) == perm("(1 2)", 3)
    assert parse_cycles("(1 " + "0" * 5000 + "2)", 3) == perm("(1 2)", 3)


def test_parse_malformed():
    for bad in ["(1 2", "1 2)", "()", "(1 2))", "(1 a)", ""]:
        with pytest.raises(CycleParseError):
            parse_cycles(bad, 4)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13"])
def test_parse_refuses_non_ascii_digits(digit):
    # superscript two, Arabic-Indic three, fullwidth three: the grammar is
    # ASCII, so none of them is read as a point
    with pytest.raises(CycleParseError, match="expected integer at position 3"):
        parse_cycles(f"(1 {digit})", 3)


def test_parse_fixed_point_cycle_allowed():
    assert parse_cycles("(3)", 3).is_identity()
    assert parse_cycles("(1 2)(3)", 3) == perm("(1 2)", 3)


def test_parse_accepts_whitespace_between_cycles():
    assert parse_cycles("(1 2) (3 4)", 4) == parse_cycles("(1 2)(3 4)", 4)
    assert (parse_cycles(" \t(1 2)\n(3\r4)\f\v", 4)
            == parse_cycles("(1 2)(3 4)", 4))
    assert parse_cycles("\t id \n", 3).is_identity()


@pytest.mark.parametrize("space", ["\u3000", "\u00a0"])
@pytest.mark.parametrize("text, message", [
    # ideographic space, no-break space: the grammar's whitespace is ASCII
    ("(1 2){}(3 4)", "expected '\\(' at position 5"),
    ("(1 2) (3{}4)", "expected integer at position 8"),
    ("{}(1 2)", "expected '\\(' at position 0"),
    ("{}id", "expected '\\(' at position 0"),
])
def test_parse_refuses_non_ascii_whitespace_at_its_position(space, text,
                                                            message):
    with pytest.raises(CycleParseError, match=message):
        parse_cycles(text.format(space), 4)


@given(permutations_st())
def test_print_parse_round_trip(p):
    assert parse_cycles(format_cycles(p), p.degree) == p


@given(permutations_st())
def test_printer_is_canonical(p):
    s = format_cycles(p)
    assert format_cycles(parse_cycles(s, p.degree)) == s


# -- group order ------------------------------------------------------------

def test_order_s3():
    g = GeneratedGroup(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
    assert g.order == 6


def test_order_d4():
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
    assert g.order == 8


def test_order_s5():
    g = GeneratedGroup(5, [perm("(1 2 3 4 5)", 5), perm("(1 2)", 5)])
    assert g.order == 120


def test_order_trivial():
    assert GeneratedGroup(4, [Permutation.identity(4)]).order == 1


@settings(max_examples=60, deadline=None)
@given(small_groups_st())
def test_order_matches_naive_closure(g):
    raw = [tuple(x - 1 for x in p.images) for p in g.generators]
    assert g.order == len(o_closure(raw))


@settings(max_examples=40, deadline=None)
@given(small_groups_st())
def test_membership_matches_naive_closure(g):
    """Membership agrees with the closure on every element of S_d."""
    raw_closure = o_closure([tuple(x - 1 for x in p.images)
                             for p in g.generators])
    for images in itertools.permutations(range(g.degree)):
        member = Permutation([x + 1 for x in images]) in g
        assert member == (images in raw_closure)


def test_elements_enumeration():
    g = GeneratedGroup(3, [perm("(1 2 3)", 3)])
    assert [str(p) for p in g.elements()] == ["id", "(1 2 3)", "(1 3 2)"]


# -- orbits -----------------------------------------------------------------

def _raws(g):
    return [tuple(x - 1 for x in p.images) for p in g.generators]


def test_orbits_c2_on_three_points():
    g = GeneratedGroup(3, [perm("(1 2)", 3)])
    assert _orbits(_raws(g), 3) == ((0, 1), (2,))


def test_orbits_d4_on_pairs():
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
    parts = orbits(g, itertools.product(range(1, 5), repeat=2))
    sizes = sorted(len(p) for p in parts)
    assert sizes == [4, 4, 8]
    diag = next(p for p in parts if (1, 1) in p)
    assert set(diag) == {(i, i) for i in range(1, 5)}
    opposite = next(p for p in parts if (1, 3) in p)
    assert set(opposite) == {(1, 3), (3, 1), (2, 4), (4, 2)}


def test_orbits_s3_on_pairs():
    g = GeneratedGroup(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
    assert len(orbits(g, itertools.product(range(1, 4), repeat=2))) == 2


@settings(max_examples=40, deadline=None)
@given(small_groups_st())
def test_orbits_match_oracle(g):
    raw = _raws(g)
    assert list(_orbits(raw, g.degree)) == o_point_orbits(raw, g.degree)


@settings(max_examples=40, deadline=None)
@given(small_groups_st())
def test_pair_orbits_match_oracle(g):
    """``orbits`` on every pair and ``_pair_orbits`` on the codes agree
    with the pair-orbit oracle."""
    d = g.degree
    expected = o_pair_orbits(_raws(g), d)
    pairs = itertools.product(range(1, d + 1), repeat=2)
    assert list(orbits(g, pairs)) == expected
    assert [tuple((c // d + 1, c % d + 1) for c in part)
            for part in _pair_orbits(_raws(g), d)] == expected


@pytest.mark.parametrize("point", [0, -1, 4, 1.0, True, "1"],
                         ids=["zero", "minus_one", "four", "float", "bool",
                              "str"])
def test_call_refuses_non_points(point):
    """p(0) and p(-1) would read an image from the end of the table, p(True)
    the image of 2."""
    with pytest.raises(ValueError):
        perm("(1 2 3)", 3)(point)


@pytest.mark.parametrize("call", [
    lambda: Permutation([]),
    lambda: Permutation.from_cycle([], 0),
    lambda: Permutation.identity(0),
    lambda: parse_cycles("id", 0),
], ids=["images", "from_cycle", "identity", "parse"])
def test_degree_zero_is_refused(call):
    with pytest.raises(ValueError, match="degree must be positive"):
        call()


@pytest.mark.parametrize("domain", [
    [(0, 1)], [(1, 4)], [(1, 2), (2, 0)], [(1, 1, 1)], [0], [4], [1.5],
    [(1.5, 2)], [True], [(1, True)], [1, (1, 2)], [(1, 2), 1], [[1, 2]],
    [1], [3, 2]],
    ids=["pair_0_1", "pair_1_4", "second_pair", "triple", "point_0",
         "point_4", "float_point", "float_in_pair", "bool_point",
         "bool_in_pair", "point_then_pair", "pair_then_point", "list_pair",
         "point_1", "points"])
def test_orbits_refuse_items_off_the_points(domain):
    # (1, 4) and (2, 1) would share the code of the pair action; orbits
    # take ordered pairs only, so a point, even of 1..d, is refused
    g = GeneratedGroup(3, [perm("(1 2 3)", 3)])
    with pytest.raises(ValueError):
        orbits(g, domain)


def test_orbits_through_given_points():
    raw = _raws(GeneratedGroup(4, [perm("(1 3)", 4)]))
    assert _orbits(raw, 4, [2, 1]) == ((0, 2), (1,))
    assert _orbits(raw, 4, []) == ()
    g = GeneratedGroup(4, [perm("(1 3)", 4)])
    assert orbits(g, [(3, 3), (2, 2), (3, 3)]) == (((2, 2),), ((1, 1), (3, 3)))
    assert orbits(g, []) == ()


# -- point stabilizer -------------------------------------------------------

def braid_walk_tuple(rng, d):
    """Transpositions t_1..t_{d-1} of a random spanning tree, then the same
    in reverse, mixed by Hurwitz moves: a Morse genus-0 tuple with group
    S_d and product 1."""
    points = list(range(1, d + 1))
    rng.shuffle(points)
    tree = [Permutation.from_cycle([points[i], points[rng.randrange(i)]], d)
            for i in range(1, d)]
    cycles = tree + tree[::-1]
    for _ in range(10 * len(cycles)):
        i = rng.randrange(len(cycles) - 1)
        a, b = cycles[i], cycles[i + 1]
        if rng.random() < 0.5:
            cycles[i], cycles[i + 1] = a * b * a.inverse(), a
        else:
            cycles[i], cycles[i + 1] = b, b.inverse() * a * b
    return cycles


def test_stabilizer_s3():
    g = GeneratedGroup(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
    assert point_stabilizer(g, 1).order == 2


def test_stabilizer_d4():
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
    stab = point_stabilizer(g, 1)
    assert stab.order == 2
    assert perm("(2 4)", 4) in stab


def test_stabilizer_c4_regular():
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4)])
    assert point_stabilizer(g, 1).order == 1


def first_moved(g):
    """The least point some generator of g moves, or d when none does:
    the last point whose stabilizer and transversal g's chain holds."""
    return min((q for s in g.generators for q in range(1, g.degree + 1)
                if s(q) != q), default=g.degree)


def assert_refused_past_first_moved(g):
    for p in range(first_moved(g) + 1, g.degree + 1):
        with pytest.raises(ValueError, match="moves a point"):
            point_stabilizer(g, p)


@settings(max_examples=40, deadline=None)
@given(small_groups_st(), st.integers(min_value=1, max_value=6))
def test_orbit_stabilizer_identity(g, p):
    p = 1 + (p - 1) % first_moved(g)
    orbit = next(part for part in _orbits(_raws(g), g.degree) if p - 1 in part)
    assert point_stabilizer(g, p).order * len(orbit) == g.order
    assert_refused_past_first_moved(g)


@settings(max_examples=25, deadline=None)
@given(small_groups_st(max_degree=5))
def test_stabilizer_matches_oracle(g):
    raw = [tuple(x - 1 for x in p.images) for p in g.generators]
    elements = o_closure(raw)
    for p0 in range(first_moved(g)):
        assert point_stabilizer(g, p0 + 1).order == len(o_stabilizer(elements, p0))
    assert_refused_past_first_moved(g)


@settings(max_examples=25, deadline=None)
@given(small_groups_st(max_degree=5))
def test_iterated_stabilizers_match_oracle(g):
    """Stab(1), then Stab(2) of that, and so on down the chain: each
    fixes the points before the next, and equals the pointwise stabilizer
    of 1..p in the element set."""
    elements = o_closure([tuple(x - 1 for x in s.images)
                          for s in g.generators])
    h = g
    for p0 in range(g.degree):
        h = point_stabilizer(h, p0 + 1)
        elements = o_stabilizer(elements, p0)
        assert _elements_raw(h) == elements


def _elements_raw(g):
    return {tuple(x - 1 for x in e.images) for e in g.elements()}


PREFIX_GROUPS = [
    # S_5 and D_4: transitive, so every p but 1 is refused
    [perm("(1 2 3 4 5)", 5), perm("(1 2)", 5)],
    [perm("(1 2 3 4)", 4), perm("(1 3)", 4)],
    # fixes 1 and 2, so p <= 3 reads a suffix of the chain
    [perm("(3 4 5)", 6), perm("(4 5 6)", 6)],
    # fixes 1, intransitive on the rest
    [perm("(2 3)(4 5)", 5), perm("(4 5)", 5)],
]


@pytest.mark.parametrize("gens", PREFIX_GROUPS)
def test_point_stabilizer_elements_match_oracle(gens):
    g = GeneratedGroup(gens[0].degree, gens)
    elements = _elements_raw(g)
    for p0 in range(first_moved(g)):
        stab = point_stabilizer(g, p0 + 1)
        assert _elements_raw(stab) == o_stabilizer(elements, p0)
    assert_refused_past_first_moved(g)


@pytest.mark.parametrize("gens", PREFIX_GROUPS[:2] + [
    [perm("(1 2 3 4 5 6)", 6), perm("(1 2)", 6)]])
def test_stabilizer_of_stabilizer_matches_oracle(gens):
    g = GeneratedGroup(gens[0].degree, gens)
    h = point_stabilizer(g, 1)
    elements = _elements_raw(g)
    for p0 in range(1, first_moved(h)):
        expected = {e for e in elements if e[0] == 0 and e[p0] == p0}
        assert _elements_raw(point_stabilizer(h, p0 + 1)) == expected
    assert_refused_past_first_moved(h)


def test_point_stabilizer_reads_the_chain(monkeypatch):
    import ramify.perm as perm_module

    rng = random.Random("stabilizer-suffix")
    g = GeneratedGroup(9, braid_walk_tuple(rng, 9))
    calls = []
    for name in ("_extend", "_complete_level"):
        def counted(*args, _inner=getattr(perm_module, name), _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(perm_module, name, counted)
    h = point_stabilizer(g, 1)
    h2 = point_stabilizer(h, 2)
    assert calls == []
    assert (h.order, h2.order) == (math.factorial(8), math.factorial(7))
    assert all(a is b for a, b in zip(h._levels[1:], g._levels[1:]))


@settings(max_examples=40, deadline=None)
@given(small_groups_st(max_degree=6))
def test_transversals_match_oracle(g):
    """Up to the first point a group moves, the transversal at p covers the
    orbit of p and maps p onto each of its points; past that point, and
    outside 1..d, it is refused."""
    d = g.degree
    h = point_stabilizer(g, 1)
    for x in (g, h, point_stabilizer(h, min(2, d))):
        raw = [tuple(i - 1 for i in s.images) for s in x.generators]
        orbit_of = {i + 1: part for part in o_point_orbits(raw, d)
                    for i in part}
        for p in range(1, d + 1):
            if any(len(orbit_of[q]) > 1 for q in range(1, p)):
                with pytest.raises(ValueError, match="moves a point"):
                    transversal(x, p)
                continue
            reps = transversal(x, p)
            assert sorted(reps) == [i + 1 for i in orbit_of[p]]
            assert all(u(p) == q and u in x for q, u in reps.items())
        for p in (0, d + 1):
            with pytest.raises(ValueError, match="out of range"):
                transversal(x, p)


@settings(max_examples=40, deadline=None)
@given(small_groups_st(max_degree=5), st.data())
def test_stabilizer_times_normal_subgroup_by_orbit_lengths(g, data):
    """|HN| = |H| |N.1| for H = Stab_g(1) and N normal in g, checked on
    the element sets."""
    word = data.draw(st.lists(st.sampled_from(g.generators), max_size=3))
    n = normal_closure([math.prod(word, start=Permutation.identity(g.degree))],
                       g)
    h = point_stabilizer(g, 1)
    products = {a * b for a in h.elements() for b in n.elements()}
    assert len(products) == h.order * len(transversal(n, 1))
    assert g.order // len(products) == (len(transversal(g, 1))
                                        // len(transversal(n, 1)))


def _chain_snapshot(g):
    return [(lev.point, list(lev.gens), list(lev.orbit), dict(lev.transversal),
             dict(lev.inverses), dict(lev.sifted)) for lev in g._levels]


@pytest.mark.parametrize("gens", [
    braid_walk_tuple(random.Random("shared-suffix"), 7),
    # S_3 x S_3: (2 4) fixes 1 but lies outside Stab(1), so it probes the
    # levels that Stab(1) shares with the whole group
    [perm("(1 2)", 6), perm("(1 2 3)", 6), perm("(4 5)", 6),
     perm("(4 5 6)", 6)],
])
def test_shared_suffix_survives_closure_and_join(gens):
    d = gens[0].degree
    g = GeneratedGroup(d, gens)
    h = point_stabilizer(g, 1)
    h2 = point_stabilizer(h, 2)
    groups = (g, h, h2)
    before = [_chain_snapshot(x) for x in groups]
    orders = [x.order for x in groups]
    probes = ([t * s * t.inverse() for s in gens for t in gens[:3]]
              + [perm("(2 4)", d)])
    members = [[p in x for p in probes] for x in groups]
    normal_closure([perm("(2 3)", d)], h)
    normal_closure(gens[:1], g)
    assert [_chain_snapshot(x) for x in groups] == before
    assert [x.order for x in groups] == orders
    assert [[p in x for p in probes] for x in groups] == members


# -- chain build ------------------------------------------------------------

def _record(monkeypatch, *names):
    """Patch each named function of ``ramify.perm`` to log its calls."""
    import ramify.perm as perm_module

    calls = []
    for name in names:
        def counted(*args, _inner=getattr(perm_module, name), _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(perm_module, name, counted)
    return calls


@pytest.mark.parametrize("d", [*range(6, 13), 24])
def test_morse_braid_walk_group_is_symmetric(d, monkeypatch):
    """A braid-walk tuple generates S_d and has a transposition generator,
    so its chain is written down: neither ``_extend`` nor
    ``_complete_level`` runs."""
    calls = _record(monkeypatch, "_extend", "_complete_level")
    rng = random.Random(f"symmetric/{d}")
    g = GeneratedGroup(d, braid_walk_tuple(rng, d))
    assert calls == []
    assert g.order == math.factorial(d)
    assert [len(lev.orbit) for lev in g._levels] == list(range(d, 0, -1))


NOT_SYMMETRIC = {  # name: (degree, generators, order)
    "a5": (5, ["(1 2 3)", "(1 2 4)", "(1 2 5)"], 60),
    "a6": (6, ["(1 2 3)", "(1 2 4)", "(1 2 5)", "(1 2 6)"], 360),
    "psl_2_7": (7, ["(1 2 3 4 5 6 7)", "(1 2)(3 5)"], 168),
    "f21": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"], 21),
    "d4": (4, ["(1 2 3 4)", "(1 3)"], 8),
    "v4": (4, ["(1 2)(3 4)", "(1 3)(2 4)"], 4),
    "c6": (6, ["(1 2 3 4 5 6)"], 6),
    "s3_x_s3": (6, ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], 36),
    "s7_fixing_8": (8, ["(1 2)", "(1 2 3 4 5 6 7)"], 5040),
}


@pytest.mark.parametrize("name", sorted(NOT_SYMMETRIC))
def test_group_that_is_not_symmetric_falls_back(name, monkeypatch):
    """Any group but S_d gets the chain ``_extend`` builds, one generator at
    a time on fresh levels, and its exact order."""
    d, texts, order = NOT_SYMMETRIC[name]
    gens = [perm(t, d) for t in texts]
    calls = _record(monkeypatch, "_extend")
    g = GeneratedGroup(d, gens)
    assert calls == ["_extend"] * len(gens)
    assert g.order == order == len(
        o_closure([tuple(x - 1 for x in s.images) for s in gens]))


@pytest.mark.parametrize("d", [4, 7, 10])
@pytest.mark.parametrize("build", ["alternating", "normal_closure"])
def test_exact_build_sifts_each_schreier_generator_once(build, d, monkeypatch):
    """Level i sifts its Schreier generators u_r^-1 g u_q from level i + 1
    on; with no pair (q, g) sifted twice there are at most
    |orbit| * |gens| - (|orbit| - 1) of them, the orbit's tree edges
    giving the identity.  Checked on chains that the exact path builds:
    A_d from its 3-cycles (1 2 k), and the normal closure of (1 2) in S_d.
    Their Schreier generators are sifted, so the bound is not met by
    sifting none."""
    import ramify.perm as perm_module

    s_d = GeneratedGroup(d, braid_walk_tuple(random.Random(f"closure/{d}"), d))
    sifts = [0] * d
    strip = perm_module._strip_from

    def counted(h, levels, start=0):
        if start:
            sifts[start - 1] += 1
        return strip(h, levels, start)

    monkeypatch.setattr(perm_module, "_strip_from", counted)
    if build == "alternating":
        g = GeneratedGroup(d, [perm(f"(1 2 {k})", d) for k in range(3, d + 1)])
    else:
        g = normal_closure([perm("(1 2)", d)], s_d)
    assert sum(sifts) > 0
    for i, lev in enumerate(g._levels):
        size = len(lev.transversal)
        n_gens = sum(len(deeper.gens) for deeper in g._levels[i:])
        assert sifts[i] <= size * n_gens - (size - 1)


def test_probe_cover_builds_without_extend(monkeypatch):
    """The braid cover seeded "probe/10/33" has group S_10 and
    transposition generators, so its chain is written down with neither
    ``_extend`` nor ``_complete_level``."""
    calls = _record(monkeypatch, "_extend", "_complete_level")
    g = GeneratedGroup(10, braid_walk_tuple(random.Random("probe/10/33"), 10))
    assert calls == []
    assert g.order == math.factorial(10)


@pytest.mark.parametrize("d", range(5, 9))
def test_symmetric_group_without_a_transposition_is_built(d, monkeypatch):
    """<(1 2 ... d), (1 2 ... d-1)> is S_d, but no generator is a
    transposition, so ``_extend`` builds its chain."""
    gens = [Permutation.from_cycle(range(1, d + 1), d),
            Permutation.from_cycle(range(1, d), d)]
    calls = _record(monkeypatch, "_extend")
    g = GeneratedGroup(d, gens)
    assert calls == ["_extend"] * len(gens)
    assert g.order == math.factorial(d)


def _swap(d, a, b):
    """The 0-based image tuple of the transposition (a b) of 0..d-1."""
    images = list(range(d))
    images[a], images[b] = b, a
    return tuple(images)


@pytest.mark.parametrize("d", [2, 3, 7, 12])
def test_symmetric_chain_is_written_down(d):
    """Level k's orbit is k..d-1, each q of it reached by (k q), which is
    its own inverse; level k's generator is (k k+1), so Stab_G(1) has the
    d - 2 generators (2 3), ..., (d-1 d)."""
    g = GeneratedGroup(d, [perm("(1 2)", d),
                           Permutation.from_cycle(range(1, d + 1), d)])
    for k, lev in enumerate(g._levels):
        assert lev.point == k
        assert lev.orbit == list(range(k, d))
        assert lev.transversal == lev.inverses == {
            q: _swap(d, k, q) for q in range(k, d)}
        assert lev.gens == ([_swap(d, k, k + 1)] if k + 1 < d else [])
    stab = point_stabilizer(g, 1)
    assert [s.cycles() for s in stab.generators] == (
        [((k, k + 1),) for k in range(2, d)] or [()])
    assert stab.order == math.factorial(d - 1)


@st.composite
def generating_sets_st(draw):
    """1 to 3 generators of degree 2..6, each a transposition or any
    permutation."""
    d = draw(st.integers(min_value=2, max_value=6))
    points = list(range(1, d + 1))
    transposition = st.lists(st.sampled_from(points), min_size=2, max_size=2,
                             unique=True).map(
        lambda ab: Permutation.from_cycle(ab, d))
    anything = st.permutations(points).map(Permutation)
    return d, draw(st.lists(transposition | anything, min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(generating_sets_st())
def test_chain_is_written_down_exactly_for_symmetric_groups(generating_set):
    """The chain is written down, with no ``_extend``, exactly when a
    generator is a transposition and the closure has d! elements; the order
    is the closure's size either way."""
    d, gens = generating_set
    closure = o_closure([tuple(x - 1 for x in s.images) for s in gens])
    with pytest.MonkeyPatch.context() as mp:
        calls = _record(mp, "_extend")
        g = GeneratedGroup(d, gens)
    has_transposition = any([len(c) for c in s.cycles()] == [2] for s in gens)
    assert (calls == []) == (has_transposition
                             and len(closure) == math.factorial(d))
    assert g.order == len(closure)


@pytest.mark.parametrize("d, texts", [
    (12, None), NOT_SYMMETRIC["d4"][:2], NOT_SYMMETRIC["s3_x_s3"][:2]],
    ids=["s12", "d4", "s3_x_s3"])
def test_two_builds_of_a_group_give_one_chain(d, texts):
    """A build is deterministic: neither another build between the two nor
    the module's random generator changes the chain, and the build draws
    nothing from that generator."""
    gens = (braid_walk_tuple(random.Random("two-builds"), d) if texts is None
            else [perm(t, d) for t in texts])
    first = _chain_snapshot(GeneratedGroup(d, gens))
    GeneratedGroup(5, [perm("(1 2)", 5), perm("(1 2 3 4 5)", 5)])
    state = random.getstate()
    try:
        random.seed("not the build's seed")
        seeded = random.getstate()
        second = _chain_snapshot(GeneratedGroup(d, gens))
        assert random.getstate() == seeded
    finally:
        random.setstate(state)
    assert second == first


# -- normal closure ---------------------------------------------------------

def test_normal_closure_transposition_in_s3():
    g = GeneratedGroup(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
    assert normal_closure([perm("(1 2)", 3)], g).order == 6


def test_normal_closure_in_d4():
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
    n = normal_closure([perm("(1 2)(3 4)", 4)], g)
    assert n.order == 4
    raw = [tuple(x - 1 for x in p.images) for p in g.generators]
    expected = o_normal_closure([(1, 0, 3, 2)], o_closure(raw))
    assert n.order == len(expected)


def test_normal_closure_of_identity():
    g = GeneratedGroup(3, [perm("(1 2 3)", 3)])
    assert normal_closure([Permutation.identity(3)], g).order == 1
    assert normal_closure([], g).order == 1


def test_normal_closure_membership_required():
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4)])
    with pytest.raises(MembershipError):
        normal_closure([perm("(1 2)", 4)], g)


@settings(max_examples=25, deadline=None)
@given(small_groups_st(max_degree=5), st.data())
def test_normal_closure_matches_oracle(g, data):
    elements = list(g.elements())
    sub = [data.draw(st.sampled_from(elements))]
    n = normal_closure(sub, g)
    for s in sub:
        assert s in n
    for gen in g.generators:
        for s in n.generators:
            assert gen * s * gen.inverse() in n
    raw_sub = [tuple(x - 1 for x in s.images) for s in sub]
    raw_all = {tuple(x - 1 for x in e.images) for e in elements}
    assert n.order == len(o_normal_closure(raw_sub, raw_all))


@pytest.mark.parametrize("d", range(6, 11))
def test_incremental_normal_closure_matches_fresh_chain(d):
    rng = random.Random(f"normal-closure/{d}")
    cycles = braid_walk_tuple(rng, d)
    g = GeneratedGroup(d, cycles)
    stab = point_stabilizer(g, 1)
    cases = [(cycles[:1], g), ([cycles[0] * cycles[1]], g),
             ([stab.generators[0]], stab),
             (stab.generators[:2], stab)]
    for sub, ambient in cases:
        n = normal_closure(sub, ambient)
        assert n.order == GeneratedGroup(d, n.generators).order
        assert all(s in n for s in sub)
        assert all(c * s * c.inverse() in n
                   for c in ambient.generators for s in n.generators)


# -- least congruence -------------------------------------------------------

def congruence(g, pairs) -> tuple:
    """``_congruence`` on g's generators and 1-based pairs, as 1-based
    blocks."""
    return tuple(tuple(x + 1 for x in b) for b in _congruence(
        [h._raw for h in g.generators], g.degree,
        [(x - 1, y - 1) for x, y in pairs]))


def assert_blocks_are_normal_closure_orbits(g, joins):
    elements = {tuple(x - 1 for x in e.images) for e in g.elements()}
    closure = o_normal_closure([tuple(x - 1 for x in s.images) for s in joins],
                               elements)
    expected = tuple(tuple(x + 1 for x in part)
                     for part in o_point_orbits(list(closure), g.degree))
    assert congruence(g, [(x, s(x)) for s in joins
                          for x in range(1, g.degree + 1)]) == expected


@settings(max_examples=40, deadline=None)
@given(small_groups_st(max_degree=5), st.data())
def test_least_congruence_matches_normal_closure_orbits(g, data):
    elements = g.elements()
    joins = data.draw(st.lists(st.sampled_from(elements), max_size=3))
    assert_blocks_are_normal_closure_orbits(g, joins)


@pytest.mark.parametrize("gens, joins", [
    # intransitive: S_3 x C_2 on {1, 2, 3} and {4, 5}, then D4 on 1..4
    # fixing 5 and 6
    (["(1 2)", "(1 2 3)", "(4 5)"], ["(1 2)"]),
    (["(1 2)", "(1 2 3)", "(4 5)"], ["(4 5)"]),
    (["(1 2 3 4)", "(1 3)"], ["(1 3)(2 4)"]),
    (["(1 2 3 4)", "(1 3)"], ["(1 3)"]),
    (["(1 2 3 4)", "(1 3)"], []),
    (["(1 2 3 4)", "(1 3)"], ["id", "id"]),
    (["(1 2 3 4 5 6)"], ["(1 3 5)(2 4 6)"]),
    (["id"], []),
], ids=["s3_x_c2_left", "s3_x_c2_right", "d4_centre", "d4_reflection",
        "empty_joins", "identity_joins", "c6_subgroup", "trivial"])
def test_least_congruence_cases(gens, joins):
    d = 6
    g = GeneratedGroup(d, [perm(t, d) for t in gens])
    assert_blocks_are_normal_closure_orbits(g, [perm(t, d) for t in joins])


def test_least_congruence_reads_no_chain():
    """The blocks come from the generators' images alone."""
    g = GeneratedGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
    g._levels = None
    assert congruence(g, [(1, 3), (2, 4), (3, 1), (4, 2)]) == \
        ((1, 3), (2, 4))


# -- transitivity -----------------------------------------------------------

def test_transitivity_cases():
    s3 = GeneratedGroup(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
    c4 = GeneratedGroup(4, [perm("(1 2 3 4)", 4)])
    c2 = GeneratedGroup(3, [perm("(1 2)", 3)])
    assert transitivity(s3) is Transitivity.TWO_TRANSITIVE
    assert transitivity(c4) is Transitivity.TRANSITIVE
    assert transitivity(c2) is Transitivity.INTRANSITIVE


def test_transitivity_degree_one():
    assert transitivity(GeneratedGroup(1, [Permutation.identity(1)])) is Transitivity.TRANSITIVE


@settings(max_examples=40, deadline=None)
@given(small_groups_st(max_degree=6), permutations_st(max_degree=6))
def test_transitivity_conjugation_invariant(g, s):
    if s.degree != g.degree:
        s = Permutation.identity(g.degree)
    conj = GeneratedGroup(g.degree,
                          [s * p * s.inverse() for p in g.generators])
    assert transitivity(conj) is transitivity(g)


@settings(max_examples=60, deadline=None)
@given(small_groups_st(max_degree=7), st.data())
def test_transitivity_matches_brute_force_orbits(g, data):
    d = g.degree
    p = data.draw(st.integers(min_value=1, max_value=first_moved(g)))
    word = data.draw(st.lists(st.sampled_from(g.generators), max_size=4))
    w = Permutation.identity(d)
    for x in word:
        w = w * x
    stab = point_stabilizer(g, p)
    closure = normal_closure([w], g)
    stab2 = point_stabilizer(point_stabilizer(g, 1), min(2, d))
    for h in (g, stab, closure,
              GeneratedGroup(d, stab.generators + closure.generators),
              GeneratedGroup(d, stab2.generators + closure.generators)):
        assert transitivity(h).value == o_transitivity(_raws(h), d)
    assert_refused_past_first_moved(g)


def test_transitivity_matches_brute_force_in_degree_one():
    g = GeneratedGroup(1, [Permutation.identity(1)])
    assert transitivity(g).value == o_transitivity(_raws(g), 1) == "transitive"


def test_chain_reads_make_no_orbit_bfs(monkeypatch):
    """Groups, their stabilizers, closures and joins, transitivity and the
    validation of a valid cover read the stabilizer chain, never the pair
    search or any other orbit search in ``perm``."""
    import ramify.perm
    from ramify.cover import BranchedCover, validate

    def refuse(*args, **kwargs):
        raise AssertionError("an orbit search in perm was called")

    for name in ("orbits", "_pair_orbits", "_orbits"):
        monkeypatch.setattr(ramify.perm, name, refuse)
    cycles = braid_walk_tuple(random.Random("chain-reads"), 6)
    g = GeneratedGroup(6, cycles)
    stab = point_stabilizer(g, 1)
    stab2 = point_stabilizer(stab, 2)
    with pytest.raises(ValueError, match="moves a point"):
        point_stabilizer(g, 3)
    closure = normal_closure(cycles[:1], g)
    assert transitivity(g) is Transitivity.TWO_TRANSITIVE
    assert (transitivity(stab) is transitivity(stab2)
            is Transitivity.INTRANSITIVE)
    joined = GeneratedGroup(6, stab.generators + closure.generators)
    assert transitivity(joined) is Transitivity.TWO_TRANSITIVE
    assert validate(BranchedCover(6, 0, (), tuple(cycles))).valid


# -- misc -------------------------------------------------------------------

def test_naive_closure_matches_group_order():
    gens = [perm("(1 2 3 4)", 4), perm("(1 3)", 4)]
    assert len(naive_closure(gens)) == GeneratedGroup(4, gens).order


def test_naive_closure_cap():
    gens = [perm("(1 2 3 4 5 6 7 8)", 8), perm("(1 2)", 8)]
    with pytest.raises(ValueError):
        naive_closure(gens, cap=100)


def test_cycle_type_and_transposition():
    p = perm("(1 2)(3 4 5)", 6)
    assert p.cycle_type() == (3, 2, 1)
    assert perm("(1 2)", 2).is_transposition()
    assert not perm("(1 2)(3 4)", 4).is_transposition()


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


@pytest.mark.parametrize("call", [
    lambda: Permutation([2.0, 1.0]),
    lambda: Permutation([True, 2]),
    lambda: Permutation(["1"]),
    lambda: Permutation.from_cycle([1.0, 2.0], 3),
    lambda: Permutation.from_cycle([True, 2], 3),
    lambda: transversal(GeneratedGroup(2, [perm("(1 2)", 2)]), 1.0),
    lambda: point_stabilizer(GeneratedGroup(2, [perm("(1 2)", 2)]), True),
], ids=["float_images", "bool_image", "str_image", "float_cycle",
        "bool_cycle", "float_transversal", "bool_stabilizer"])
def test_non_integer_points_are_refused(call):
    """A point is an int and not a bool; anything else is a ValueError,
    never a TypeError later or a float image accepted."""
    with pytest.raises(ValueError):
        call()
