import functools
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ramify
from ramify import numono
from ramify.cover import total_space_genus
from ramify.numono import (
    MAX_COEFFICIENT_BITS,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POLY_DEGREE,
    MAX_TEXT_LENGTH,
    NonGenericError,
    PolyParseError,
    RelationViolationError,
    SingularCurveError,
    TrackingAmbiguityError,
    certify_projection,
    parse_poly,
    track_monodromy,
)
from ramify.perm import Permutation, format_cycles

from oracles import ScalarFloat64, full_loop_cycles, min_sep


# curve -> (finite branch cycles in sweep order, infinity cycle, genus)
KNOWN = {
    # hyperelliptic y^2 = f(x): a transposition over each root of f, and
    # one over infinity when deg f is odd
    "y^2 - x^3 + x": (["(1 2)"] * 3, "(1 2)", 1),
    "y^2 - x^5 + x": (["(1 2)"] * 5, "(1 2)", 2),
    "y^2-(x^2-1)*(x^2-4)": (["(1 2)"] * 4, "id", 1),
    # x = y^3 - 3y: simple critical values at x = -2, 2, a 3-cycle at infinity
    "y^3 - 3*y - x": (["(2 3)", "(1 2)"], "(1 2 3)", 0),
}


# the curves of the bench workload ``curves`` of degree at most 5
BENCH_SMALL = ["y^2 - x^3 + x", "y^4 + x^4 + x*y - 1", "y^3 - x^2*y + x^4 - 2",
               "y^5 + x*y + x^5 + 3", "y^2 - x^5 + 2*x - 1", "y^3 + y - x^7"]

# curves whose leading y-coefficient has roots, none of them critical
NON_MONIC = ["x*y^2 + y + x^2 - 3", "(x^2+1)*y^2 + x*y + 1"]


@functools.lru_cache(maxsize=None)
def tracked(text):
    return track_monodromy(parse_poly(text))


@pytest.mark.parametrize("text", sorted(KNOWN))
def test_monodromy_of_known_curves(text):
    finite, infinity, genus = KNOWN[text]
    result = tracked(text)
    assert [format_cycles(t.cycle) for t in result.loops] == finite
    assert format_cycles(result.infinity_cycle) == infinity
    assert total_space_genus(result.cover) == genus


@pytest.mark.parametrize("text", sorted(KNOWN))
def test_branch_cycle_relation(text):
    result = tracked(text)
    product = result.infinity_cycle
    for t in reversed(result.loops):
        product = t.cycle * product
    assert product.is_identity()


def test_cubic_projection_has_full_symmetric_group():
    report = certify_projection(parse_poly("y^3 - 3*y - x"),
                                result=tracked("y^3 - 3*y - x"))
    assert report.group_order == 6
    assert report.is_full_symmetric
    assert report.infinity_kind == "cycle type (3,)"


def test_singular_curve_refused():
    with pytest.raises(SingularCurveError):
        track_monodromy(parse_poly("y^2 - x^3"))


@pytest.mark.parametrize("text, error, message", [
    ("x^2 + x", ValueError, "y-degree 0 < 2"),
    ("y - y", ValueError, "zero polynomial"),
    ("(y - x)^2*(y + 1)", NonGenericError, "not squarefree in y"),
])
def test_polynomial_outside_the_model_refused(text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_poly(text)


@pytest.mark.parametrize("text, error, message", [
    ("x*y^2 - x^2 - x", SingularCurveError, "vertical-line component"),
    # the critical values are +-1e-12 i
    ("y^2 - x^2 + 1/10^24", NonGenericError,
     "critical values within tolerance of each other (separation 2e-12)"),
])
def test_curve_outside_the_model_refused_before_tracking(text, error,
                                                         message):
    with pytest.raises(error, match=re.escape(message)):
        track_monodromy(parse_poly(text))


@pytest.mark.parametrize("text", [
    "y^4 - 2*x*y^2 + x^3 - 1",
    # totally ramified over 0: the discriminant has a multiple root there
    "y^3 - x",
])
def test_non_generic_projection_refused(text):
    with pytest.raises(NonGenericError):
        track_monodromy(parse_poly(text))


@pytest.mark.parametrize("text", NON_MONIC)
def test_non_monic_projection_certifies(text):
    p = parse_poly(text)
    report = certify_projection(p, result=tracked(text))
    loops = report.result.loops
    assert report.group_order == 2 and report.is_full_symmetric
    lc_degree = len(p.rows[-1]) - 1
    assert sum(t.kind == "lc_root" for t in loops) == lc_degree > 0
    # one sheet goes through infinity over a root of the leading coefficient
    assert all(t.cycle.is_identity() for t in loops if t.kind == "lc_root")
    genericity = report.to_json_dict()["monodromy"]["genericity"]
    assert genericity["leading_coefficient_constant"] is False


def test_leading_coefficient_roots_are_newton_polished():
    # raw np.roots gives 2.78e-17 - 1i and 0.9999999999999997i here
    loops = tracked("(x^2+1)*y^2 + x*y + 1").to_json_dict()["loops"]
    assert [t["value"] for t in loops if t["kind"] == "lc_root"] == \
        [[0.0, -1.0], [0.0, 1.0]]


@pytest.mark.parametrize("text", ["y^3 - 3*y - x", "y^4 + x^4 + x*y - 1"]
                         + NON_MONIC)
def test_y_resultant_is_lc_times_discriminant(text):
    """Res_y(p, dp/dy) = (-1)^(d(d-1)/2) lc Disc_y(p), the identity from
    which ``critical_values`` divides lc out."""
    import sympy

    p = parse_poly(text)
    x, y = p.poly.gens
    e = p.poly.as_expr()
    d = p.y_degree
    expected = ((-1) ** (d * (d - 1) // 2) * sympy.Poly(e, y).LC()
                * sympy.discriminant(e, y))
    assert numono.y_resultant_with_dy(p) == sympy.Poly(expected, x,
                                                      domain="QQ")


@pytest.mark.parametrize("text", [
    # two sheets go to infinity over x = 2 and x = 0, ramified there
    "(x-2)*y^3 + y - x",
    "x*y^2 - 1 - x^3",
])
def test_leading_coefficient_at_a_critical_value_refused(text):
    with pytest.raises(NonGenericError, match="leading coefficient vanishes "
                                              "at a critical value"):
        track_monodromy(parse_poly(text))


@pytest.mark.parametrize("text", ["y^2 - 1", "(y - x)*(y - x - 1)"])
def test_reducible_curve_refused(text):
    with pytest.raises(NonGenericError, match="intransitive"):
        track_monodromy(parse_poly(text))


# curves that certify S_d with a ramified or unramified infinity
MIXED = ["y^4 - 3*x^2 + 2*y + x^3 + 4",
         "y^5 + 2*y^2 - x^2*y + 2*x*y^4 + x^3 - 2",
         "y^6 + y + 5*x^2*y - x^6 - 1", "y^7 - 2*x^2*y + x^6 - 5"]


@pytest.mark.parametrize("text", sorted(set(KNOWN) | set(BENCH_SMALL))
                         + NON_MONIC + MIXED)
def test_transport_matches_full_loops(text):
    """The graded, shared transport against every loop tracked on its own,
    on the oracle's uniform grid."""
    result = tracked(text)
    cycles, infinity = full_loop_cycles(parse_poly(text), result)
    assert cycles == tuple(t.cycle for t in result.loops)
    assert infinity == result.infinity_cycle


@pytest.mark.parametrize("text", ["y^4 + x^4 + x*y - 1"] + NON_MONIC)
def test_transport_tracks_each_piece_once(monkeypatch, text):
    """One stub down to the rail, one rail segment, one ascent and one circle
    per target, and the stub and circle at infinity: no piece twice and no
    segment both ways."""
    real = numono._track
    pieces = []

    def track(piece, fiber, rows):
        pieces.append(piece)
        return real(piece, fiber, rows)

    monkeypatch.setattr(numono, "_track", track)
    result = track_monodromy(parse_poly(text))
    assert len(pieces) == len(set(pieces)) == 3 * len(result.loops) + 3
    segments = {(s.a, s.b) for s in pieces if isinstance(s, numono._Seg)}
    assert not [(a, b) for a, b in segments if a != b and (b, a) in segments]


def _bits(roots) -> bytes:
    return np.asarray(roots, dtype=complex).tobytes()


@pytest.mark.parametrize("text", BENCH_SMALL + ["y^8 + x*y + x^3 - 1"]
                         + NON_MONIC)
def test_batched_fibers_equal_per_point_roots(monkeypatch, text):
    """Every fiber the tracker solves, on a grid or at a midpoint, is bit
    for bit the ``np.roots`` of that point's coefficients, and comes with
    its least root separation."""
    p = parse_poly(text)
    scalar = ScalarFloat64(p)
    real = numono._fibers
    solved = []

    def fibers(rows, zs):
        roots, seps = real(rows, zs)
        solved.extend(zip(zs, roots, seps))
        return roots, seps

    monkeypatch.setattr(numono, "_fibers", fibers)
    track_monodromy(p)
    assert len(solved) > 100
    for z, roots, sep in solved:
        expected = scalar.fiber(z)
        assert _bits(roots) == _bits(expected)
        assert sep == min_sep(expected)


@pytest.mark.parametrize("text, zs", [
    # the constant y-coefficient -x^3 + x vanishes at 0 and 1
    ("y^2 - x^3 + x", [2j, 0j, 1 + 0j, 0.5 - 1j]),
    # at x = 0 the fiber is y^3 - 3*y, so one root is exactly 0
    ("y^3 - 3*y - x", [0j, 1 + 1j, 0j]),
])
def test_batched_fibers_keep_np_roots_at_a_zero_constant_term(text, zs):
    scalar = ScalarFloat64(parse_poly(text))
    roots, seps = numono._fibers(scalar.coeff_polys, zs)
    assert [_bits(fiber) for fiber in roots] == \
        [_bits(scalar.fiber(z)) for z in zs]
    assert list(seps) == [min_sep(scalar.fiber(z)) for z in zs]
    assert 0 in roots[zs.index(0j)]
    assert _bits(numono._fibers(scalar.coeff_polys, [0j])[0][0]) == \
        _bits(scalar.fiber(0j))


def test_first_unsolvable_grid_point_refuses_the_call(monkeypatch):
    """The first point of a grid that cannot be solved refuses the whole
    call before any point is solved, and the message names it: a vanishing
    leading coefficient as a TrackingAmbiguityError, coefficients beyond
    float64 as a NonGenericError, whichever comes first."""
    solves = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: solves.append(a) or eigvals(a))
    rows = ScalarFloat64(parse_poly("x*y^2 + y + x^2 - 3")).coeff_polys
    with pytest.raises(TrackingAmbiguityError, match=r"at x = 0j$"):
        numono._fibers(rows, [1 + 0j, 1j, 0j, 2 + 0j])
    # the leading coefficient 1e300*x vanishes at 0; at 1e10 it overflows
    # with the constant coefficient, so only the float64 test refuses there
    rows = [[-1 + 0j, -1e300 + 0j], [0j], [0j, 1e300 + 0j]]
    with pytest.raises(TrackingAmbiguityError, match=r"at x = 0j$"):
        numono._fibers(rows, [1 + 0j, 0j, 1e10 + 0j])
    with pytest.raises(NonGenericError, match=r"x = \(10000000000\+0j\)"):
        numono._fibers(rows, [1 + 0j, 1e10 + 0j, 0j])
    assert solves == []
    assert len(numono._fibers(rows, [1 + 0j, 2 + 0j])[0]) == 2


@pytest.mark.parametrize("text", ["y^4 + x^4 + x*y - 1",
                                  "y^8 + x*y + x^3 - 1"])
def test_each_tracked_fiber_is_separated_once(monkeypatch, text):
    """Each solved fiber's separation is computed once, with its roots: a
    step reuses the separation of the fiber it accepted last.  Beyond that,
    each piece computes its start fiber's and each circle its two end
    fibers', and ``critical_values`` the critical values' once."""
    counts = Counter()

    def count(owner, name, size=lambda *args: 1):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] += size(*args)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(numono, "_fibers", lambda rows, zs: len(zs))
    count(numono, "_separations", len)
    # a batched call matches as many steps as its fibers' leading axis
    count(numono, "_match", lambda old, *rest: len(old) if old.ndim > 1
          else 1)
    for name in ("_track", "_circle_permutation", "critical_values"):
        count(numono, name)
    track_monodromy(parse_poly(text))
    assert counts["_match"] > 100
    assert counts["_separations"] == (counts["_fibers"] + counts["_track"]
                                      + 2 * counts["_circle_permutation"]
                                      + counts["critical_values"])
    assert counts["critical_values"] == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2 ** -52, 1e300, -1e300]),
), min_size=2, max_size=12))
def test_least_gap_is_the_least_pairwise_distance(values):
    brute = min(abs(a - b) for i, a in enumerate(values)
                for b in values[i + 1:])
    assert numono._least_gap(values) == brute


def test_least_gap_on_ties_and_conjugate_pairs():
    assert numono._least_gap([3.0, 1.0, 3.0, 2.0]) == 0.0
    assert numono._least_gap([0.5, -0.25, 0.5 + 2 ** -53, 7.0]) == 2 ** -53
    assert numono._least_gap([1.0]) == math.inf
    rng = np.random.default_rng(9)
    for _ in range(50):
        values = list(rng.integers(-5, 5, 6) * 0.1 + rng.normal(size=6)
                      * rng.integers(0, 2, 6))
        assert numono._least_gap(values) == min_sep(
            [complex(v, 0) for v in values])


#: SHA-256 of ``json.dumps(certify_projection(parse_poly(t)).to_json_dict())``
#: for the bench curves that certify and the non-monic curves, recorded from
#: the implementation that re-solved and clustered each critical fiber.
GOLDEN_CERTIFY = {
    "y^2 - x^3 + x":
        "d5a93530349959f52e71ad0a50d1362ee819275ab11d64625ca5df4be68881ad",
    "y^4 + x^4 + x*y - 1":
        "17c845dd05193867be87cfddbae7483c2619910fc0f0111f31dfc8c8285b3594",
    "y^6 + x^3*y - x + 1":
        "e21db7f1583bb6c77b82806137e14276800a303c8e15e9ce71233f57140ab06f",
    "y^3 - x^2*y + x^4 - 2":
        "2b09a4d964293418048204d634b011cec26d9aa4f8f97a734530c9677aac7c79",
    "y^5 + x*y + x^5 + 3":
        "69ea52215c9fa353f845a20a9d5c43b6b2edcbbcc0234ce6f645bc9c080a7144",
    "y^2 - x^5 + 2*x - 1":
        "7362e792765a390d1b02296eabebabc67b3ef5874be5f57dfeb0bda67932f7c4",
    "y^3 + y - x^7":
        "d8a1b0c9bf4954bd0073c7b23e455c696e1b0c0eab5c8e89280a6216cccec950",
    "y^7 + x^2*y + x - 1":
        "85c1ce4c95f897851dfe89c913542ef6c34a472e812959f60e06d053d428a10f",
    "y^8 + x*y + x^3 - 1":
        "9af961fa45fe7eaabff373ed0ccc54c949d704147e63b605d907a743e9f5b779",
    "x*y^2 + y + x^2 - 3":
        "197f4a5472033c9738ca9dff1ab34d07ff69eba087c168f535ae7a5ce9ced5d5",
    "(x^2+1)*y^2 + x*y + 1":
        "8343825daa06f82bb77109e3d4b9139f62cca8646088a449d551c41532bac5a2",
}


@pytest.mark.parametrize("text", sorted(GOLDEN_CERTIFY))
def test_certify_projection_json_matches_recorded(text):
    doc = json.dumps(certify_projection(parse_poly(text)).to_json_dict())
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_CERTIFY[text]
    # each critical fiber's pattern is its loop's cycle type
    for loop in json.loads(doc)["monodromy"]["loops"]:
        if loop["kind"] == "critical":
            assert loop["fiber_pattern"] == [2] + [1] * (len(
                loop["fiber_pattern"]) - 1) and loop["ordinary"]


@pytest.mark.parametrize("text", sorted(GOLDEN_CERTIFY)
                         + ["y^2 - x^3", "y^4 - 2*x*y^2 + x^3 - 1"])
def test_no_curve_is_all_flexes(text):
    """Corollary 2's non-flex hypothesis holds for every curve certified or
    refused here: the Hessian H of the homogenised curve F is not a multiple
    of F, so F meets its Hessian curve, whose points are its flexes, in
    finitely many points."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    p = parse_poly(text)
    n = max(i + j for i, j in p.coeffs)
    F = sympy.expand(sum(v * x ** i * y ** j * z ** (n - i - j)
                         for (i, j), v in p.coeffs.items()))
    H = sympy.hessian(F, (x, y, z)).det()
    _, remainder = sympy.reduced(H, [F], x, y, z)
    assert remainder != 0


def test_certify_projection_builds_the_monodromy_group_once(monodromy_builds):
    report = certify_projection(parse_poly("y^4 + x^4 + x*y - 1"))
    assert monodromy_builds == [report.result.cover.all_generators()]


@pytest.mark.parametrize("text", [
    "y^2 +", "y^2 + (x", "y^2 + x)", "y^2 + 3/0", "y^2 + x^y", "y^2 $ x", "",
])
def test_malformed_polynomial_refused(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


@pytest.mark.parametrize("text, position", [
    ("y\u00b2 + x", 1),          # superscript two
    ("y^2 + \u0663*x", 6),       # Arabic-Indic three
    ("y^\uff12 + x", 2),         # fullwidth two
])
def test_non_ascii_digit_refused_at_its_position(text, position):
    with pytest.raises(PolyParseError, match="unexpected character") as err:
        parse_poly(text)
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    # ideographic space, no-break space: whitespace is ASCII only
    ("y^2 +\u3000x", 5),
    ("y^2\u00a0+ x", 3),
])
def test_non_ascii_whitespace_refused_at_its_position(text, position):
    with pytest.raises(PolyParseError, match="unexpected character") as err:
        parse_poly(text)
    assert err.value.position == position
    assert parse_poly(" y^2\t+\r\nx\f\v") == parse_poly("y^2 + x")


@pytest.mark.parametrize("text", ["x^100000000 + y^2", "(x+y)^100000",
                                  "1/3^100000000 + y^2"])
def test_huge_power_refused_before_expanding(text):
    import sympy  # noqa: F401  the one-time import is not the parser's cost

    start = time.perf_counter()
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(text)
    assert time.perf_counter() - start < 0.5


def test_rational_literal_power_binds_to_the_denominator():
    """``a/b^n`` is a/(b^n), as sympy reads it; (a/b)^n needs parentheses,
    and a second power is trailing input, as after any other power."""
    assert parse_poly("3/2^2*x + y^2").coeffs == {
        (1, 0): Fraction(3, 4), (0, 2): 1}
    assert parse_poly("(3/2)^2*x + y^2").coeffs == {
        (1, 0): Fraction(9, 4), (0, 2): 1}
    assert parse_poly("-5/7^0*x + y^2").coeffs == {(1, 0): -5, (0, 2): 1}
    with pytest.raises(PolyParseError, match="trailing input"):
        parse_poly("3/2^2^2*x + y^2")
    with pytest.raises(PolyParseError, match="degree bound") as err:
        parse_poly(f"y^2 + 3/2^{MAX_POLY_DEGREE + 1}")
    assert err.value.position == 10


@pytest.mark.parametrize("text", ["0^0*x + y^2", "(x - x)^0*x + y^2",
                                  "(x - x)^3 + x + y^2", "0^2 + x + y^2"])
def test_powers_of_zero(text):
    """Every base to the power 0 is 1, and 0 to a positive power is 0."""
    assert parse_poly(text) == parse_poly("x + y^2")


def test_degree_bound_on_products_and_powers():
    half = MAX_POLY_DEGREE // 2
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(f"x^{half} * x^{MAX_POLY_DEGREE - half + 1} + y^2")
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(f"(x*y)^{half + 1} + y^2")
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(f"2^{MAX_POLY_DEGREE + 1} + y^2")
    p = parse_poly(f"x^{half} * x^{MAX_POLY_DEGREE - half} + y^2")
    assert max(i for i, _ in p.coeffs) == MAX_POLY_DEGREE


@pytest.mark.parametrize("text", [
    # 6.2 s to refuse as not squarefree, and 2.1 s to parse, without the bound
    "(1+x+y)^100",
    "(1+x+y)^100 + x",
    # 0.3 s to expand, then sympy.gcd ran for more than 10 minutes
    "(" + "9" * MAX_LITERAL_DIGITS + "*x + y + 1)^32",
    # four terms, but a dense size of 100 * 101 * 3,322 bits: sympy.gcd
    # ran for more than 40 s
    "y^100 + " + "9" * MAX_LITERAL_DIGITS + "*x^99*y + "
    + "7" * MAX_LITERAL_DIGITS + "*x + 1",
    # 35 s in all without the bound
    "(1/3+x-1/7*y)^50*(2+x+5*y)^50",
], ids=["power", "power plus x", "wide literal power", "sparse wide",
        "rational power product"])
def test_coefficient_size_refused_before_the_squarefree_test(text,
                                                              monkeypatch):
    import sympy

    def refuse(*args, **kwargs):
        raise AssertionError("sympy.gcd was called")

    monkeypatch.setattr(sympy, "gcd", refuse)
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match="exceeds size bound"):
        parse_poly(text)
    assert time.perf_counter() - start < 0.5


def test_size_bound_on_products_powers_and_the_result():
    """(1 + x + y)^n forms C(n + 2, 2) terms of at most 3n bits: n = 54 is
    the largest power under the size bound.  Expanding many small terms
    is bounded by their number, and the result by its dense size."""
    assert parse_poly("(1+x+y)^54 + x").y_degree == 54
    with pytest.raises(PolyParseError, match="power exceeds size") as err:
        parse_poly("(1+x+y)^55 + x")
    assert err.value.position == 8
    # C(35, 30) = 324,632 and 861 * 861 terms of a few bits each
    with pytest.raises(PolyParseError, match="power forms more than"):
        parse_poly("(1+x+y+x^2+x*y+y^2)^30 + y^2")
    square = "(" + " + ".join(f"x^{i}*y^{j}" for i in range(41)
                              for j in range(41 - i)) + ")"
    with pytest.raises(PolyParseError, match="product forms more than"):
        parse_poly(f"{square}*{square} + y^2")
    # 9 * 9 coefficients of 3,322 bits: no product or power is near the
    # bound, but the sum is
    literal = "9" * MAX_LITERAL_DIGITS
    assert 81 * 3322 > MAX_COEFFICIENT_BITS
    with pytest.raises(PolyParseError, match="polynomial exceeds size bound"):
        parse_poly(" + ".join(f"{literal}*x^{i}*y^{j}" for i in range(9)
                              for j in range(9)))


def _box_text(x_degree: int, y_degree: int, bits: int,
              denominator: int = 1) -> str:
    """The canonical text of the polynomial with every monomial x^i y^j of
    i <= x_degree, j <= y_degree and total degree at most MAX_POLY_DEGREE,
    with distinct odd numerators of ``bits`` bits over ``denominator`` and
    alternating signs."""
    monomials = [(i, j) for i in range(x_degree + 1)
                 for j in range(y_degree + 1) if i + j <= MAX_POLY_DEGREE]
    return numono.format_poly({
        m: Fraction((2 ** bits - 1 - 2 * k) * (-1) ** k, denominator)
        for k, m in enumerate(monomials)})


def test_text_length_refused_before_parsing(monkeypatch):
    """Every summand copies the running sum, so a long sum of small terms
    took seconds unbounded: about 2 s for 20,000 monomials (233 KB) and 8 s
    for 80,000 (930 KB).  The length is refused first, before the parser
    builds its sympy ring."""
    def refuse():
        raise AssertionError("the parser built its ring")

    monkeypatch.setattr(numono, "_ring", refuse)
    monomials = [f"x^{i}*y^{j}" for i in range(MAX_POLY_DEGREE + 1)
                 for j in range(MAX_POLY_DEGREE + 1 - i)]
    for n in (20_000, 80_000):
        text = " + ".join(itertools.islice(itertools.cycle(monomials), n))
        assert len(text) > MAX_TEXT_LENGTH
        start = time.perf_counter()
        with pytest.raises(PolyParseError, match="text longer than") as err:
            parse_poly(text)
        assert time.perf_counter() - start < 0.1
        assert err.value.position == MAX_TEXT_LENGTH


@pytest.mark.parametrize("shape", [
    # a dense 50 x 50 rectangle of 100-bit coefficients
    (50, 50, 100),
    # the degree-100 triangle of 24-bit coefficients
    (100, 100, 24),
    # the longest canonical text found inside the other bounds: the 70 x 70
    # box cut at total degree 100, 4,221 numerators of 50 bits over 2
    (70, 70, 50, 2),
], ids=["rectangle", "triangle", "longest"])
def test_long_canonical_texts_parse(shape):
    text = _box_text(*shape)
    assert 100_000 < len(text) <= MAX_TEXT_LENGTH
    p = parse_poly(text)
    assert str(p) == text


@pytest.mark.parametrize("prefix", ["y^2 + ", "y^2 + 1/", "y^2 + x^"])
def test_overlong_literal_refused_at_its_position(prefix):
    with pytest.raises(PolyParseError, match="numeric literal") as info:
        parse_poly(prefix + "1" * 5000)
    assert info.value.position == len(prefix)
    parse_poly("y^2 + " + "1" * MAX_LITERAL_DIGITS)


def test_nesting_bound():
    def nested(depth):
        return "(" * depth + "x" + ")" * depth + " + y^2"

    with pytest.raises(PolyParseError, match="nested") as info:
        parse_poly(nested(MAX_NESTING + 1))
    assert info.value.position == MAX_NESTING
    with pytest.raises(PolyParseError, match="nested"):
        parse_poly(nested(300))
    assert parse_poly(nested(MAX_NESTING)) == parse_poly("y^2 + x")


def _fractions(poly) -> dict:
    """The coefficients of a sympy ``Poly`` in (x, y) as Fractions."""
    return {k: Fraction(int(v.p), int(v.q)) for k, v in poly.as_dict().items()}


@st.composite
def _sum_texts(draw, depth=2):
    """A text in the parser's grammar, a signed sum of products of powers,
    with a bound on its total degree.  Any atom may be raised to a power,
    a rational literal ``a/b`` too, which both readings take as a/(b^n)."""
    atoms = ["x", "y", "int", "a/b"] + (["sum"] if depth else [])
    terms, bound = [], 0
    for k in range(draw(st.integers(1, 3))):
        factors, degree = [], 0
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(atoms))
            if kind == "int":
                text, deg = str(draw(st.integers(0, 10 ** 30))), 0
            elif kind == "a/b":
                text = f"{draw(st.integers(0, 999))}/{draw(st.integers(1, 999))}"
                deg = 0
            elif kind == "sum":
                inner, deg = draw(_sum_texts(depth - 1))
                text = f"({inner})"
            else:
                text, deg = kind, 1
            if draw(st.booleans()):
                n = draw(st.integers(0, 3))
                text, deg = f"{text}^{n}", deg * n
            factors.append(text)
            degree += deg
        sign = draw(st.sampled_from(["", "-", "+"] if k == 0 else [" - ", " + "]))
        terms.append(sign + "*".join(factors))
        bound = max(bound, degree)
    return "".join(terms), bound


def _dense_bits(coeffs: dict) -> int:
    """The size ``parse_poly`` bounds the polynomial it returns by:
    (x-degree + 1)(y-degree + 1) times the bits of the largest numerator
    plus twice those of the common denominator."""
    den = math.lcm(*(q.denominator for q in coeffs.values()))
    bits = (max((abs(q.numerator).bit_length() for q in coeffs.values()),
                default=0) + 2 * (den - 1).bit_length())
    return ((max((i for i, _ in coeffs), default=0) + 1)
            * (max((j for _, j in coeffs), default=0) + 1) * bits)


@settings(max_examples=100, deadline=None)
@given(_sum_texts().filter(lambda text_bound: text_bound[1] <= 12))
# a draw of the strategy whose polynomial is over the size bound
@example(("-y^2 + y*((x*1000000000000000000000000000000^3 + y - 119/518"
          "*788/909)^3 - x*y + 154/870*x)^3", 10))
def test_parse_matches_sympy(text_bound):
    """The parser's exact arithmetic against sympy's own reading of the same
    text.  The generated sum s enters as (s)*y^2 + y^3 + x, which is nearly
    always a valid curve; one that is zero, of y-degree below 2 or not
    squarefree in y is refused after parsing, with a ValueError that is not
    a ``PolyParseError``.  Rarely, sympy's polynomial is larger than the
    parser's size bound, and exactly then the parser refuses it for its
    size: no product or power this strategy builds comes near the bound."""
    import sympy

    text = f"({text_bound[0]})*y^2 + y^3 + x"
    x, y = sympy.symbols("x y")
    exact = sympy.Poly(sympy.sympify(text.replace("^", "**")), x, y,
                       domain="QQ")
    if _dense_bits(_fractions(exact)) > MAX_COEFFICIENT_BITS:
        with pytest.raises(PolyParseError, match="polynomial exceeds size"):
            parse_poly(text)
    elif (exact.is_zero or exact.degree(y) < 2
            or sympy.gcd(exact, exact.diff(y)).degree(y) > 0):
        with pytest.raises(ValueError) as err:
            parse_poly(text)
        assert not isinstance(err.value, PolyParseError)
    else:
        assert parse_poly(text).coeffs == _fractions(exact)


#: the 11 curves of the bench workload ``curves``: 9 certify, 2 are refused
BENCH_CURVES = sorted(set(GOLDEN_CERTIFY) - set(NON_MONIC)) + [
    "y^2 - x^3", "y^4 - 2*x*y^2 + x^3 - 1"]


@pytest.mark.parametrize("text", BENCH_CURVES)
@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(2, 7)])
def test_shear_matches_sympy_substitution(text, lam):
    import sympy

    p = parse_poly(text)
    x, y = p.poly.gens
    sheared = p.poly.as_expr().subs(x, x + sympy.Rational(lam.numerator,
                                                         lam.denominator) * y)
    assert p.shear(lam).coeffs == _fractions(sympy.Poly(sheared, x, y,
                                                        domain="QQ"))


def _tracking_passes(monkeypatch, error=None):
    """The list of curves tracked, one per pass: each pass finds the
    critical values once.  With ``error`` each pass raises it instead of
    tracking, from its first path piece."""
    real_critical_values, real_track = numono.critical_values, numono._track
    passes = []

    def critical_values(p):
        passes.append(p)
        return real_critical_values(p)

    def track(piece, fiber, rows):
        if error:
            raise error("forced")
        return real_track(piece, fiber, rows)

    monkeypatch.setattr(numono, "critical_values", critical_values)
    monkeypatch.setattr(numono, "_track", track)
    return passes


def test_tracking_ambiguity_is_not_retried(monkeypatch):
    passes = _tracking_passes(monkeypatch, TrackingAmbiguityError)
    with pytest.raises(TrackingAmbiguityError, match="forced"):
        track_monodromy(parse_poly("y^2 - x^3 + x"))
    assert len(passes) == 1


def test_fiber_refused_where_the_leading_coefficient_vanishes():
    rows = ScalarFloat64(parse_poly("x*y^2 + y + x^2 - 3")).coeff_polys
    with pytest.raises(TrackingAmbiguityError, match="leading coefficient"):
        numono._fibers(rows, [0j])
    assert len(numono._fibers(rows, [1j])[0][0]) == 2


def test_step_that_never_matches_is_refused(monkeypatch):
    """No step holds, so the first step of the first piece is bisected
    depth first until it is shorter than ``STEP_TOLERANCE``.  That piece
    runs from the base point, at distance 1 + spread = 3 from the nearest
    target, to the rail about 3 below it, so its first step is the cap of
    1/8 of the piece: that takes 31 halvings, each solving one midpoint,
    after the one-point solve of the base fiber."""
    passes = _tracking_passes(monkeypatch)
    real = numono._fibers
    single = []

    def fibers(rows, zs):
        if len(zs) == 1:
            single.append(zs[0])
        return real(rows, zs)

    monkeypatch.setattr(numono, "_fibers", fibers)
    monkeypatch.setattr(numono, "SAFETY_FACTOR", 1e12)
    with pytest.raises(TrackingAmbiguityError, match="root matching failed"):
        track_monodromy(parse_poly("y^2 - x^3 + x"))
    assert len(passes) == 1
    assert len(single) == 32


def test_circle_whose_end_cannot_be_matched_is_refused(monkeypatch):
    real = numono._track

    def track(piece, fiber, rows):
        end = real(piece, fiber, rows)
        return [end[0]] * len(end) if isinstance(piece, numono._Arc) else end

    monkeypatch.setattr(numono, "_track", track)
    with pytest.raises(TrackingAmbiguityError, match="after a circle"):
        track_monodromy(parse_poly("y^2 - x^3 + x"))


def test_short_base_fiber_is_refused(monkeypatch):
    real = numono._fibers

    def fibers(rows, zs):
        roots, seps = real(rows, zs)
        return roots[:, 1:], seps

    monkeypatch.setattr(numono, "_fibers", fibers)
    with pytest.raises(TrackingAmbiguityError, match="base fiber"):
        track_monodromy(parse_poly("y^2 - x^3 + x"))


def test_relation_failure_is_raised_after_one_pass(monkeypatch):
    """A wrong cycle at infinity breaks the relation, and the violation is
    raised from the only tracking pass."""
    real = numono._circle_permutation
    passes = _tracking_passes(monkeypatch)

    def circle_permutation(fiber, circle, rows):
        perm = real(fiber, circle, rows)
        clockwise = circle.theta1 < circle.theta0
        return Permutation.identity(len(fiber)) if clockwise else perm

    monkeypatch.setattr(numono, "_circle_permutation", circle_permutation)
    with pytest.raises(RelationViolationError, match=r"c_inf = \(1 2\) != id"):
        track_monodromy(parse_poly("y^2 - x^3 + x"))
    assert len(passes) == 1


def test_the_relation_is_checked_on_the_assembled_cover(monkeypatch):
    """Identity loops change no product, so the relation is read off the
    one cover that tracking assembles and returns."""
    built = []
    real = numono.BranchedCover

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(numono, "BranchedCover", counted)
    result = track_monodromy(parse_poly("y^2 - x^3 + x"))
    assert len(built) == 1 and result.cover is built[0]


def test_mistracked_critical_loop_is_refused(monkeypatch):
    """Two critical loops of y^2 - x^3 + x mis-tracked as the identity keep
    the relation, as (1 2)(1 2) = id, and would assemble a valid cover with
    group S_2.  A critical loop must be a transposition, so the track is
    refused instead of certified."""
    real = numono._circle_permutation
    wrong = []

    def circle_permutation(fiber, circle, rows):
        perm = real(fiber, circle, rows)
        counterclockwise = circle.theta1 > circle.theta0
        if counterclockwise and len(wrong) < 2:
            wrong.append(perm)
            return Permutation.identity(len(fiber))
        return perm

    monkeypatch.setattr(numono, "_circle_permutation", circle_permutation)
    with pytest.raises(RelationViolationError,
                       match=r"has cycle id, not a transposition"):
        certify_projection(parse_poly("y^2 - x^3 + x"))
    assert [str(p) for p in wrong] == ["(1 2)", "(1 2)"]


@pytest.mark.parametrize("text, product", [
    ("y^9 - x^9 + x^6*y^2 + 50*x^2 - 20", "(1 4 9 5 2 7 8)"),
])
def test_wrong_track_is_refused_in_one_pass(monkeypatch, text, product):
    """A real wrong track, refused by the relation after the single float64
    pass.  No step is accepted wrongly here: 16 of the 72 critical values,
    in two clusters of 8 near x = +-0.633 whose true values lie 2e-4 apart,
    come out of ``critical_values`` up to 6e-3 off, farther than their loop
    radii, so those loops enclose no branch point.  The group is S_9."""
    passes = _tracking_passes(monkeypatch)
    with pytest.raises(RelationViolationError,
                       match=re.escape(f"c_inf = {product} != id")):
        track_monodromy(parse_poly(text))
    assert len(passes) == 1


@pytest.mark.parametrize("text", ["y^8 - x^8 - 2000*x^2*y - 1",
                                  "y^8 + x^8 - 2000*x^3*y - 20"])
def test_wide_coefficient_curves_certify_s8(text):
    """On the uniform grid of 8 steps per segment and pi/16 per circle step
    a wrong match was accepted on these curves and the relation refused
    them; graded by the distance to the nearest target, their tracks give
    the S_8 that the exact Dedekind and discriminant certificate gives."""
    report = certify_projection(parse_poly(text))
    loops = report.result.loops
    assert report.group_order == math.factorial(8) == 40_320
    assert all(t.cycle.is_transposition() for t in loops
               if t.kind == "critical")
    product = report.result.infinity_cycle
    for t in reversed(loops):
        product = t.cycle * product
    assert product.is_identity()


def _tracked_grids(monkeypatch) -> tuple:
    """The (piece, grid parameters) of every piece ``_track`` transports,
    after checking that its one grid solve is at exactly those points, and
    the points of every ``_fibers`` call."""
    real_track, real_fibers = numono._track, numono._fibers
    grids, solves = [], []

    def fibers(rows, zs):
        solves.append(list(zs))
        return real_fibers(rows, zs)

    def track(piece, fiber, rows):
        start = len(solves)
        end = real_track(piece, fiber, rows)
        ts = piece.grid()
        assert solves[start] == [piece.at(t) for t in ts]
        grids.append((piece, ts))
        return end

    monkeypatch.setattr(numono, "_fibers", fibers)
    monkeypatch.setattr(numono, "_track", track)
    return grids, solves


@pytest.mark.parametrize("text", sorted(set(GOLDEN_CERTIFY) - set(NON_MONIC)))
def test_grids_are_graded_by_the_nearest_target(monkeypatch, text):
    """Each segment step is at most 1/8 of the piece and at most
    ``STEP_FRACTION`` of the distance from its start to the nearest loop
    target, and ends at exactly 1; each loop circle, whose reach is its
    radius, takes ceil(2 pi / STEP_FRACTION) = 13 uniform steps."""
    grids, _ = _tracked_grids(monkeypatch)
    result = track_monodromy(parse_poly(text))
    targets = [t.value for t in result.loops]
    kappa = numono.STEP_FRACTION
    loops = 0
    for piece, ts in grids:
        assert ts[-1] == 1.0 and ts == sorted(set(ts))
        if isinstance(piece, numono._Seg):
            length = abs(piece.b - piece.a)
            for t0, t1 in zip([0.0] + ts, ts):
                reach = min(abs(piece.at(t0) - w) for w in targets)
                assert t1 - t0 <= 1 / 8 * (1 + 1e-12)
                assert (t1 - t0) * length <= kappa * reach * (1 + 1e-12)
        elif piece.theta1 > piece.theta0:
            loops += 1
            assert len(ts) == math.ceil(2 * math.pi / kappa) == 13
            assert ts == [(k + 1) / 13 for k in range(13)]
    assert loops == len(result.loops)


def test_grid_and_bisection_counts_are_pinned(monkeypatch):
    """On the degree-8 bench curve the graded grids hold 833 points, and 7
    fibers are solved one point at a time: the base fiber and 6 bisection
    midpoints.  The uniform grid of 8 steps per segment and pi/16 per
    circle step solved 1,078 grid points and 161 single points."""
    grids, solves = _tracked_grids(monkeypatch)
    track_monodromy(parse_poly("y^8 + x*y + x^3 - 1"))
    assert sum(len(ts) for _, ts in grids) == 833
    assert sum(len(zs) == 1 for zs in solves) == 7


# curves whose y-degree is their total degree, so a shear keeps the degree
@pytest.mark.parametrize("text", ["y^4 + x^4 + x*y - 1",
                                  "y^5 + x*y + x^5 + 3"])
@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(2, 7), Fraction(0)])
def test_general_projection_after_shear(text, lam):
    """A general projection of a smooth plane curve of degree d has exactly
    d(d - 1) critical values, the class of the curve by Pluecker's formula,
    each a transposition; it is unramified at infinity, and the cover has
    the genus (d - 1)(d - 2)/2 of the degree-genus formula."""
    p = parse_poly(text)
    d = p.y_degree
    q = p.shear(lam)
    assert (q == p) == (lam == 0)
    report = certify_projection(q)
    assert report.result.degree == q.y_degree == d
    assert report.group_order == math.factorial(d)
    assert report.is_full_symmetric
    assert total_space_genus(report.result.cover) == (d - 1) * (d - 2) // 2
    critical = [t.cycle for t in report.result.loops if t.kind == "critical"]
    assert len(critical) == len(report.result.loops) == d * (d - 1)
    assert all(c.is_transposition() for c in critical)
    assert report.infinity_kind == "unramified" and report.full_morse


@pytest.mark.parametrize("text, exponent", [
    ("y^2 - " + "9" * 400 + "*x - 1", "400.6"),
    # the critical value -10^400 is lost if the slope 4/10^400 rounds to 0
    ("y^2 - 1/1" + "0" * 400 + "*x - 1", "-399.4"),
], ids=["overflow", "underflow"])
def test_value_beyond_float64_is_non_generic(text, exponent):
    """A literal the parser accepts can still lie outside the float64 range
    of the numerical steps; it is refused with the documented error, not an
    ``OverflowError`` or, rounded to 0, a wrong verdict."""
    with pytest.raises(NonGenericError,
                       match=rf"about 10\^{exponent} lies outside the "
                             "float64 range"):
        certify_projection(parse_poly(text))


def test_critical_value_beyond_float64_is_non_generic():
    """The coefficients fit in float64 but the critical value -10^400 does
    not: ``np.roots`` cannot solve its companion matrix."""
    text = "y^2 - 1/1" + "0" * 200 + "*x - 1" + "0" * 200
    with pytest.raises(NonGenericError, match="outside the float64 range"):
        certify_projection(parse_poly(text))


def test_constant_leading_coefficient_is_never_refused():
    """Only a leading coefficient that can vanish is compared with the
    others: a monic curve with a wide coefficient scale certifies."""
    report = certify_projection(parse_poly("y^2 - " + "9" * 300 + "*x - 1"))
    assert report.group_order == 2
    assert report.infinity_kind == "transposition"


def test_fiber_with_coefficients_beyond_float64_is_non_generic():
    """A point where the monic fiber polynomial leaves the float64 range is
    refused, as a NonGenericError."""
    rows = [[-1 + 0j, -1e300 + 0j], [0j], [1 + 0j]]
    assert len(numono._fibers(rows, [1 + 0j])[0][0]) == 2
    with pytest.raises(NonGenericError, match="outside the float64 range"):
        numono._fibers(rows, [1 + 0j, 1e10 + 0j])


def test_package_import_leaves_sympy_unloaded():
    """sympy is imported by the exact steps that use it, never at import:
    loading it takes about 0.4 s and doubles the resident memory of a
    process that only needs the group layer."""
    code = ("import sys, ramify.cover, ramify.fiber, ramify.gen, ramify.numono; "
            "print('sympy' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ramify.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
