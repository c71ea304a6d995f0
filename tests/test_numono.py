import functools
import time

import pytest

from ramify.cover import total_space_genus
from ramify.numono import (
    MAX_POLY_DEGREE,
    NonGenericError,
    PolyParseError,
    SingularCurveError,
    certify_projection,
    parse_poly,
    track_monodromy,
)
from ramify.perm import format_cycles


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


@functools.lru_cache(maxsize=None)
def tracked(text):
    return track_monodromy(parse_poly(text))


@pytest.mark.parametrize("text", sorted(KNOWN))
def test_monodromy_of_known_curves(text):
    finite, infinity, genus = KNOWN[text]
    result = tracked(text)
    assert [format_cycles(c) for c in result.branch_cycles] == finite
    assert format_cycles(result.infinity_cycle) == infinity
    assert total_space_genus(result.cover) == genus


@pytest.mark.parametrize("text", sorted(KNOWN))
def test_branch_cycle_relation(text):
    result = tracked(text)
    product = result.infinity_cycle
    for c in reversed(result.branch_cycles):
        product = c * product
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


@pytest.mark.parametrize("text", [
    "y^4 - 2*x*y^2 + x^3 - 1",
    # totally ramified over 0: the discriminant has a multiple root there
    "y^3 - x",
])
def test_non_generic_projection_refused(text):
    with pytest.raises(NonGenericError):
        track_monodromy(parse_poly(text))


@pytest.mark.parametrize("text", [
    "y^2 +", "y^2 + (x", "y^2 + x)", "y^2 + 3/0", "y^2 + x^y", "y^2 $ x", "",
])
def test_malformed_polynomial_refused(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


@pytest.mark.parametrize("text", ["x^100000000 + y^2", "(x+y)^100000"])
def test_huge_power_refused_before_expanding(text):
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(text)
    assert time.perf_counter() - start < 0.5


def test_degree_bound_on_products_and_powers():
    half = MAX_POLY_DEGREE // 2
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(f"x^{half} * x^{MAX_POLY_DEGREE - half + 1} + y^2")
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(f"(x*y)^{half + 1} + y^2")
    with pytest.raises(PolyParseError, match="degree bound"):
        parse_poly(f"2^{MAX_POLY_DEGREE + 1} + y^2")
    p = parse_poly(f"x^{half} * x^{MAX_POLY_DEGREE - half} + y^2")
    assert p.x_degree == MAX_POLY_DEGREE
