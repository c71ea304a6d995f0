"""Numerical monodromy for plane curves.

From an exact bivariate polynomial p(x, y), squarefree in y, this module
computes the critical x-values of the projection (x, y) -> x, tracks the
fiber along closed loops to read off branch cycles, and assembles a
BranchedCover over the line.

Everything algebraic is exact (rational arithmetic; resultants and the
singularity test go through sympy); only root-finding and path tracking are
floating point, and those produce discrete permutations whose defining
relation is checked exactly -- a wrong track cannot pass silently.

sympy is imported lazily, by the functions that use it: importing it takes
about 0.4 s and doubles the resident memory, which a caller that only needs
the group layer should not pay.  The parser builds its result in sympy's
sparse ring Q[x, y], so sympy loads when parsing starts: malformed text pays
the one-time import too, but every size bound is still checked before the
work it guards: a literal before ``int()``, a product or power before it
is expanded, the result before the squarefree test.

Path layout.  All loops share a base point to the right of every critical
value and a rail far below them.  Transport along a path is a groupoid, so
no piece is tracked twice and nothing is retraced: the base fiber is
tracked once down to the rail, the rail is walked once away from there
keeping the fiber at each foot, and each target costs an ascent and a
counterclockwise circle.  Matching the fiber after the circle against the
fiber before it gives the loop's permutation, as both are labelled by the
base fiber.  The ascents follow a sweep direction chosen so that no two
targets (nor the base point) share a sweep coordinate -- real curves often
have conjugate critical pairs with equal real parts, so the default upward
direction is rotated slightly when needed.  With cycles in sweep order and
the cycle at infinity read from one clockwise circle around every target,
reached by a stub from the base point, the relation c_1 ... c_r . c_inf = id
holds exactly by construction; it is verified on every run.  The assembled
cover is then valid but for transitivity: its context is built unchecked,
and an intransitive group, a reducible curve, is a ``NonGenericError``.

Critical fibers are not solved: over a critical value of a smooth affine
curve where the leading coefficient does not vanish (``reject_singular``
and ``critical_values`` ensure both), the root multiplicities are the
ramification indices, so a loop's ``fiber_pattern`` is its cycle type.  As
the discriminant is squarefree, each critical fiber has exactly one double
root, so a critical loop whose tracked cycle is not a transposition is a
mis-track and is refused, like a failed relation.

Tracking.  Each path piece has a fixed grid of initial steps, and its
fibers are solved together: ``_fibers`` stacks the companion matrices that
``np.roots`` would build at the grid points into one ``eigvals`` call, so
the roots are exactly those of ``np.roots``, and computes the least root
separation of every grid fiber in one array operation.  A step matches the
fiber it holds to the next grid fiber by nearest neighbours on a d x d
distance array; every root's move must stay under the lesser of the two
separations divided by ``SAFETY_FACTOR``, and the separation of the
accepted fiber is carried into the next step, so no separation is computed
twice along a piece.  A failing step is bisected, solving one midpoint at a
time, never below ``STEP_TOLERANCE`` on the path parameter, which also
bounds how close two critical values may be.  A grid point that cannot be
solved refuses its piece before any of the piece's steps is matched.

Tracking runs once, in float64.  Every exact value
enters float64 through ``_complex``, which refuses one beyond its range as
a ``NonGenericError``.  A failed relation is a ``RelationViolationError``:
the step rule accepted a step it should not have, and more digits in the
root solves cannot undo that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from string import whitespace
from typing import Sequence

import numpy as np

from .cover import BranchedCover, cover_to_json_dict, relation_product
from .fiber import CoverContext
from .perm import Permutation, Transitivity, format_cycles, transitivity


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class NonGenericError(ValueError):
    """The projection violates a genericity hypothesis (multiple
    discriminant root, leading coefficient vanishing at a critical value,
    coincident sweep coordinates beyond repair, ...), or an exact value the
    numerical steps read lies outside the float64 range (magnitude above
    about 1.8e308, or nonzero below about 4.9e-324)."""


class SingularCurveError(ValueError):
    """The affine curve has a singular point (p, dp/dx, dp/dy share a zero)
    or a vertical-line component; out-of-model input."""


class TrackingAmbiguityError(RuntimeError):
    """Root matching failed within the refinement budget; never resolved by
    guessing."""


class RelationViolationError(RuntimeError):
    """The tracked cycles do not satisfy c_1 ... c_r . c_inf = id, or a
    critical loop's cycle is not a transposition: some accepted step
    matched roots wrongly."""


# ---------------------------------------------------------------------------
# exact bivariate polynomials over Q

def _ring():
    """sympy's sparse ring Q[x, y]; its elements are dicts keyed by
    (x_power, y_power) with rational values."""
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    return ring("x,y", QQ)[0]


class PlanePolynomial:
    """Exact bivariate polynomial, squarefree in y, with y-degree >= 2.

    ``rows[j]`` holds the ascending Fraction coefficients in x of y^j, so
    ``rows[-1]`` is the leading y-coefficient; the numeric steps read them.
    ``poly`` holds the polynomial as a sympy ``Poly`` in the generators
    (x, y) over QQ; every exact step reads it.  Both are built once."""

    __slots__ = ("coeffs", "y_degree", "rows", "poly")

    def __init__(self, coeffs: dict):
        """``coeffs`` maps (x_power, y_power) to a rational: a Fraction, an
        int or an element of sympy's QQ under either ground type."""
        import sympy

        clean = {k: Fraction(int(v.numerator), int(v.denominator))
                 for k, v in coeffs.items() if v}
        if not clean:
            raise ValueError("zero polynomial")
        self.coeffs = clean
        self.y_degree = max(j for _, j in clean)
        if self.y_degree < 2:
            raise ValueError(f"y-degree {self.y_degree} < 2")
        rows = [[Fraction(0)] * (max((i for i, j in clean if j == k),
                                     default=0) + 1)
                for k in range(self.y_degree + 1)]
        for (i, j), v in clean.items():
            rows[j][i] = v
        self.rows = tuple(tuple(row) for row in rows)
        x, y = sympy.symbols("x y")
        # from_dict converts the values of the dict it is given in place
        self.poly = sympy.Poly.from_dict(dict(clean), x, y, domain="QQ")
        common = sympy.gcd(self.poly, self.poly.diff(y)).degree(y)
        if common > 0:
            raise NonGenericError(
                f"polynomial is not squarefree in y (gcd with dp/dy has "
                f"y-degree {common})")

    def shear(self, lam: Fraction) -> "PlanePolynomial":
        """Substitute x <- x + lam*y."""
        ring = _ring()
        x, y = ring.gens
        return PlanePolynomial(ring.from_dict(self.coeffs).compose(
            x, x + Fraction(lam) * y))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PlanePolynomial)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        return format_poly(self.coeffs)

    def __repr__(self) -> str:
        return f"parse_poly({str(self)!r})"


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_poly(coeffs: dict) -> str:
    """Canonical printer: terms by (total degree, x-power) descending."""
    keys = sorted(coeffs, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
    pieces = []
    for idx, (i, j) in enumerate(keys):
        v = coeffs[(i, j)]
        sign = "-" if v < 0 else "+"
        mag = abs(v)
        factors = []
        if mag != 1 or (i == 0 and j == 0):
            factors.append(_frac_str(mag))
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        term = "*".join(factors)
        if idx == 0:
            pieces.append(term if sign == "+" else "-" + term)
        else:
            pieces.append(f" {sign} {term}")
    return "".join(pieces)


# -- parser ------------------------------------------------------------------

#: Largest total degree the parser builds, and largest exponent it accepts
#: on any base.  Products and powers expand eagerly in sympy's ring Q[x, y],
#: which the parser imports sympy to build, so both are checked before
#: expanding; degree 8 is the largest curve the tracker is used on.
MAX_POLY_DEGREE = 100

#: Longest digit run in a numeric literal (coefficient, denominator or
#: exponent), checked before ``int()``, which refuses runs above 4,300.
MAX_LITERAL_DIGITS = 1000

#: Deepest parenthesis nesting; the parser recurses once per level.
MAX_NESTING = 100

#: Longest text the parser reads, checked before anything else: each
#: summand copies the running sum, so without it parse time grows with the
#: number of summands, however small each is.  The longest canonical text
#: found inside the other bounds has 128,576 characters: every monomial of the
#: 70 x 70 box up to total degree 100, with 50-bit numerators over 2.
MAX_TEXT_LENGTH = 2 ** 17

#: Largest size, in coefficient bits, of a product or power the parser
#: expands and of the polynomial it returns: the degree bound alone bounds
#: neither the expansion nor the squarefree test.  A size is terms times
#: bits per coefficient (see ``_size``).  A product or power is sized before
#: it is expanded, from its operands: at most the terms it forms before like
#: terms merge, and at most the monomials of its degree.  The polynomial is
#: sized by its dense count (x-degree + 1)(y-degree + 1), which the cost of
#: sympy's gcd follows, not by its terms.  This bound and the next were set
#: by measurement: on a 2-core x86-64 host (CPython 3.11, sympy 1.14 without
#: gmpy2) the slowest inputs built to sit just under them parse in under
#: 1 s, the dense degree-100 triangle of 24-bit coefficients in 0.7-0.9 s;
#: unbounded, (1+x+y)^100 took 6 s and (c*x + y + 1)^32, with c of 1,000
#: digits, more than 10 minutes.
MAX_COEFFICIENT_BITS = 2 ** 18

#: Most terms one product or power may form before like terms merge: t_a t_b
#: for a product, C(t + n - 1, n) for a t-term base to the n.  Their number,
#: not their size, is the cost of expanding many small terms.
MAX_EXPANSION_TERMS = 2 ** 17


def _total_degree(a: dict) -> int:
    return max((i + j for i, j in a), default=0)


def _size(a) -> tuple:
    """(terms, bits) of a ring element a = n/D, with n integral and D the
    least common denominator: ``bits`` bounds the bits of D plus those of
    n's largest coefficient, which has at most log2 D more than a's."""
    den = math.lcm(*(c.denominator for c in a.values()))
    return len(a), (max((abs(c.numerator).bit_length() for c in a.values()),
                        default=0) + 2 * (den - 1).bit_length())


def _check_expansion(formed: int, degree: int, bits: int, what: str,
                     pos: int) -> None:
    """Refuse a product or power of total degree ``degree`` that forms
    ``formed`` terms of at most ``bits`` bits before like terms merge, when
    they are too many or their result too large."""
    if formed > MAX_EXPANSION_TERMS:
        raise PolyParseError(
            f"{what} forms more than {MAX_EXPANSION_TERMS} terms", pos)
    terms = min(formed, (degree + 1) * (degree + 2) // 2)
    if terms * bits > MAX_COEFFICIENT_BITS:
        raise PolyParseError(
            f"{what} exceeds size bound {MAX_COEFFICIENT_BITS} bits", pos)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.ring = _ring()

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in whitespace:
            self.pos += 1
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        if "0" <= ch <= "9":
            j = self.pos
            while j < len(self.text) and "0" <= self.text[j] <= "9":
                j += 1
            if j - self.pos > MAX_LITERAL_DIGITS:
                raise PolyParseError(
                    f"numeric literal longer than {MAX_LITERAL_DIGITS} digits",
                    self.pos)
            return ("num", int(self.text[self.pos:j]), self.pos)
        if ch in "xy":
            return ("var", ch, self.pos)
        if ch in "+-*^/()":
            return (ch, ch, self.pos)
        raise PolyParseError(f"unexpected character {ch!r}", self.pos)

    def take(self):
        kind, value, pos = self.peek()
        if kind == "num":
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
        elif kind != "end":
            self.pos += 1
        return kind, value, pos


def _parse_expr(lx: _Lexer):
    kind, _, _ = lx.peek()
    negate = False
    if kind in ("+", "-"):
        lx.take()
        negate = kind == "-"
    acc = _parse_term(lx)
    if negate:
        acc = -acc
    while True:
        kind, _, _ = lx.peek()
        if kind not in ("+", "-"):
            return acc
        lx.take()
        term = _parse_term(lx)
        acc = acc - term if kind == "-" else acc + term


def _parse_term(lx: _Lexer):
    acc = _parse_factor(lx)
    while True:
        kind, _, _ = lx.peek()
        if kind != "*":
            return acc
        _, _, pos = lx.take()
        factor = _parse_factor(lx)
        degree = _total_degree(acc) + _total_degree(factor)
        if degree > MAX_POLY_DEGREE:
            raise PolyParseError(
                f"product exceeds degree bound {MAX_POLY_DEGREE}", pos)
        # each coefficient of n_a n_b sums at most min(t_a, t_b) products
        (ta, ba), (tb, bb) = _size(acc), _size(factor)
        _check_expansion(ta * tb, degree,
                         ba + bb + (min(ta, tb) - 1).bit_length(),
                         "product", pos)
        acc = acc * factor


def _exponent(lx: _Lexer, base):
    """The n of a '^n' that follows, or None; base^n is checked against
    the degree and size bounds before any power is computed."""
    if lx.peek()[0] != "^":
        return None
    lx.take()
    kind, n, pos = lx.take()
    if kind != "num":
        raise PolyParseError("exponent must be a non-negative integer", pos)
    degree = _total_degree(base) * n
    if n > MAX_POLY_DEGREE or degree > MAX_POLY_DEGREE:
        raise PolyParseError(f"power exceeds degree bound {MAX_POLY_DEGREE}",
                             pos)
    # each coefficient of n_a^n is at most (t 2^bits)^n; base^0 is 1
    terms, bits = _size(base)
    _check_expansion(math.comb(terms + n - 1, n) if n else 1, degree,
                     n * (bits + (terms - 1).bit_length()), "power", pos)
    return n


def _parse_factor(lx: _Lexer):
    kind, value, _ = lx.peek()
    base = _parse_atom(lx)
    if kind == "num" and lx.peek()[0] == "/":
        lx.take()
        dkind, den, dpos = lx.take()
        if dkind != "num" or den == 0:
            raise PolyParseError("denominator must be a positive integer",
                                 dpos)
        # a/b^n is a/(b^n): the power binds to the denominator alone
        n = _exponent(lx, lx.ring(den))
        return lx.ring(Fraction(value, den ** (1 if n is None else n)))
    n = _exponent(lx, base)
    if n is None:
        return base
    # sympy refuses 0**0; here every base to the power 0 is 1
    return base ** n if n else lx.ring.one


def _parse_atom(lx: _Lexer):
    kind, value, pos = lx.take()
    if kind == "num":
        return lx.ring(value)
    if kind == "var":
        return lx.ring.gens["xy".index(value)]
    if kind == "(":
        lx.depth += 1
        if lx.depth > MAX_NESTING:
            raise PolyParseError(
                f"parentheses nested deeper than {MAX_NESTING}", pos)
        inner = _parse_expr(lx)
        ckind, _, cpos = lx.take()
        if ckind != ")":
            raise PolyParseError("expected ')'", cpos)
        lx.depth -= 1
        return inner
    raise PolyParseError("expected number, variable or '('", pos)


def parse_poly(text: str) -> PlanePolynomial:
    """Parse a polynomial in x, y with integer or rational coefficients and
    operators + - * ^ (and a/b rational literals).  A power binds tighter
    than a literal's '/', so ``a/b^n`` is a/(b^n), as in sympy.  The result
    is validated: nonzero, y-degree >= 2, squarefree in y.  A text longer
    than ``MAX_TEXT_LENGTH`` is refused before it is read."""
    if len(text) > MAX_TEXT_LENGTH:
        raise PolyParseError(
            f"text longer than {MAX_TEXT_LENGTH} characters", MAX_TEXT_LENGTH)
    lx = _Lexer(text)
    coeffs = _parse_expr(lx)
    kind, _, pos = lx.peek()
    if kind != "end":
        raise PolyParseError("trailing input", pos)
    dense = ((max((i for i, _ in coeffs), default=0) + 1)
             * (max((j for _, j in coeffs), default=0) + 1))
    if dense * _size(coeffs)[1] > MAX_COEFFICIENT_BITS:
        raise PolyParseError(f"polynomial exceeds size bound "
                             f"{MAX_COEFFICIENT_BITS} bits", 0)
    return PlanePolynomial(coeffs)


# ---------------------------------------------------------------------------
# exact elimination (sympy)

def y_resultant_with_dy(p: PlanePolynomial):
    """Exact Res_y(p, dp/dy) as a sympy ``Poly`` in x over QQ.  It is never
    zero: p is squarefree in y and its leading y-coefficient is nonzero."""
    import sympy

    x, y = p.poly.gens
    return sympy.Poly(sympy.resultant(p.poly, p.poly.diff(y), y), x,
                      domain="QQ")


def reject_singular(p: PlanePolynomial) -> None:
    """Exact rejection of singular affine curves and vertical-line
    components."""
    import sympy

    x, y = p.poly.gens
    # the content of p as a polynomial in y over QQ[x]
    content = p.poly.eject(x).content()
    if sympy.degree(content, x) > 0:
        raise SingularCurveError(
            "curve contains a vertical-line component (non-constant content)")
    basis = sympy.groebner([p.poly, p.poly.diff(x), p.poly.diff(y)], x, y,
                           order="lex", domain="QQ")
    if list(basis.exprs) != [sympy.Integer(1)]:
        raise SingularCurveError(
            "curve has a singular affine point (p, dp/dx, dp/dy share a zero)")


# ---------------------------------------------------------------------------
# numeric helpers

def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    """The ascending ``coeffs`` at z in Python complex arithmetic.  It stays
    scalar: numpy's complex ``a*b + c`` may fuse the multiply and the add,
    which changes the last bits, and on grids of 8 to 33 points an array
    Horner is no faster."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _complex(q: Fraction) -> complex:
    """The exact rational ``q`` as a float64 complex number; every exact
    value the numerical steps read is converted here.  A value too large
    for float64, or nonzero but rounding to 0, is refused."""
    try:
        z = complex(q)
    except OverflowError:
        z = None
    if z is None or (q and not z):
        exponent = math.log10(abs(q.numerator)) - math.log10(q.denominator)
        raise NonGenericError(f"exact value of about 10^{exponent:.1f} lies "
                              f"outside the float64 range")
    return z


_POLISH_STEPS = 3   # Newton steps on each root that np.roots returns


def _polished_roots(coeffs: Sequence[complex]) -> list:
    """The roots of the ascending coefficients ``coeffs`` by ``np.roots``,
    each Newton-polished against them, sorted by (re, im).  A root beyond
    the float64 range, on which ``np.roots`` fails or polishing overflows,
    is refused."""
    arr = np.array(list(reversed(coeffs)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            roots = [_polish(coeffs, complex(r)) for r in np.roots(arr)]
        except np.linalg.LinAlgError:  # its companion matrix overflowed
            roots = [complex(math.inf)]
    if not all(cmath.isfinite(z) for z in roots):
        raise NonGenericError("a root of the discriminant or of the leading "
                              "coefficient lies outside the float64 range")
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _polish(coeffs: Sequence[complex], z: complex) -> complex:
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for _ in range(_POLISH_STEPS):
        dv = _horner(deriv, z)
        if dv == 0:
            return z
        z = z - _horner(coeffs, z) / dv
    return z


# ---------------------------------------------------------------------------
# tracking constants and results

STEP_TOLERANCE = 1e-10    # bisection floor on the path parameter
SAFETY_FACTOR = 3.0       # root move must stay under minsep/safety


@dataclass(frozen=True)
class LoopTarget:
    value: complex
    kind: str                  # "critical" | "lc_root"
    residual: float
    sweep_coordinate: float
    argument: float            # arg(value - base point), reported
    radius: float
    cycle: Permutation | None = None
    fiber_pattern: tuple = ()  # critical value: the cycle type of ``cycle``


@dataclass(frozen=True)
class GenericityReport:
    min_critical_separation: float | None
    leading_coefficient_constant: bool
    issues: tuple

    def to_json_dict(self) -> dict:
        return {
            # critical_values refuses a discriminant that is not squarefree,
            # and track_monodromy a critical loop that is not a transposition
            "discriminant_squarefree": True,
            "min_critical_separation": self.min_critical_separation,
            "leading_coefficient_constant": self.leading_coefficient_constant,
            "one_double_root_per_critical_fiber": True,
            "issues": list(self.issues),
        }


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    polynomial: str
    degree: int
    base_point: complex
    sweep_angle: float
    loops: tuple               # LoopTarget entries, in sweep order
    infinity_cycle: Permutation
    genericity: GenericityReport
    context: CoverContext      # the assembled cover and its group
    used_precision_digits = 16  # float64, the one precision tracking uses

    @property
    def cover(self) -> BranchedCover:
        return self.context.cover

    def to_json_dict(self) -> dict:
        return {
            "schema": "monodromy-result/1",
            "polynomial": self.polynomial,
            "degree": self.degree,
            "base_point": [self.base_point.real, self.base_point.imag],
            "sweep_angle": self.sweep_angle,
            "loops": [
                {
                    "value": [t.value.real, t.value.imag],
                    "kind": t.kind,
                    "residual": t.residual,
                    "sweep_coordinate": t.sweep_coordinate,
                    "argument": t.argument,
                    "radius": t.radius,
                    "cycle": format_cycles(t.cycle),
                    "fiber_pattern": list(t.fiber_pattern),
                    "ordinary": True if t.kind == "critical" else None,
                }
                for t in self.loops
            ],
            "infinity_cycle": format_cycles(self.infinity_cycle),
            "genericity": self.genericity.to_json_dict(),
            "used_precision_digits": self.used_precision_digits,
            "assembled_cover": cover_to_json_dict(self.cover),
        }


# ---------------------------------------------------------------------------
# critical values

@dataclass(frozen=True)
class CriticalData:
    critical: tuple            # complex values, sorted by (re, im)
    residuals: tuple
    lc_roots: tuple
    min_separation: float | None   # None below two critical values


def critical_values(p: PlanePolynomial) -> CriticalData:
    """Roots of the y-discriminant of p and, kept apart, of the leading
    y-coefficient lc, each found numerically and Newton-polished against
    its exact coefficients.

    Res_y(p, dp/dy) = +-lc * Disc_y(p), so the resultant divided exactly by
    lc made monic is a constant multiple of the discriminant (the resultant
    itself when lc is constant).  Non-generic inputs fail loudly: a
    discriminant that is not squarefree (the line is not transverse to the
    dual curve), a pair of roots closer than the step tolerance, or lc
    vanishing at a critical value.
    """
    import sympy

    x = p.poly.gens[0]
    lc_list = p.rows[-1]
    disc = y_resultant_with_dy(p).exquo(
        sympy.Poly(lc_list[::-1], x, domain="QQ").monic())
    if sympy.gcd(disc, disc.diff()).degree() > 0:
        raise NonGenericError(
            "discriminant has a multiple root: projection line is not "
            "transverse to the dual curve")
    cres = [_complex(Fraction(c.p, c.q)) for c in reversed(disc.all_coeffs())]
    roots = _polished_roots(cres)
    mins = float(_separations(np.array(roots, dtype=complex)[None])[0])
    if mins <= STEP_TOLERANCE:
        raise NonGenericError(
            f"critical values within tolerance of each other "
            f"(separation {mins:g})")
    residuals = tuple(abs(_horner(cres, z)) for z in roots)

    lc_roots = []
    if len(lc_list) > 1:
        lc_roots = _polished_roots([_complex(c) for c in lc_list])
        scale = max([1.0] + [abs(z) for z in roots])
        for z in lc_roots:
            if any(abs(z - c) <= 1e3 * STEP_TOLERANCE * scale
                   for c in roots):
                raise NonGenericError(
                    "leading coefficient vanishes at a critical value: the "
                    "projection center lies on the curve closure")
    return CriticalData(
        critical=tuple(roots),
        residuals=residuals,
        lc_roots=tuple(lc_roots),
        min_separation=mins if len(roots) > 1 else None,
    )


# ---------------------------------------------------------------------------
# path pieces

@dataclass(frozen=True)
class _Seg:
    a: complex
    b: complex
    initial_steps = 8

    def at(self, t: float) -> complex:
        return self.a + (self.b - self.a) * t


@dataclass(frozen=True)
class _Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float              # theta1 > theta0: counterclockwise

    def at(self, t: float) -> complex:
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return self.center + self.radius * cmath.exp(1j * th)

    @property
    def initial_steps(self) -> int:
        return max(8, int(abs(self.theta1 - self.theta0) / (math.pi / 16)) + 1)


def _infinity_pieces(x0: complex, targets: list, spread: float) -> tuple:
    """The stub from the base point to a circle around every target, and
    that circle, walked clockwise from the stub's end."""
    center = sum(targets) / len(targets) if targets else 0j
    reach = max([abs(t - center) for t in targets] + [0.0])
    radius = max(abs(x0 - center), reach + 1 + spread)
    direction = (x0 - center) / abs(x0 - center)
    q = center + radius * direction
    theta_q = cmath.phase(direction)
    return _Seg(x0, q), _Arc(center, radius, theta_q, theta_q - 2 * math.pi)


# ---------------------------------------------------------------------------
# fibers

def _fibers(rows: Sequence, zs: Sequence[complex]) -> tuple:
    """The roots over each point of ``zs`` and their least separations, as
    arrays indexed like ``zs``; ``rows[j]`` holds the ascending complex
    coefficients in x of y^j.  The companion matrices ``np.roots`` would
    build are solved in one ``eigvals`` call, so the roots are its roots.
    The first point of ``zs`` where a non-constant leading coefficient
    numerically vanishes, or where the coefficients divided by it leave the
    float64 range, is refused before any point is solved."""
    constant_lc = len(rows[-1]) == 1
    desc, refused = [], []
    for z in zs:
        coeffs = [_horner(row, z) for row in rows]
        if constant_lc:
            refused.append(False)
        else:
            scale = max(abs(c) for c in coeffs)
            refused.append(scale == 0 or abs(coeffs[-1]) < 1e-13 * scale)
        desc.append(coeffs[::-1])
    desc = np.array(desc, dtype=complex)
    with np.errstate(all="ignore"):
        finite = np.isfinite(desc[:, 1:] / desc[:, :1]).all(axis=1)
    unsolvable = np.array(refused) | ~finite
    if unsolvable.any():
        k = int(unsolvable.argmax())
        if refused[k]:
            raise TrackingAmbiguityError(
                f"leading coefficient numerically vanishes on the path "
                f"at x = {zs[k]}")
        raise NonGenericError(f"the fiber at x = {zs[k]} has coefficients "
                              f"outside the float64 range")
    d = desc.shape[1] - 1
    roots = np.zeros((len(zs), d), dtype=complex)
    # np.roots strips a zero constant coefficient, so it solves a smaller
    # companion matrix and appends the root 0; it solves such points
    batch = desc[:, -1] != 0
    companion = np.zeros((np.count_nonzero(batch), d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1
    companion[:, 0, :] = -desc[batch, 1:] / desc[batch, :1]
    roots[batch] = np.linalg.eigvals(companion)
    for k in np.flatnonzero(~batch):
        roots[k] = np.roots(desc[k])
    return roots, _separations(roots)


# ---------------------------------------------------------------------------
# tracking

def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a[..., i] - b[..., j]| at [..., i, j], by ``hypot`` as Python's
    ``abs(complex)`` computes it (``np.abs`` may differ in the last bit)."""
    diff = a[..., :, None] - b[..., None, :]
    return np.hypot(diff.real, diff.imag)


def _separations(fibers: np.ndarray) -> np.ndarray:
    """The least distance between two roots in each row of ``fibers``, or
    infinity in a row of fewer than two."""
    gaps = _distances(fibers, fibers)
    diagonal = np.arange(fibers.shape[-1])
    gaps[..., diagonal, diagonal] = math.inf
    return gaps.min(axis=(-2, -1), initial=math.inf)


def _match(old: np.ndarray, new: np.ndarray, old_sep, new_sep) -> tuple:
    """Nearest-neighbor matching of each step from the fibers ``old[...]``
    to ``new[...]``: old[..., i] -> new[..., best[..., i]], as an index
    array, and per step whether it holds: injective, and no move at or
    above the lesser separation (Python's ``min`` of the two) divided by
    SAFETY_FACTOR.  Matching reads no labels, so a relabelled ``old``
    gives the relabelled ``best``."""
    dist = _distances(old, new)
    best = dist.argmin(axis=-1)
    moves = dist.min(axis=-1)
    least = np.where(new_sep < old_sep, new_sep, old_sep) / SAFETY_FACTOR
    ordered = np.sort(best, axis=-1)
    holds = (~(moves >= least[..., None]).any(axis=-1)
             & (ordered[..., 1:] != ordered[..., :-1]).all(axis=-1))
    return best, holds


def _advance(piece, ta: float, tb: float, old, new, rows) -> np.ndarray:
    """Continue ``old``, the labelled fiber at ``ta`` and its separation,
    to ``new``, the fiber solved at ``tb`` and its separation: old[i] ->
    new[0][result[i]].  A failing step is bisected, depth first, and
    refused once it is shorter than ``STEP_TOLERANCE``."""
    assignment, holds = _match(old[0], new[0], old[1], new[1])
    if holds:
        return assignment
    if (tb - ta) < STEP_TOLERANCE:
        raise TrackingAmbiguityError(
            f"root matching failed near x = {piece.at(tb)}")
    tm = (ta + tb) / 2
    (mid,), (mid_sep,) = _fibers(rows, [piece.at(tm)])
    first = _advance(piece, ta, tm, old, (mid, mid_sep), rows)
    return _advance(piece, tm, tb, (mid[first], mid_sep), new, rows)


def _track(piece, fiber, rows) -> np.ndarray:
    """Transport ``fiber`` along ``piece``: entry k of the result continues
    entry k of ``fiber``.  The piece's grid fibers are solved together, so
    a point that cannot be solved refuses the piece before any step is
    matched.  All steps are matched in one operation, on the unlabelled
    fibers; the labels follow by composing index maps, and only a step that
    fails is bisected, on its labelled fiber."""
    n = piece.initial_steps
    fiber = np.asarray(fiber, dtype=complex)
    grid, grid_seps = _fibers(rows, [piece.at((k + 1) / n) for k in range(n)])
    roots = np.concatenate([fiber[None], grid])
    seps = np.concatenate([_separations(fiber[None]), grid_seps])
    best, holds = _match(roots[:-1], roots[1:], seps[:-1], seps[1:])
    index = np.arange(len(fiber))
    for k in range(n):
        if holds[k]:
            index = best[k][index]
        else:
            index = _advance(piece, k / n, (k + 1) / n,
                             (roots[k][index], seps[k]),
                             (roots[k + 1], seps[k + 1]), rows)
    return roots[-1][index]


def _circle_permutation(fiber, circle: _Arc, rows) -> Permutation:
    """Track ``fiber`` once around the closed ``circle``; entry k ends on
    entry perm(k)."""
    ends = np.array([_track(circle, fiber, rows), fiber], dtype=complex)
    assignment, holds = _match(*ends, *_separations(ends))
    if not holds:
        raise TrackingAmbiguityError(
            "could not identify the fiber after a circle with the fiber "
            "before it")
    return Permutation([j + 1 for j in assignment.tolist()])


# ---------------------------------------------------------------------------
# the pipeline

def _least_gap(values) -> np.ndarray:
    """The least |a - b| over pairs of the reals in each row of ``values``:
    the least gap between neighbours once sorted, since rounded subtraction
    is monotone; infinity in a row of fewer than two."""
    ordered = np.sort(values, axis=-1)
    with np.errstate(over="ignore"):
        gaps = ordered[..., 1:] - ordered[..., :-1]
    return gaps.min(axis=-1, initial=math.inf)


def _choose_sweep(points: list, r: int) -> tuple:
    """Deterministic sweep direction: candidate angles around pi/2, scored
    by the least pairwise separation of the sweep coordinates.  All
    candidates are scored as one array; each coordinate is the real part
    of z * conj(p_hat), computed as Python's complex product computes it,
    in separate float64 operations, none fused with another."""
    if len(points) <= 1:
        return math.pi / 2, [z.real for z in points]
    count = 2 * r * r + 3
    psis = []
    for idx in range(count):
        j = (idx + 1) // 2 * (1 if idx % 2 else -1)  # 0, -1, 1, -2, 2, ...
        psis.append(math.pi / 2 + j * math.pi / (2 * count))
    p_hat = np.array([cmath.exp(1j * (psi - math.pi / 2))
                      for psi in psis])[:, None]
    z = np.array(points, dtype=complex)
    s = z.real * p_hat.real - z.imag * -p_hat.imag
    scores = _least_gap(s)
    best = int(np.argmax(scores))
    if scores[best] <= 0:
        raise NonGenericError("could not separate loop targets along any "
                              "candidate sweep direction")
    return psis[best], s[best].tolist()


def track_monodromy(p: PlanePolynomial) -> MonodromyResult:
    """Track the fiber along one loop per critical value (plus any roots of
    the leading coefficient) and around a large clockwise circle, and
    assemble the branched cover over the line.

    The exact relation c_1 ... c_r . c_inf = id is enforced: tracking runs
    once, in float64, and a violation is raised."""
    reject_singular(p)
    crit = critical_values(p)
    rows = [[_complex(c) for c in row] for row in p.rows]
    d = p.y_degree
    targets = [(z, "critical", res)
               for z, res in zip(crit.critical, crit.residuals)]
    targets += [(z, "lc_root", 0.0) for z in crit.lc_roots]

    values = [t[0] for t in targets]
    spread = max((abs(a - b) for i, a in enumerate(values)
                  for b in values[i + 1:]), default=0.0)
    max_re = max((z.real for z in values), default=0.0)
    x0 = complex(max_re + 1 + spread, 0.0)

    psi, sweep = _choose_sweep(values + [x0], len(values))
    u = cmath.exp(1j * psi)
    p_hat = cmath.exp(1j * (psi - math.pi / 2))
    s_x0 = sweep[-1]

    heights = [(z * u.conjugate()).real for z in values]
    h_rail = min(heights, default=0.0) - (1 + spread)

    radii = {}
    for i, (z, _, _) in enumerate(targets):
        near = min((abs(z - w) for j, (w, _, _) in enumerate(targets)
                    if j != i), default=abs(x0 - z))
        s_gap = min((abs(sweep[i] - sweep[j]) for j in range(len(targets))
                     if j != i), default=abs(s_x0 - sweep[i]))
        radii[i] = min(near, s_gap) / 2

    base_fiber = sorted(_fibers(rows, [x0])[0][0],
                        key=lambda z: (z.real, z.imag))
    if len(base_fiber) != d:
        raise TrackingAmbiguityError("base fiber does not have d points")

    # The rail is walked once, foot by foot in decreasing sweep order from
    # where the base fiber meets it.  Every foot lies on one side of that
    # point: the targets of a rational p are closed under conjugation and
    # the sweep tilts by less than pi/4.
    point = s_x0 * p_hat + h_rail * u
    fiber = _track(_Seg(x0, point), base_fiber, rows)
    theta = cmath.phase(-u)
    loops = []
    for i in sorted(range(len(targets)), key=lambda i: sweep[i], reverse=True):
        z, kind, residual = targets[i]
        foot = sweep[i] * p_hat + h_rail * u
        fiber = _track(_Seg(point, foot), fiber, rows)
        point = foot
        cycle = _circle_permutation(
            _track(_Seg(foot, z - radii[i] * u), fiber, rows),
            _Arc(z, radii[i], theta, theta + 2 * math.pi), rows)
        pattern = cycle.cycle_type() if kind == "critical" else ()
        loops.append(LoopTarget(
            value=z,
            kind=kind,
            residual=residual,
            sweep_coordinate=sweep[i],
            argument=cmath.phase(z - x0),
            radius=radii[i],
            cycle=cycle,
            fiber_pattern=pattern,
        ))
    loops.reverse()

    stub, circle = _infinity_pieces(x0, values, spread)
    c_inf = _circle_permutation(_track(stub, base_fiber, rows), circle, rows)

    branch_cycles = []
    labels = []
    for t in loops:
        if not t.cycle.is_identity():
            branch_cycles.append(t.cycle)
            labels.append(f"x={t.value.real:.12g}"
                          + (f"{t.value.imag:+.12g}i" if t.value.imag else ""))
    if not c_inf.is_identity():
        branch_cycles.append(c_inf)
        labels.append("infinity")
    cover = BranchedCover(degree=d, base_genus=0,
                          branch_cycles=tuple(branch_cycles),
                          labels=tuple(labels))
    product = relation_product(cover)
    if not product.is_identity():
        raise RelationViolationError(
            f"c_1 ... c_r . c_inf = {format_cycles(product)} != id")
    for t in loops:
        if t.kind == "critical" and not t.cycle.is_transposition():
            raise RelationViolationError(
                f"the loop around critical value {t.value:.12g} has cycle "
                f"{format_cycles(t.cycle)}, not a transposition")

    issues = []
    if crit.lc_roots:
        issues.append("leading coefficient vanishes at "
                      f"{len(crit.lc_roots)} point(s): the projection center "
                      "lies on the curve closure")
    genericity = GenericityReport(
        min_critical_separation=crit.min_separation,
        leading_coefficient_constant=len(p.rows[-1]) == 1,
        issues=tuple(issues),
    )

    context = CoverContext(cover, checked=False)
    if transitivity(context.group) is Transitivity.INTRANSITIVE:
        raise NonGenericError(
            "monodromy group is intransitive: the curve is reducible")

    return MonodromyResult(
        polynomial=str(p),
        degree=d,
        base_point=x0,
        sweep_angle=psi,
        loops=tuple(loops),
        infinity_cycle=c_inf,
        genericity=genericity,
        context=context,
    )


# ---------------------------------------------------------------------------
# certification

@dataclass(frozen=True, eq=False)
class ProjectionReport:
    result: MonodromyResult
    finite_cycles_morse: bool
    infinity_kind: str          # "unramified" | "transposition" | cycle type
    full_morse: bool
    genuinely_ramified: bool
    two_transitive: bool
    group_order: int
    is_full_symmetric: bool
    sd_certificate: object      # fiber.SdCertification

    def to_json_dict(self) -> dict:
        return {
            "schema": "projection-report/1",
            "monodromy": self.result.to_json_dict(),
            "finite_cycles_morse": self.finite_cycles_morse,
            "infinity_kind": self.infinity_kind,
            "full_morse": self.full_morse,
            "genuinely_ramified": self.genuinely_ramified,
            "two_transitive": self.two_transitive,
            "group_order": self.group_order,
            "is_full_symmetric": self.is_full_symmetric,
            "sd_certificate": self.sd_certificate.to_json_dict(),
        }


def certify_projection(p: PlanePolynomial,
                       result: MonodromyResult | None = None) -> ProjectionReport:
    """Morse and full-symmetric-group certification of the projection.

    Over the line the cover is automatically genuinely ramified, so the
    certificate reduces to: all finite cycles transpositions (ordinary
    tangents), the infinity cycle trivial or flagged, and the group order
    d!.  When the infinity cycle spoils Morse-ness the group facts are still
    reported (the S_d conclusion via the order check alone).

    The paper's second corollary also asks for a non-flex point.  That
    hypothesis always holds here: in characteristic 0 the flexes of an
    irreducible plane curve of degree >= 2 are the finitely many points
    where it meets its Hessian curve, so no such curve is all flexes."""
    if result is None:
        result = track_monodromy(p)
    finite = [t.cycle for t in result.loops]
    finite_morse = all(c.is_transposition() or c.is_identity() for c in finite)
    c_inf = result.infinity_cycle
    if c_inf.is_identity():
        infinity_kind = "unramified"
    elif c_inf.is_transposition():
        infinity_kind = "transposition"
    else:
        infinity_kind = "cycle type " + str(c_inf.cycle_type())
    ctx = result.context
    group = ctx.group
    return ProjectionReport(
        result=result,
        finite_cycles_morse=finite_morse,
        infinity_kind=infinity_kind,
        full_morse=ctx.morse,
        genuinely_ramified=ctx.genuine.genuinely_ramified,
        two_transitive=transitivity(group) is Transitivity.TWO_TRANSITIVE,
        group_order=group.order,
        is_full_symmetric=group.order == math.factorial(result.degree),
        sd_certificate=ctx.sd_certificate,
    )
