"""Permutations of {1..d} and finitely generated subgroups of S_d.

One composition convention is used everywhere in this package:
``(a * b)(i) == a(b(i))`` -- the right factor acts first.  Points are
1-based in public signatures and in cycle notation; the packed image
tuples are 0-based and private.

Groups are immutable: the stabilizer chain (full ascending base
1, 2, ..., d) is built once at construction, so instances can be shared
freely across threads.  S_d is recognised exactly and its chain written
down, not built: x ~ y when x = y or (x y) lies in G is a G-invariant
equivalence, so if a generator is a transposition (a b) and the least
G-invariant partition joining a and b is one block, G holds every
transposition.  Every other chain, and every normal closure's, grows by
``_extend``, which sifts one element in and re-completes the levels it
touched; a level keeps its transversal and the Schreier generators it has
already sifted, so none is sifted twice.  Stab(p) and the transversal at
p are read off the chain of a group fixing 1..p-1, shared rather than
rebuilt, and are refused for any other p; no chain is copied or joined.
Nothing else is precomputed: transitivity and two-transitivity are the
sizes of the first two basic orbits of the chain.  Orbits need no chain
at all: one breadth-first search over integer points along 0-based image
tables.  On ordered pairs it is ``_pair_orbits``, on raw generators, the
pair (p, q) being the point d(p-1) + q-1; ``orbits`` is its checked front
end, for pairs only.  Nor do the orbits of a normal closure: they are the
blocks of the least congruence joining each x to s(x), by union-find on
pairs of points.  A point is an int of 1..d wherever one is taken.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from string import whitespace
from typing import Iterable, Sequence


class CycleParseError(ValueError):
    """Malformed cycle notation."""


class DegreeMismatchError(ValueError):
    """Operands act on point sets of different sizes."""


class MembershipError(ValueError):
    """An element required to lie in a group does not."""


# ---------------------------------------------------------------------------
# raw helpers (0-based image tuples)

def _compose(a: tuple, b: tuple) -> tuple:
    """(a o b)(i) = a(b(i)) on 0-based tuples."""
    return tuple([a[x] for x in b])


def _inverse(a: tuple) -> tuple:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _is_identity(a: tuple) -> bool:
    return a == tuple(range(len(a)))


def _moved(a: tuple) -> int:
    """The number of points a moves: 2 exactly for a transposition."""
    return sum(x != i for i, x in enumerate(a))


def _is_point(x, d: int) -> bool:
    """Whether x is one of the points 1..d: an int, and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= d


class Permutation:
    """A bijection of {1..d}."""

    __slots__ = ("_raw",)

    def __init__(self, images: Sequence[int]):
        """Build from 1-based images: ``images[i-1]`` is the image of point i."""
        images = tuple(images)
        d = len(images)
        if not d:
            raise ValueError("degree must be positive")
        if not all(_is_point(i, d) for i in images) or len(set(images)) != d:
            raise ValueError(f"not a bijection of 1..{d}: {list(images)!r}")
        self._raw = tuple(i - 1 for i in images)

    @classmethod
    def _from_raw(cls, raw: tuple) -> "Permutation":
        p = object.__new__(cls)
        p._raw = raw
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._from_raw(tuple(range(degree)))

    @classmethod
    def from_cycle(cls, cycle: Sequence[int], degree: int) -> "Permutation":
        """Single cycle over 1-based points, remaining points fixed."""
        raw = list(cls.identity(degree)._raw)
        for c in cycle:
            if not _is_point(c, degree):
                raise ValueError(f"not a point of 1..{degree}: {c!r}")
        pts = [c - 1 for c in cycle]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {list(cycle)!r}")
        for a, b in zip(pts, pts[1:]):
            raw[a] = b
        if pts:
            raw[pts[-1]] = pts[0]
        return cls._from_raw(tuple(raw))

    @property
    def degree(self) -> int:
        return len(self._raw)

    @property
    def images(self) -> tuple:
        """1-based image sequence."""
        return tuple(x + 1 for x in self._raw)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point; anything else raises ValueError."""
        if not _is_point(point, len(self._raw)):
            raise ValueError(f"not a point of 1..{len(self._raw)}: {point!r}")
        return self._raw[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"degrees {self.degree} and {other.degree} differ")
        return Permutation._from_raw(_compose(self._raw, other._raw))

    def inverse(self) -> "Permutation":
        return Permutation._from_raw(_inverse(self._raw))

    def is_identity(self) -> bool:
        return _is_identity(self._raw)

    def cycles(self, include_fixed: bool = False) -> tuple:
        """Disjoint 1-based cycles, least point first, sorted by least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self._raw[start]
            while nxt != start:
                seen[nxt] = True
                cyc.append(nxt)
                nxt = self._raw[nxt]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(c + 1 for c in cyc))
        return tuple(out)

    def cycle_type(self) -> tuple:
        """Cycle lengths including fixed points, descending."""
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)),
                            reverse=True))

    def is_transposition(self) -> bool:
        return _moved(self._raw) == 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"parse_cycles({format_cycles(self)!r}, {self.degree})"


def format_cycles(p: Permutation) -> str:
    """Canonical cycle string: disjoint cycles, least point first per cycle,
    cycles sorted by least point, fixed points omitted, identity as "id"."""
    cyc = p.cycles()
    if not cyc:
        return "id"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation over points 1..degree.

    Grammar (ASCII): ``perm := "id" | cycle+ ; cycle := "(" int (ws int)* ")"``.
    Cycles must be disjoint.  Whitespace is ASCII (``string.whitespace``);
    any other character outside the grammar raises at its position.
    Round-trips with :func:`format_cycles`.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if text.strip(whitespace) == "id":
        return Permutation.identity(degree)
    if not text.strip(whitespace):
        raise CycleParseError("empty permutation text")
    raw = list(range(degree))
    used: set = set()
    i = 0
    n = len(text)
    while i < n:
        if text[i] in whitespace:
            i += 1
            continue
        if text[i] != "(":
            raise CycleParseError(f"expected '(' at position {i} in {text!r}")
        i += 1
        points = []
        while True:
            while i < n and text[i] in whitespace:
                i += 1
            if i >= n:
                raise CycleParseError(f"unclosed cycle in {text!r}")
            if text[i] == ")":
                i += 1
                break
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i:
                raise CycleParseError(
                    f"expected integer at position {i} in {text!r}")
            digits = text[i:j].lstrip("0")
            if len(digits) > len(str(degree)):
                raise CycleParseError(f"point at position {i} out of range "
                                      f"1..{degree} in {text!r}")
            pt = int(digits or "0")
            if not 1 <= pt <= degree:
                raise CycleParseError(
                    f"point {pt} out of range 1..{degree} in {text!r}")
            if pt in used:
                raise CycleParseError(f"repeated point {pt} in {text!r}")
            used.add(pt)
            points.append(pt - 1)
            i = j
        if not points:
            raise CycleParseError(f"empty cycle in {text!r}")
        for a, b in zip(points, points[1:]):
            raw[a] = b
        raw[points[-1]] = points[0]
    return Permutation._from_raw(tuple(raw))


# ---------------------------------------------------------------------------
# stabilizer chain (S_d written down, else incremental deterministic
# Schreier-Sims; full ascending base)
#
# Level k holds the strong generators first moved at base point k; the
# generating set of the stabilizer of points 0..k-1 is the union of the
# generator lists of levels k, k+1, ..., d-1.  S_d's chain is written down
# from the invariant-equivalence argument of ``_symmetric_chain``; every
# other group's grows by ``_extend``.

class _Level:
    """One level of a chain.  The orbit only grows and a representative,
    once chosen, never changes, so a Schreier generator u_r^-1 g u_q is the
    same element for as long as the chain lives: ``sifted[g]`` counts the
    orbit points q (a prefix of ``orbit``) whose pair (q, g) is done."""

    __slots__ = ("point", "gens", "orbit", "transversal", "inverses", "sifted")

    def __init__(self, point: int, degree: int):
        ident = tuple(range(degree))
        self.point = point
        self.gens: list = []
        self.orbit: list = [point]
        # orbit point q -> raw u with u(self.point) = q, and its inverse
        self.transversal, self.inverses = {point: ident}, {point: ident}
        self.sifted: dict = {}


def _gens_at(levels: list, i: int) -> list:
    return [g for lev in levels[i:] for g in lev.gens]


def _strip_from(h: tuple, levels: list, start: int = 0) -> tuple:
    """Sift h through levels >= start; returns (residue, stuck level) or
    (None, d) when h is a member."""
    for k in range(start, len(levels)):
        p = h[k]
        if p == k:
            continue
        u_inv = levels[k].inverses.get(p)
        if u_inv is None:
            return h, k
        h = _compose(u_inv, h)
    return None, len(levels)


def _extend(levels: list, h: tuple) -> bool:
    """Add h to a complete chain unless it is already a member: the residue
    joins the level it stuck at, which lies in the stabilizer of the points
    before it, so only that level and those above it are re-completed."""
    residue, k = _strip_from(h, levels)
    if residue is None:
        return False
    levels[k].gens.append(residue)
    for j in range(k, -1, -1):
        _complete_level(levels, j)
    return True


def _symmetric_chain(degree: int, raws: list) -> list | None:
    """The chain of S_d written down, if the generators raws generate S_d
    by an exact test; else None, and the chain is built by ``_extend``.

    Say x ~ y when x = y or the transposition (x y) lies in G.  This is an
    equivalence, as (x y)(y z)(x y) = (x z), and G-invariant, as
    g (x y) g^-1 = (g(x) g(y)).  So if a generator is a transposition (a b),
    the least G-invariant partition joining a and b refines ~, and when it
    is one block G holds every transposition: G = S_d.  Conversely S_d is
    primitive, so for S_d with a transposition generator that partition is
    always one block.  The chain needs no sift: level k's orbit is k..d-1,
    each q of it reached by the transposition (k q), its own inverse, and
    level k's generator is (k k+1), so the levels from k on generate
    Sym(k..d-1)."""
    swap = next((raw for raw in raws if _moved(raw) == 2), None)
    if swap is None:
        return None
    joins = [tuple(x for i, x in enumerate(swap) if x != i)]
    if len(_congruence(raws, degree, joins)) > 1:
        return None
    levels = [_Level(k, degree) for k in range(degree)]
    ident = list(range(degree))
    for k, lev in enumerate(levels):
        for q in range(k + 1, degree):
            images = ident.copy()
            images[k], images[q] = q, k
            lev.orbit.append(q)
            lev.transversal[q] = lev.inverses[q] = tuple(images)
        lev.gens = [lev.transversal[k + 1]] if k + 1 < degree else []
    return levels


def _complete_level(levels: list, i: int) -> None:
    """Establish the strong-generation property at level i, assuming all
    deeper levels already have it.  Only the (orbit point, generator) pairs
    not yet done are visited: the orbit grows along them, and each of their
    Schreier generators is sifted into the deeper levels once."""
    lev = levels[i]
    orbit, trans, inverses, sifted = (lev.orbit, lev.transversal,
                                      lev.inverses, lev.sifted)
    while True:
        pending = [g for g in _gens_at(levels, i)
                   if sifted.get(g, 0) < len(orbit)]
        if not pending:
            return
        for g in pending:
            n = sifted.get(g, 0)
            while n < len(orbit):
                q = orbit[n]
                n += 1
                r = g[q]
                if r not in trans:
                    gu = _compose(g, trans[q])
                    orbit.append(r)
                    trans[r], inverses[r] = gu, _inverse(gu)
                    continue
                u_inv = inverses[r]
                sg = tuple(u_inv[g[x]] for x in trans[q])
                if _is_identity(sg):
                    continue
                residue, k = _strip_from(sg, levels, i + 1)
                if residue is not None:
                    levels[k].gens.append(residue)
                    for j in range(k, i, -1):
                        _complete_level(levels, j)
            sifted[g] = n


class Transitivity(Enum):
    INTRANSITIVE = "intransitive"
    TRANSITIVE = "transitive"
    TWO_TRANSITIVE = "two_transitive"


class GeneratedGroup:
    """Subgroup of S_d given by generators.

    The stabilizer chain and exact order are built at construction and
    never change.  A group with a transposition generator (a b) whose least
    invariant partition joining a and b is one block holds every
    transposition, as x ~ y iff (x y) in G is an invariant equivalence, so
    it is S_d and its chain is written down (``_symmetric_chain``).  That
    is the group of every Morse, genuinely ramified cover.  Every other
    group's chain is built by ``_extend`` from the generators, exactly.
    """

    __slots__ = ("degree", "generators", "_levels", "_order")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        gens = tuple(generators)
        if not gens:
            raise ValueError(
                "generator set must be nonempty (pass the identity for the "
                "trivial group)")
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator of degree {g.degree} in a group of degree {degree}")
        raws = [g._raw for g in gens]
        levels = _symmetric_chain(degree, raws)
        if levels is None:
            levels = [_Level(k, degree) for k in range(degree)]
            for h in raws:
                _extend(levels, h)
        self._set(degree, gens, levels)

    @classmethod
    def _from_chain(cls, degree: int, gens: tuple,
                    levels: list) -> "GeneratedGroup":
        """The group of gens, whose complete chain the caller has built."""
        group = object.__new__(cls)
        group._set(degree, gens, levels)
        return group

    def _set(self, degree: int, gens: tuple, levels: list) -> None:
        self.degree = degree
        self.generators = gens
        self._levels = levels
        self._order = math.prod(len(lev.orbit) for lev in levels)

    @property
    def order(self) -> int:
        return self._order

    def __contains__(self, p: Permutation) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        residue, _ = _strip_from(p._raw, self._levels)
        return residue is None

    def elements(self) -> tuple:
        """All elements, sorted by image tuple."""
        raws = [tuple(range(self.degree))]
        for lev in reversed(self._levels):
            if len(lev.transversal) == 1:
                continue
            us = [lev.transversal[q] for q in sorted(lev.transversal)]
            raws = [_compose(u, h) for u in us for h in raws]
        raws.sort()
        return tuple(Permutation._from_raw(r) for r in raws)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"GeneratedGroup(d={self.degree}, order={self._order}, <{gens}>)"


def orbits(g: GeneratedGroup, pairs: Iterable) -> tuple:
    """The orbits of g through the given ordered pairs of points, each
    sorted, in order of least pair, by ``_pair_orbits``.  An item that is
    not a 2-tuple of ints of 1..d raises ValueError."""
    d, codes = g.degree, set()
    for x in pairs:
        if not (isinstance(x, tuple) and len(x) == 2 and _is_point(x[0], d)
                and _is_point(x[1], d)):
            raise ValueError(f"not a pair of points of 1..{d}: {x!r}")
        codes.add(d * x[0] + x[1] - d - 1)
    parts = _pair_orbits([h._raw for h in g.generators], d, sorted(codes))
    return tuple(tuple([(c // d + 1, c % d + 1) for c in part])
                 for part in parts)


def _pair_orbits(raws: Sequence, d: int,
                 starts: Iterable | None = None) -> tuple:
    """``_orbits`` of the 0-based maps ``raws`` on ordered pairs, the pair
    (p, q) of 1..d being the code d(p-1) + q-1, so code order is pair
    order: one d*d table per map.  Nothing is checked."""
    tables = [[r + y for r in [d * x for x in raw] for y in raw]
              for raw in raws]
    return _orbits(tables, d * d, starts)


def _orbits(raws: Sequence, n: int, starts: Iterable | None = None) -> tuple:
    """The orbits on the points 0..n-1 of the maps with 0-based image
    sequences ``raws``, through each point of ``starts`` (every point by
    default) in turn, each sorted: one breadth-first search."""
    seen = bytearray(n)
    parts = []
    for s in range(n) if starts is None else starts:
        if not seen[s]:
            seen[s] = 1
            orbit = [s]
            for x in orbit:
                for raw in raws:
                    y = raw[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            parts.append(tuple(sorted(orbit)))
    return tuple(parts)


def _require_fixed_before(g: GeneratedGroup, p: int) -> None:
    """Raise ValueError unless p lies in 1..d and g fixes 1..p-1."""
    if not _is_point(p, g.degree):
        raise ValueError(f"point {p} out of range 1..{g.degree}")
    if any(len(lev.orbit) > 1 for lev in g._levels[:p - 1]):
        raise ValueError(f"the group moves a point before {p}")


def transversal(g: GeneratedGroup, p: int) -> dict:
    """For a group g fixing 1..p-1, whose chain level at base point p then
    holds the whole orbit g.p: each point q of it -> the element of g
    mapping p to q stored there.  Its size is |g.p|."""
    _require_fixed_before(g, p)
    return {q + 1: Permutation._from_raw(u)
            for q, u in g._levels[p - 1].transversal.items()}


def point_stabilizer(g: GeneratedGroup, p: int) -> GeneratedGroup:
    """Stab_g(p) for a group g fixing 1..p-1, satisfying order(result) *
    |orbit(p)| == order(g).  Its chain is g's levels for the base points
    p+1..d, shared, not rebuilt; nothing may ever extend a built group's
    levels in place.  A p past the first point g moves raises ValueError,
    as for ``transversal``."""
    _require_fixed_before(g, p)
    d = g.degree
    levels = [_Level(k, d) for k in range(p)] + g._levels[p:]
    gens = tuple(Permutation._from_raw(h) for h in _gens_at(levels, p))
    return GeneratedGroup._from_chain(
        d, gens or (Permutation.identity(d),), levels)


def normal_closure(sub: Iterable[Permutation], g: GeneratedGroup) -> GeneratedGroup:
    """Smallest normal subgroup of g containing sub.

    One stabilizer chain grows as the elements of sub are sifted in, then
    in turn the conjugates c w c^-1 of each element w it gained by each
    generator c of g (in a finite group c N c^-1 <= N forces equality).
    It stops once its order is |g|: a subgroup of g of that order is g."""
    elems = list(sub)
    for s in elems:
        if s not in g:
            raise MembershipError(f"{s} is not an element of the ambient group")
    levels = [_Level(k, g.degree) for k in range(g.degree)]
    conjugators = [(c._raw, _inverse(c._raw)) for c in g.generators]
    gens: list = []
    # the list iterator sees the elements appended to gens meanwhile
    conjugates = (_compose(_compose(c, w), c_inv)
                  for w in gens for c, c_inv in conjugators)
    for w in itertools.chain((s._raw for s in elems), conjugates):
        if _extend(levels, w):
            gens.append(w)
            if math.prod(len(lev.orbit) for lev in levels) == g.order:
                break
    return GeneratedGroup._from_chain(
        g.degree, tuple(Permutation._from_raw(w) for w in gens)
        or (Permutation.identity(g.degree),), levels)


def _congruence(raws: Sequence, d: int, joins: Iterable) -> list:
    """Blocks of 0-based points, sorted and in order of least point, of the
    least partition of 0..d-1 invariant under the maps ``raws`` and joining
    each 0-based pair of ``joins``: Atkinson's union-find, which queues the
    fewer than d pairs whose union merged two blocks and unites their images
    under each map.  The caller passes valid 0-based points; nothing is
    checked.  When ``raws`` generate a group G and the joins are the pairs
    (x, s(x)) of elements s of G, the blocks are the orbits of the normal
    closure N of those s: N is normal and holds each s, so its orbits form
    such a partition, and the kernel of any such partition is normal and
    holds each s, so holds N."""
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged: list = []   # the list iterator sees the pairs appended meanwhile
    queue = itertools.chain(joins, ((h[x], h[y]) for x, y in merged
                                    for h in raws))
    for x, y in queue:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            merged.append((x, y))
    blocks: dict = {}
    for x in range(d):
        blocks.setdefault(find(x), []).append(x)
    return list(blocks.values())


def transitivity(g: GeneratedGroup) -> Transitivity:
    """Transitivity class, read off the chain: transitive iff the orbit of
    point 1 (level 0) has d points; two-transitive iff in addition the orbit
    of point 2 under Stab(1) (level 1) has d - 1 points (d >= 2)."""
    d = g.degree
    if len(g._levels[0].orbit) != d:
        return Transitivity.INTRANSITIVE
    if d >= 2 and len(g._levels[1].orbit) == d - 1:
        return Transitivity.TWO_TRANSITIVE
    return Transitivity.TRANSITIVE
