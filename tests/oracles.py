"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and self-contained: plain image
tuples, breadth-first closures, full product-space scans.  Nothing uses
the package's group machinery (at most its permutation type and its
graphs), so these stay valid checks of it; the one exception is the
local-inertia oracle, which takes its coset representatives from the
monodromy group's transversal, as the derived cover does, and builds each
element by permutation products, which the derived cover does not.  The
generator oracles are the permutation-building enumerator and sampler
that the raw completion in ``gen`` replaced: each candidate is built as a
cover, its last cycle forced from ``cover.relation_product`` and the
result checked by ``cover.require_valid``.  The full-loop tracker at the
end shares numono's path pieces and constants but has its own stepper:
one ``np.roots`` per point, pairwise separations in Python, solve then
match.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections import deque
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ramify import numono
from ramify.cover import (BranchedCover, InvalidCoverError, monodromy_group,
                          relation_product, require_valid)
from ramify.gen import REJECTION_BUDGET, InfeasibleParametersError
from ramify.graphs import Graph
from ramify.perm import Permutation, transversal


def o_compose(a: tuple, b: tuple) -> tuple:
    """(a o b)(i) = a(b(i)) on 0-based image tuples."""
    return tuple(a[x] for x in b)


def o_power(a: tuple, n: int) -> tuple:
    """a^n for n >= 0, by n products on 0-based image tuples."""
    result = tuple(range(len(a)))
    for _ in range(n):
        result = o_compose(a, result)
    return result


def o_inverse(a: tuple) -> tuple:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def o_closure(gens: list, cap: int = 2_000_000) -> set:
    """Breadth-first product closure of 0-based image tuples."""
    assert gens
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = o_compose(g, h)
                if p not in seen:
                    seen.add(p)
                    assert len(seen) <= cap, "oracle closure exploded"
                    nxt.append(p)
        frontier = nxt
    return seen


def o_orbit(gens: list, item, act) -> set:
    orbit = {item}
    frontier = [item]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return orbit


def o_point_orbits(gens: list, n: int) -> list:
    """Orbits on 0..n-1 as sorted tuples, ordered by least element."""
    seen: set = set()
    parts = []
    for i in range(n):
        if i in seen:
            continue
        orb = o_orbit(gens, i, lambda g, x: g[x])
        seen |= orb
        parts.append(tuple(sorted(orb)))
    return parts


def o_pair_orbits(gens: list, n: int) -> list:
    """Orbits on ordered pairs of 0..n-1, as sorted tuples of 1-based pairs
    ordered by least pair, each walked as a set of tuples."""
    seen: set = set()
    parts = []
    for pair in itertools.product(range(n), repeat=2):
        if pair not in seen:
            orb = o_orbit(gens, pair, lambda g, t: (g[t[0]], g[t[1]]))
            seen |= orb
            parts.append(tuple(sorted((p + 1, q + 1) for p, q in orb)))
    return parts


def o_is_transitive(gens: list, n: int) -> bool:
    return len(o_point_orbits(gens, n)) == 1


def o_transitivity(gens: list, n: int) -> str:
    """"intransitive", "transitive" or "two_transitive": one orbit on
    points, and for two-transitivity (n >= 2) exactly two orbits on ordered
    pairs, the diagonal and the rest."""
    if len(o_point_orbits(gens, n)) != 1:
        return "intransitive"
    two = n >= 2 and len(o_pair_orbits(gens, n)) == 2
    return "two_transitive" if two else "transitive"


def o_stabilizer(elements: set, point0: int) -> set:
    """Point stabilizer inside an explicitly enumerated group."""
    return {g for g in elements if g[point0] == point0}


def o_normal_closure(sub: list, group_elements: set) -> set:
    """Conjugation closure of sub inside an enumerated group, then the
    generated subgroup, all by brute force."""
    conj = set()
    for s in sub:
        for g in group_elements:
            conj.add(o_compose(o_compose(g, s), o_inverse(g)))
    conj = [c for c in conj] or [tuple(range(len(next(iter(group_elements)))))]
    return o_closure(conj)


def o_count_valid_tuples(d: int, r: int) -> int:
    """Full product-space count of valid genus-0 covers: all r-tuples of
    non-identity elements of S_d whose ordered product is the identity and
    which generate a transitive group."""
    ident = tuple(range(d))
    elems = [p for p in itertools.permutations(range(d)) if p != ident]
    count = 0
    for tup in itertools.product(elems, repeat=r):
        prod = ident
        for c in tup:
            prod = o_compose(prod, c)
        if prod != ident:
            continue
        if o_is_transitive(list(tup), d):
            count += 1
    return count


def o_generators(cover) -> list:
    """A cover's generators (a_1, b_1, ..., then the branch cycles) as
    0-based image tuples."""
    return [tuple(x - 1 for x in p.images) for p in cover.all_generators()]


def relabel(cover: BranchedCover, sigma: Permutation) -> BranchedCover:
    """The cover with every generator conjugated by sigma: the same cover
    with its fiber points renamed."""
    inv = sigma.inverse()
    return BranchedCover(
        degree=cover.degree,
        base_genus=cover.base_genus,
        handles=tuple((sigma * a * inv, sigma * b * inv)
                      for a, b in cover.handles),
        branch_cycles=tuple(sigma * c * inv for c in cover.branch_cycles),
        labels=cover.labels,
    )


def o_canonical_form(cover) -> tuple:
    """(degree, base genus, least simultaneous conjugate of the generators)
    over a scan of all of S_d: the least tuple of sigma g sigma^-1."""
    gens = o_generators(cover)
    best = min(
        tuple(o_compose(o_compose(sigma, g), o_inverse(sigma)) for g in gens)
        for sigma in itertools.permutations(range(cover.degree)))
    return (cover.degree, cover.base_genus, best)


def o_canonical_form_scan(cover) -> tuple:
    """``canonical_form`` with every point a start and no early abandon:
    from each start a BFS along the generators in order numbers the points
    as it reaches them, every generator's images are renumbered so, and the
    least tuple of rows is kept.  Raises InvalidCoverError when the search
    from a start misses a point."""
    d = cover.degree
    gens = o_generators(cover)
    best = None
    for start in range(d):
        label = {start: 0}
        order = [start]
        for x in order:
            for g in gens:
                if g[x] not in label:
                    label[g[x]] = len(order)
                    order.append(g[x])
        if len(order) < d:
            raise InvalidCoverError([f"generators reach {len(order)} of {d} "
                                     f"points from point {start + 1}"])
        key = tuple(tuple([label[g[x]] for x in order]) for g in gens)
        best = key if best is None else min(best, key)
    return (d, cover.base_genus, best)


def o_completed(prefix: BranchedCover, r: int,
                morse: bool) -> BranchedCover | None:
    """``prefix`` followed by the branch cycle the surface relation forces
    (none when r = 0).  None when that cycle is the identity, or in Morse
    mode not a transposition, or the cover is invalid."""
    cover = prefix
    if r > 0:
        last = relation_product(prefix).inverse()
        if last.is_identity() or (morse and not last.is_transposition()):
            return None
        cover = BranchedCover(prefix.degree, prefix.base_genus, prefix.handles,
                              prefix.branch_cycles + (last,))
    try:
        require_valid(cover)
    except InvalidCoverError:
        return None
    return cover


def o_enumerate_covers(d: int, g: int, r: int, morse: bool) -> list:
    """The valid covers of one stratum in ``enumerate_covers`` order (no
    dedup): every handle tuple and free-cycle tuple built as
    ``Permutation``s and completed by ``o_completed``."""
    perms = [Permutation._from_raw(raw)
             for raw in itertools.permutations(range(d))]
    pool = [p for p in perms if not p.is_identity()
            and (not morse or p.is_transposition())]
    covers = []
    for handles in itertools.product(itertools.product(perms, repeat=2),
                                     repeat=g):
        for frees in itertools.product(pool, repeat=max(r - 1, 0)):
            cover = o_completed(BranchedCover(d, g, handles, frees), r, morse)
            if cover is not None:
                covers.append(cover)
    return covers


def o_sample_cover(rng: random.Random, d: int, g: int, r: int,
                   morse: bool) -> BranchedCover:
    """The sampler as it was before its raw pre-test: every draw builds its
    Permutations and goes through ``o_completed``.  Draws the same random
    numbers in the same order, so from equal generator states it returns
    the same cover and leaves the same state."""
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    for _ in range(REJECTION_BUDGET):
        handles = []
        for _ in range(g):
            im1 = list(range(1, d + 1))
            rng.shuffle(im1)
            im2 = list(range(1, d + 1))
            rng.shuffle(im2)
            handles.append((Permutation(im1), Permutation(im2)))
        frees = []
        for _ in range(max(r - 1, 0)):
            if morse:
                a, b = pairs[rng.randrange(len(pairs))]
                frees.append(Permutation.from_cycle([a, b], d))
            else:
                im = list(range(1, d + 1))
                while True:
                    rng.shuffle(im)
                    if any(v != i + 1 for i, v in enumerate(im)):
                        break
                frees.append(Permutation(im))
        cover = o_completed(BranchedCover(d, g, handles, frees), r, morse)
        if cover is not None:
            return cover
    raise InfeasibleParametersError(
        f"no valid cover found for d={d} g={g} r={r} morse={morse} within "
        f"{REJECTION_BUDGET} draws")


def o_centralizer_order(cover) -> int:
    """|C_{S_d}(G)|: the elements of S_d that commute with every generator,
    counted by a scan of all of S_d."""
    gens = o_generators(cover)
    return sum(
        all(o_compose(sigma, g) == o_compose(g, sigma) for g in gens)
        for sigma in itertools.permutations(range(cover.degree)))


def o_local_branches(cover) -> list:
    """Local branches over every branch point by walking orbits: for each
    branch index j and ordered pair (kappa, kappa') of cycles of c_j (fixed
    points included, in ``Permutation.cycles`` order), the orbits of <c_j>
    on kappa x kappa' as (least pair, size), sorted by least pair."""
    out = []
    for j, cj in enumerate(cover.branch_cycles, start=1):
        step = (0,) + cj.images
        cycles = cj.cycles(include_fixed=True)
        for kappa, kappa2 in itertools.product(cycles, repeat=2):
            branches = []
            seen: set = set()
            for a, b in itertools.product(kappa, kappa2):
                if (a, b) in seen:
                    continue
                orbit = [(a, b)]
                x, y = step[a], step[b]
                while (x, y) != (a, b):
                    orbit.append((x, y))
                    x, y = step[x], step[y]
                seen.update(orbit)
                branches.append((min(orbit), len(orbit)))
            out.append((j, (kappa, kappa2), tuple(sorted(branches))))
    return out


def o_component_cover(ctx, orbital) -> BranchedCover:
    """The cover of X given by the monodromy action on one orbital's pairs,
    the normalization of that component over X: the pairs are the orbit of
    the orbital's representative, walked here along the generators and
    numbered 1..|orbital| in sorted order, and the induced cover is checked
    by ``cover.require_valid``.  The diagonal orbital gives back
    ``ctx.cover``."""
    c = ctx.cover
    p, q = orbital.representative
    pairs = sorted(o_orbit(o_generators(c), (p - 1, q - 1),
                           lambda g, t: (g[t[0]], g[t[1]])))
    index = {pair: i + 1 for i, pair in enumerate(pairs)}

    def induced(perm: Permutation) -> Permutation:
        g = [x - 1 for x in perm.images]
        return Permutation([index[(g[s], g[t])] for s, t in pairs])

    result = BranchedCover(
        degree=len(pairs),
        base_genus=c.base_genus,
        handles=tuple((induced(a), induced(b)) for a, b in c.handles),
        branch_cycles=tuple(induced(cyc) for cyc in c.branch_cycles),
        labels=c.labels,
    )
    require_valid(result)
    return result


class LocalInertia(NamedTuple):
    branch_index: int            # 1-based
    cycle: tuple                 # cycle of c_j (1-based points): a point of Y
    element: Permutation         # fixes the distinguished point 1


def o_local_inertia(cover) -> list:
    """The local inertia of the derived cover q1' : Y' -> Y, one entry per
    branch index j and cycle kappa of c_j (fixed points included): the
    element u^-1 c_j^e u for e = len(kappa) and the u of ``transversal(G,
    1)`` that maps 1 to kappa's least point, built by products."""
    v = transversal(monodromy_group(cover), 1)
    out = []
    for j, cj in enumerate(cover.branch_cycles, start=1):
        for kappa in cj.cycles(include_fixed=True):
            u = v[kappa[0]]
            power = o_power(tuple(x - 1 for x in cj.images), len(kappa))
            element = u.inverse() * Permutation([x + 1 for x in power]) * u
            out.append(LocalInertia(branch_index=j, cycle=kappa,
                                    element=element))
    return out


def o_dual_graph(cover, walk: list) -> Graph:
    """The dual graph by the every-point loop: orbitals are the orbits of
    the generators on ordered pairs, numbered by least pair, and every
    scheme point of ``walk = o_local_branches(cover)``, one-branch points
    included, joins each two orbitals among its branches."""
    parts = o_pair_orbits(o_generators(cover), cover.degree)
    orbital = {pair: i for i, part in enumerate(parts) for pair in part}
    edges = set()
    for _, _, branches in walk:
        ids = sorted({orbital[pair] for pair, _ in branches})
        edges.update(itertools.combinations(ids, 2))
    return Graph(range(len(parts)), edges)


def o_quotient_by_partition(g: Graph, parts: Sequence[Iterable],
                            names: Sequence | None = None) -> Graph:
    """Quotient graph: one vertex per part, an edge between distinct parts
    whenever some cross-edge exists.  Parts must partition the vertex set.
    Part names default to each part's least label."""
    part_sets = [frozenset(p) for p in parts]
    covered: set = set()
    for p in part_sets:
        if not p:
            raise ValueError("empty part")
        if p & covered:
            raise ValueError("parts are not disjoint")
        covered |= p
    if covered != set(g.labels):
        raise ValueError("parts do not cover the vertex set")
    if names is None:
        names = [min(p) for p in part_sets]
    elif len(names) != len(part_sets):
        raise ValueError("one name per part required")
    part_of = {}
    for name, p in zip(names, part_sets):
        for v in p:
            part_of[v] = name
    edges = set()
    for a, b in g.edges:
        pa, pb = part_of[a], part_of[b]
        if pa != pb:
            edges.add((pa, pb) if pa < pb else (pb, pa))
    return Graph(names, edges)


def naive_closure(generators: list, cap: int = 10080) -> frozenset:
    """Product closure of Permutations by breadth-first multiplication.
    Raises ValueError beyond the cap."""
    if not generators:
        raise ValueError("need at least one generator")
    ident = Permutation.identity(generators[0].degree)
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                prod = g * h
                if prod not in closure:
                    closure.add(prod)
                    if len(closure) > cap:
                        raise ValueError(f"naive closure exceeds cap {cap}")
                    nxt.append(prod)
        frontier = nxt
    return frozenset(closure)


def diameter_endpoint(g: Graph):
    """A vertex realizing the graph diameter (an endpoint of some pair at
    maximum shortest-path distance); ties broken by least label.  Requires a
    connected graph with at least two vertices."""
    if g.n < 2:
        raise ValueError("need at least two vertices")
    adjacent = {v: [] for v in g.labels}
    for a, b in g.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    best_v = None
    best_d = -1
    for v in g.labels:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for w in adjacent[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if len(dist) != g.n:
            raise ValueError("graph is disconnected")
        ecc = max(dist.values())
        if ecc > best_d:
            best_d = ecc
            best_v = v
    return best_v


# -- numono's loops, each tracked as a closed path -----------------------------

def loop_pieces(x0: complex, target: complex, radius: float,
                u: complex, p_hat: complex, h_rail: float) -> list:
    """One closed loop from the base point: down to the rail, along it, up
    to the target's circle, around it, and back the same way."""
    def at(s: float, h: float) -> complex:
        return s * p_hat + h * u

    s0 = (x0 * p_hat.conjugate()).real
    st = (target * p_hat.conjugate()).real
    p1 = at(s0, h_rail)
    p2 = at(st, h_rail)
    p3 = target - radius * u
    theta3 = cmath.phase(-u)
    return [numono._Seg(x0, p1), numono._Seg(p1, p2), numono._Seg(p2, p3),
            numono._Arc(target, radius, theta3, theta3 + 2 * math.pi),
            numono._Seg(p3, p2), numono._Seg(p2, p1), numono._Seg(p1, x0)]


class ScalarFloat64:
    """numono's float64 fiber, one point at a time: Horner evaluation of the
    y-coefficients, the leading-coefficient refusal, then ``np.roots``."""

    def __init__(self, p):
        self.coeff_polys = [[complex(c) for c in row] for row in p.rows]

    def fiber(self, z: complex) -> list:
        coeffs = [_horner(cp, z) for cp in self.coeff_polys]
        lead = coeffs[-1]
        scale = max(abs(c) for c in coeffs)
        if scale == 0 or abs(lead) < 1e-13 * scale:
            raise numono.TrackingAmbiguityError(
                f"leading coefficient numerically vanishes on the path at "
                f"x = {z}")
        arr = np.array(list(reversed(coeffs)), dtype=complex)
        return [complex(r) for r in np.roots(arr)]


def _horner(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def min_sep(points: list) -> float:
    return min((abs(a - b) for i, a in enumerate(points)
                for b in points[i + 1:]), default=math.inf)


def scalar_match(old: list, new: list):
    """Nearest-neighbor matching: old[i] -> new[perm[i]].  Fails (returns
    None) unless injective and every move is under minsep/SAFETY_FACTOR."""
    threshold = min(min_sep(old), min_sep(new)) / numono.SAFETY_FACTOR
    assignment = []
    taken = set()
    for z in old:
        best_j = min(range(len(new)), key=lambda j: abs(z - new[j]))
        if abs(z - new[best_j]) >= threshold or best_j in taken:
            return None
        taken.add(best_j)
        assignment.append(best_j)
    return assignment


def scalar_advance(piece, ta: float, tb: float, fiber: list, ctx) -> list:
    new_roots = ctx.fiber(piece.at(tb))
    assignment = scalar_match(fiber, new_roots)
    if assignment is not None:
        return [new_roots[j] for j in assignment]
    if (tb - ta) < numono.STEP_TOLERANCE:
        raise numono.TrackingAmbiguityError(
            f"root matching failed near x = {piece.at(tb)}")
    tm = (ta + tb) / 2
    mid = scalar_advance(piece, ta, tm, fiber, ctx)
    return scalar_advance(piece, tm, tb, mid, ctx)


def scalar_track(piece, fiber: list, ctx) -> list:
    """Transport ``fiber`` along ``piece``: entry k of the result continues
    entry k of ``fiber``."""
    n = piece.initial_steps
    for k in range(n):
        fiber = scalar_advance(piece, k / n, (k + 1) / n, fiber, ctx)
    return fiber


def loop_permutation(pieces: list, base_fiber: list, ctx) -> Permutation:
    fiber = list(base_fiber)
    for piece in pieces:
        fiber = scalar_track(piece, fiber, ctx)
    assignment = scalar_match(fiber, base_fiber)
    if assignment is None:
        raise numono.TrackingAmbiguityError(
            "could not identify the transported fiber with the base fiber")
    return Permutation([j + 1 for j in assignment])


def full_loop_cycles(p, result) -> tuple:
    """(branch cycles in sweep order, infinity cycle) of a
    ``numono.MonodromyResult``, with every loop tracked in float64 as a
    closed path from the base point and no transport shared between loops,
    by the scalar stepper above.  The geometry is the one ``result``
    records."""
    ctx = ScalarFloat64(p)
    x0 = result.base_point
    u = cmath.exp(1j * result.sweep_angle)
    p_hat = cmath.exp(1j * (result.sweep_angle - math.pi / 2))
    # the targets in numono's order: critical values, then the roots of the
    # leading coefficient, each sorted by (re, im)
    values = [t.value for kind in ("critical", "lc_root")
              for t in sorted(result.loops,
                              key=lambda t: (t.value.real, t.value.imag))
              if t.kind == kind]
    spread = max((abs(a - b) for i, a in enumerate(values)
                  for b in values[i + 1:]), default=0.0)
    h_rail = min(((z * u.conjugate()).real for z in values),
                 default=0.0) - (1 + spread)
    base_fiber = sorted(ctx.fiber(x0), key=lambda z: (z.real, z.imag))
    cycles = tuple(
        loop_permutation(loop_pieces(x0, t.value, t.radius, u, p_hat, h_rail),
                         base_fiber, ctx)
        for t in result.loops)
    stub, circle = numono._infinity_pieces(x0, values, spread)
    infinity = loop_permutation([stub, circle, numono._Seg(stub.b, stub.a)],
                                base_fiber, ctx)
    return cycles, infinity
