"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and self-contained: plain image
tuples, breadth-first closures, full product-space scans.  Nothing uses
the package's group machinery (at most its permutation type and its
graphs), so these stay valid checks of it.
"""

from __future__ import annotations

import itertools
from collections import deque

from ramify.graphs import Graph
from ramify.perm import Permutation


def o_compose(a: tuple, b: tuple) -> tuple:
    """(a o b)(i) = a(b(i)) on 0-based image tuples."""
    return tuple(a[x] for x in b)


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


def o_is_transitive(gens: list, n: int) -> bool:
    return len(o_point_orbits(gens, n)) == 1


def o_transitivity(gens: list, n: int) -> str:
    """"intransitive", "transitive" or "two_transitive": one orbit on
    points, and for two-transitivity (n >= 2) exactly two orbits on ordered
    pairs, the diagonal and the rest."""
    if len(o_point_orbits(gens, n)) != 1:
        return "intransitive"
    seen: set = set()
    pair_orbits = 0
    for pair in itertools.product(range(n), repeat=2):
        if pair not in seen:
            seen |= o_orbit(gens, pair, lambda g, t: (g[t[0]], g[t[1]]))
            pair_orbits += 1
    return "two_transitive" if n >= 2 and pair_orbits == 2 else "transitive"


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
    best_v = None
    best_d = -1
    for v in g.labels:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for w in g.neighbors(x):
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
