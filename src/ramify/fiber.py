"""Components of the fiber square Y x_X Y and everything built on them.

The fiber square of a cover with monodromy group G decomposes into
irreducible components indexed by the G-orbits on ordered pairs of fiber
points (the orbitals).  Over each branch point, pairs of local points carry
local branches (orbits of the cyclic group generated by the branch cycle),
and components intersect exactly where one such point carries branches from
two of them.  That intersection pattern is the dual graph.  The branches
are read off cycle positions, not walked: over a pair of cycles (kappa, lam)
of lengths (e, l), branch s < gcd(e, l) holds lcm(e, l) pairs and
(kappa[0], lam[s]), so it lies in that pair's orbital.  Two fixed points
carry one branch of one pair, so the dual graph and the genera read only
pairs with a moved cycle; only the report reads every scheme point.  A
cycle pair recurs at many branch points, so the report keeps each distinct
pair's record (the pair and its branches), built once per cover, and its
JSON lists are built once per document; each point over it adds one JSON
dict.  SchemePoints are built only when read.

Genuine ramification is decided two independent ways: group-theoretically
(HN = G for H a point stabilizer and N the normal closure of the branch
cycles) and by connectivity of the dual graph; their agreement is a test in
the suite, never an assumption here.  Neither HN nor N is built: [G : HN]
= d / |N.1| for H = Stab_G(1), and the N-orbits are the blocks of the least
G-congruence joining x and c_j(x), by ``perm._congruence`` on 0-based
points: the fibers of Y -> Z for the largest etale Z -> X that the cover
factors through.  The derived cover's test is the same identity at point
2, its inertia read off cycle positions as the branches are.

All of these live on a CoverContext, which builds each on first use and at
most once: the monodromy group G, the table of each c_j's cycles, the
orbitals with a table from the code d(p-1) + q-1 of each pair (p, q) to
its orbital (``perm._pair_orbits`` of the raw generators), the scheme
points' per-pair records, the branches over cycle pairs with a moved cycle
(read by the dual graph and the genera), the dual graph, Stab_G(1), the
Morse and HN tests, the off-diagonal flag, the S_d certificate and the
derived cover.  G, the one group built per cover, serves its order,
two-transitivity, Stab_G(1) (sharing its levels) and elements alone:
validation, the orbitals, the dual graph and the HN test read the
generators and build none.
Each public function below is a view of a fresh context;
``gen.check_cover`` and ``numono.certify_projection`` keep one context
for all their checks.  Nothing is cached across covers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .cover import (
    BranchedCover,
    _riemann_hurwitz,
    is_morse,
    monodromy_group,
    require_valid,
)
from .graphs import ConnectivityVerdict, Graph, delete_vertex, is_connected
from .perm import (GeneratedGroup, Transitivity, _compose, _congruence,
                   _inverse, _is_identity, _pair_orbits, point_stabilizer,
                   transitivity, transversal)


class TheoremViolationError(RuntimeError):
    """A certified implication of the verified theorems failed; this would be
    a counterexample (i.e. a bug) and is always fatal."""


@dataclass(frozen=True, slots=True)
class Orbital:
    """G-orbit on ordered pairs of fiber points: one irreducible component
    of the fiber square."""
    id: int
    representative: tuple
    size: int
    is_diagonal: bool


@dataclass(frozen=True, slots=True)
class LocalBranch:
    orbital_id: int
    size: int
    representative: tuple


@dataclass(frozen=True, slots=True)
class SchemePoint:
    """A point of the fiber square over branch point j: an ordered pair of
    local points of Y, i.e. of cycles of c_j (fixed points count as
    1-cycles), with its local branches."""
    branch_index: int            # 1-based index of the branch point
    cycle_pair: tuple            # (kappa, kappa') as tuples of 1-based points
    branches: tuple              # LocalBranch entries


@dataclass(frozen=True)
class GenuineRamification:
    genuinely_ramified: bool
    etale_subcover_degree: int   # index [G : HN]; 1 iff genuinely ramified


@dataclass(frozen=True)
class SdCertification:
    """Outcome of the full-symmetric-group certification.

    ``certified`` with a list of verified steps, or a refusal naming the
    failed hypothesis.  Hypotheses holding while a step fails raises
    TheoremViolationError instead of returning.
    """
    certified: bool
    degree: int
    failed_hypothesis: str | None = None
    steps: tuple = ()
    galois_closure_order: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "certified": self.certified,
            "degree": self.degree,
            "failed_hypothesis": self.failed_hypothesis,
            "steps": list(self.steps),
            "galois_closure_order": self.galois_closure_order,
        }


def _scheme_points(point_records: tuple) -> tuple:
    """One SchemePoint per record of ``CoverContext.point_records``, each
    sharing its record's pair and branches."""
    return tuple(SchemePoint(j, pair, branches)
                 for j, row in enumerate(point_records, start=1)
                 for pair, branches in row)


@dataclass(frozen=True, eq=False)
class FiberReport:
    degree: int
    orbitals: tuple
    point_records: tuple         # CoverContext.point_records
    dual_graph: Graph
    fiber_connected: bool
    offdiag_closure_connected: ConnectivityVerdict
    offdiag_irreducible: bool
    genuinely_ramified: bool
    etale_subcover_degree: int
    galois_closure_order: int
    sd_certificate: SdCertification

    @cached_property
    def scheme_points(self) -> tuple:
        return _scheme_points(self.point_records)

    def to_json_dict(self) -> dict:
        """The ``fiber-report/1`` document, for serialisation only: the
        points over one cycle pair share its "cycles" and "branches" lists,
        built once per distinct record, so the document must not be
        mutated.  Each call builds its own lists."""
        shared: dict = {}   # id of a record in the table -> its two lists
        for row in self.point_records:
            for rec in row:
                if id(rec) not in shared:
                    (kappa, kappa2), branches = rec
                    shared[id(rec)] = (
                        [list(kappa), list(kappa2)],
                        [{"orbital": b.orbital_id, "size": b.size,
                          "representative": list(b.representative)}
                         for b in branches])
        points = [{"branch_index": j, "cycles": lists[0], "branches": lists[1]}
                  for j, row in enumerate(self.point_records, start=1)
                  for lists in map(shared.__getitem__, map(id, row))]
        return {
            "schema": "fiber-report/1",
            "degree": self.degree,
            "orbitals": [
                {"id": o.id, "representative": list(o.representative),
                 "size": o.size, "is_diagonal": o.is_diagonal}
                for o in self.orbitals
            ],
            "scheme_points": points,
            "dual_graph": {
                "vertices": list(self.dual_graph.labels),
                "edges": [list(e) for e in self.dual_graph.edges],
            },
            "fiber_connected": self.fiber_connected,
            "offdiag_closure_connected": self.offdiag_closure_connected._asdict(),
            "offdiag_irreducible": self.offdiag_irreducible,
            "genuinely_ramified": self.genuinely_ramified,
            "etale_subcover_degree": self.etale_subcover_degree,
            "galois_closure_order": self.galois_closure_order,
            "sd_certificate": self.sd_certificate.to_json_dict(),
        }


@dataclass(frozen=True, eq=False)
class DerivedCover:
    """The cover q1' : Y' -> Y as the action of Stab_G(1) on {2..d}.

    No surface presentation of Y is reconstructed and no inertia element is
    built: every verdict below reads the group and the branch cycles.
    """
    degree: int                  # d - 1
    group: GeneratedGroup        # Stab_G(1), permuting {2..d}, fixing 1
    fiber_transitive: bool       # Y' connected over Y
    morse: bool
    genuinely_ramified: bool
    total_space_genus: int | None   # genus of Y' by Riemann-Hurwitz over Y


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Cayley-graph oracle at the Galois-closure level, quotiented back down
    along gamma -> orbital of (1, gamma(1)), read as orbital_of[gamma(1) - 1].
    G is transitive, so every orbital holds a pair (1, q) and is a vertex of
    the quotient.  The Cayley graph's vertices are element indices in
    ``group.elements()`` order.

    For Galois covers the quotient must coincide with the dual graph; for
    non-Galois covers only quotient-connected => dual-connected is backed by
    the construction, so a strict edge inclusion is not an error.
    """
    skipped: bool
    reason: str | None
    cayley_graph: Graph | None
    quotient: Graph | None
    quotient_connected: bool | None
    matches_dual: bool | None


# ---------------------------------------------------------------------------

class CoverContext:
    """One cover and the objects derived from it, each built at most once,
    on first use, the monodromy group included.  With ``checked`` the cover
    is validated first, which builds nothing.  A context serves one call;
    nothing is shared between covers."""

    def __init__(self, c: BranchedCover, checked: bool = True):
        self.cover = c
        if checked:
            require_valid(c)

    @cached_property
    def group(self) -> GeneratedGroup:
        return monodromy_group(self.cover, checked=False)

    @cached_property
    def cycles(self) -> tuple:
        """Each c_j's cycles, fixed points included: the points of Y over
        the j-th branch point.  Every reader of c_j's cycles reads them
        here."""
        return tuple(cj.cycles(include_fixed=True)
                     for cj in self.cover.branch_cycles)

    @cached_property
    def morse(self) -> bool:
        """Every c_j a transposition: ``cover.is_morse``."""
        return is_morse(self.cover, checked=False)

    @cached_property
    def pair_orbits(self) -> tuple:
        c = self.cover
        return _pair_orbits([h._raw for h in c.all_generators()], c.degree)

    @cached_property
    def orbitals(self) -> tuple:
        d, out = self.cover.degree, []
        for i, part in enumerate(self.pair_orbits):
            p, q = divmod(part[0], d)
            out.append(Orbital(i, (p + 1, q + 1), len(part), p == q))
        return tuple(out)

    @cached_property
    def orbital_of(self) -> list:
        lookup = [0] * self.cover.degree ** 2
        for i, part in enumerate(self.pair_orbits):
            for code in part:
                lookup[code] = i
        return lookup

    @cached_property
    def point_records(self) -> tuple:
        """For each branch point j, the shared (pair, branches) record of
        each pair of cycles of c_j, in ``itertools.product`` order: each
        distinct cycle pair's record is built once per cover."""
        d, lookup = self.cover.degree, self.orbital_of
        shared: dict = {}   # cycle pair -> (pair, branches), alike at every j
        table = []
        for cycles in self.cycles:
            row = []
            for pair in itertools.product(cycles, repeat=2):
                rec = shared.get(pair)
                if rec is None:
                    kappa, kappa2 = pair
                    g = math.gcd(len(kappa), len(kappa2))
                    size = math.lcm(len(kappa), len(kappa2))
                    # class r has least pair (kappa[0], min kappa2[r::g])
                    reps = sorted((kappa[0], min(kappa2[r::g]))
                                  for r in range(g))
                    rec = shared[pair] = (pair, tuple(
                        LocalBranch(orbital_id=lookup[d * p + q - d - 1],
                                    size=size, representative=(p, q))
                        for p, q in reps))
                row.append(rec)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def scheme_points(self) -> tuple:
        return _scheme_points(self.point_records)

    @cached_property
    def _branches(self) -> tuple:
        """One walk over the pairs (kappa, lam) of cycles of a c_j with a
        moved cycle, for the dual graph and the genera: the edges joining the
        orbitals of a pair's branches (only two moved cycles give two), and
        each orbital's ramification over X, summing size - 1 over branches."""
        d, lookup, edges = self.cover.degree, self.orbital_of, set()
        ramification = [0] * len(self.orbitals)
        for cycles in self.cycles:
            moved = [lam for lam in cycles if len(lam) > 1]
            for kappa in cycles:
                row = d * kappa[0] - d - 1   # code of (kappa[0], q) is row + q
                for lam in cycles if len(kappa) > 1 else moved:
                    g = math.gcd(len(kappa), len(lam))
                    ids = [lookup[row + lam[s]] for s in range(g)]
                    for i in ids:
                        ramification[i] += len(kappa) * len(lam) // g - 1
                    if g > 1:
                        edges.update(itertools.combinations(sorted(set(ids)), 2))
        return edges, ramification

    @cached_property
    def dual_graph(self) -> Graph:
        return Graph(range(len(self.orbitals)), self._branches[0])

    @cached_property
    def stabilizer(self) -> GeneratedGroup:
        return point_stabilizer(self.group, 1)

    @cached_property
    def genuine(self) -> GenuineRamification:
        c = self.cover
        blocks = _congruence([p._raw for p in c.all_generators()], c.degree, [
            (x, y) for cj in c.branch_cycles
            for x, y in enumerate(cj._raw) if x != y])
        index = c.degree // len(blocks[0])
        return GenuineRamification(genuinely_ramified=index == 1,
                                   etale_subcover_degree=index)

    @cached_property
    def offdiag(self) -> ConnectivityVerdict:
        """Connectivity of the dual graph with the diagonal vertex (and
        incident edges) removed.  Degree 1 leaves nothing: reported vacuous,
        never silently true."""
        diag = next(o.id for o in self.orbitals if o.is_diagonal)
        return is_connected(delete_vertex(self.dual_graph, diag))

    @cached_property
    def sd_certificate(self) -> SdCertification:
        c = self.cover
        d = c.degree
        if d < 2:
            return SdCertification(False, d, failed_hypothesis="degree < 2")
        if not self.morse:
            return SdCertification(False, d, failed_hypothesis="not Morse")
        gr = self.genuine
        if not gr.genuinely_ramified:
            return SdCertification(
                False, d,
                failed_hypothesis=(
                    f"not genuinely ramified (etale subcover of degree "
                    f"{gr.etale_subcover_degree})"))

        steps = ["hypotheses: Morse and genuinely ramified (HN = G)"]
        if not self.offdiag.connected:
            raise TheoremViolationError(
                "genuinely ramified cover with disconnected off-diagonal closure")
        steps.append("off-diagonal closure of the fiber square is connected")

        orbs = self.orbitals
        if len(orbs) != 2:
            raise TheoremViolationError(
                f"Morse genuinely ramified cover with {len(orbs)} orbitals")
        steps.append("exactly 2 orbitals: the off-diagonal part is irreducible")

        # transitivity reads the chain, the orbitals come from the pair BFS
        if transitivity(self.group) is not Transitivity.TWO_TRANSITIVE:
            raise TheoremViolationError(
                "2 orbitals but the monodromy group is not two-transitive")
        steps.append("monodromy group is two-transitive")

        if not any(cj.is_transposition() for cj in c.branch_cycles):
            raise TheoremViolationError("Morse cover without a transposition")
        steps.append("a branch cycle is a transposition, so the group contains one")

        order = self.group.order
        if order != math.factorial(d):
            raise TheoremViolationError(
                f"two-transitive group with a transposition of order {order} != {d}!")
        steps.append(f"galois closure order is {order} = {d}!")

        return SdCertification(True, d, steps=tuple(steps),
                               galois_closure_order=order)

    def component_genus(self, orbital: Orbital) -> int:
        """Genus of the orbital's component of the fiber square by
        Riemann-Hurwitz over X: its local branches over j are the cycles of
        c_j on its pairs.  The diagonal orbital gives the genus of Y."""
        return _riemann_hurwitz(orbital.size, self.cover.base_genus,
                                self._branches[1][orbital.id])

    @cached_property
    def derived_cover(self) -> DerivedCover:
        c = self.cover
        d = c.degree
        if d < 2:
            raise ValueError("derived cover needs degree >= 2")
        group = self.group
        back = {}  # p -> 0-based table of u^-1, for the u in G mapping 1 to p
        for p, u in transversal(group, 1).items():
            if u(1) != p or u not in group:
                raise TheoremViolationError(
                    f"{u} maps 1 to {u(1)}, not {p}, or lies outside G, so "
                    f"inertia conjugated by it does not lie in Stab_G(1)")
            back[p] = u.inverse()._raw

        # t = u^-1 c_j^e u as in derived_cover_q1: its steps from positions
        # below n - gcd(e, n) miss one step of each of its cycles on u^-1 lam,
        # so join each, and count its ramification: 1 iff t is a transposition
        joins, morse = [], True
        for cycles in self.cycles:
            # a fixed point of c_j moves under no power; points made 0-based
            moved = [[x - 1 for x in lam] for lam in cycles if len(lam) > 1]
            for kappa in cycles:
                e, inv, before = len(kappa), back[kappa[0]], len(joins)
                for lam in moved:
                    n = len(lam)
                    joins.extend((inv[lam[i]], inv[lam[(i + e) % n]])
                                 for i in range(n - math.gcd(e, n)))
                morse = morse and len(joins) - before <= 1

        # Stab_G(1) is transitive on 2..d iff the transitive G is 2-transitive
        fiber_transitive = transitivity(group) is Transitivity.TWO_TRANSITIVE

        # H'N' = Stab_G(1) iff |N'.2| = |Stab_G(1).2| (level 1 of G's chain),
        # transitive or not; no join meets 1, so 2 lies in the second block
        blocks = _congruence([h._raw for h in self.stabilizer.generators], d,
                             joins)
        gr = len(blocks[1]) == len(group._levels[1].orbit)

        genus = None
        if fiber_transitive:
            genus_y = _riemann_hurwitz(d, c.base_genus, sum(
                d - len(cycles) for cycles in self.cycles))
            genus = _riemann_hurwitz(d - 1, genus_y, len(joins))

        return DerivedCover(
            degree=d - 1,
            group=self.stabilizer,
            fiber_transitive=fiber_transitive,
            morse=morse,
            genuinely_ramified=gr,
            total_space_genus=genus,
        )

    def cayley_oracle(self, cap: int) -> OracleReport:
        group = self.group
        if group.order > cap:
            return OracleReport(True, f"group order {group.order} exceeds cap {cap}",
                                None, None, None, None)
        elements = [g._raw for g in group.elements()]
        index = {g: i for i, g in enumerate(elements)}

        powers = set()   # the non-identity powers of each c_j
        for cj in self.cover.branch_cycles:
            s = cj._raw
            while not _is_identity(s):
                powers.add(s)
                s = _compose(s, cj._raw)
        connection = set()   # their conjugates g s g^-1
        for g in elements:
            inv = _inverse(g)
            connection.update(_compose(_compose(g, s), inv) for s in powers)

        # vertex i is elements[i], joined to s g; (1, g(1)) has code g(1) - 1
        cayley = Graph(range(len(elements)), {
            (i, index[_compose(s, g)])
            for i, g in enumerate(elements) for s in connection})
        part = [self.orbital_of[g[0]] for g in elements]
        quotient = Graph(set(part), ((part[a], part[b]) for a, b in cayley.edges
                                     if part[a] != part[b]))
        return OracleReport(False, None, cayley, quotient,
                            is_connected(quotient).connected,
                            quotient == self.dual_graph)

    @cached_property
    def report(self) -> FiberReport:
        d = self.cover.degree
        return FiberReport(
            degree=d,
            orbitals=self.orbitals,
            point_records=self.point_records,
            dual_graph=self.dual_graph,
            fiber_connected=is_connected(self.dual_graph).connected,
            offdiag_closure_connected=self.offdiag,
            offdiag_irreducible=d >= 2 and len(self.orbitals) == 2,
            genuinely_ramified=self.genuine.genuinely_ramified,
            etale_subcover_degree=self.genuine.etale_subcover_degree,
            galois_closure_order=self.group.order,
            sd_certificate=self.sd_certificate,
        )


# ---------------------------------------------------------------------------
# the public functions: one context per call

def orbitals(c: BranchedCover, checked: bool = True) -> tuple:
    """Orbitals ordered by least pair; the diagonal comes first for a
    transitive group since (1,1) is the least pair of all."""
    return CoverContext(c, checked).orbitals


def scheme_points(c: BranchedCover, checked: bool = True) -> tuple:
    """All points of the fiber square over branch points, with their local
    branches: every pair (kappa, lam) of cycles of c_j, fixed points too.
    c_j maps (kappa[i], lam[k]) to (kappa[i+1], lam[k+1]), so on lengths
    (e, l) the class of k - i mod g, g = gcd(e, l), is invariant; its g
    classes are the branches, each of lcm(e, l) pairs.  Class s holds
    (kappa[0], lam[s]) and has least pair (kappa[0], min lam[s::g]), as
    every cycle lists its least point first."""
    return CoverContext(c, checked).scheme_points


def dual_graph(c: BranchedCover, checked: bool = True) -> Graph:
    """Simple graph on orbitals, joined where a pair (kappa, lam) of moved
    cycles of c_j has branches in both: branch s holds (kappa[0], lam[s])."""
    return CoverContext(c, checked).dual_graph


def genuinely_ramified(c: BranchedCover, checked: bool = True) -> GenuineRamification:
    """Group-theoretic test: HN = G for H = Stab_G(1) and N the normal
    closure of the branch cycles.  The witness is the degree [G : HN] of the
    maximal etale subcover, d / |N.1|, where the N-orbits are the blocks of
    ``perm._congruence`` for G and the 0-based pairs (x, c_j(x))."""
    return CoverContext(c, checked).genuine


def certify_sd(c: BranchedCover, checked: bool = True) -> SdCertification:
    """Certify that a Morse, genuinely ramified cover has full symmetric
    Galois closure, step by step.  Hypothesis failures return a refusal; a
    step failing under satisfied hypotheses raises TheoremViolationError."""
    return CoverContext(c, checked).sd_certificate


def derived_cover_q1(c: BranchedCover, checked: bool = True) -> DerivedCover:
    """The restriction of the first projection to the off-diagonal closure,
    as H = Stab_G(1) acting on {2..d} with local inertia t = u^-1 c_j^e u at
    the point of Y given by a length-e cycle of c_j (u from the first level
    of G's chain, mapping 1 to the cycle's least point).  On a length-n
    cycle lam of c_j, c_j^e maps lam[i] to lam[i + e mod n]: t has gcd(e, n)
    cycles on u^-1 lam, so ramification n - gcd(e, n), and no t is built.
    Genuinely ramified iff H'N' = H for H' = Stab_H(2) and N' the normal
    closure of the inertia in H, that is iff |N'.2| = |H.2|, with N'.2 a
    block of ``perm._congruence`` for H and the 0-based pairs of t's steps."""
    return CoverContext(c, checked).derived_cover


def cayley_quotient_oracle(c: BranchedCover, cap: int = 10080,
                           checked: bool = True) -> OracleReport:
    """Galois-closure-level oracle: the graph on the elements of G, as
    indices in ``group.elements()`` order, with an edge when
    gamma . gamma'^-1 lies in a conjugate of some <c_j> minus the identity,
    quotiented along gamma -> orbital of (1, gamma(1)), which is
    orbital_of[gamma(1) - 1].  G is transitive, so every orbital is a vertex
    of the quotient.  Groups of order above ``cap`` are skipped."""
    return CoverContext(c, checked).cayley_oracle(cap)


def analyze(c: BranchedCover) -> FiberReport:
    """Full fiber-square report for a valid cover."""
    return CoverContext(c).report
