import dataclasses
import hashlib
import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramify import fiber
from ramify.cover import (BranchedCover, is_morse, monodromy_group,
                          relation_product, total_space_genus, validate)
from ramify.fiber import (
    CoverContext,
    TheoremViolationError,
    analyze,
    cayley_quotient_oracle,
    certify_sd,
    derived_cover_q1,
    dual_graph,
    genuinely_ramified,
    orbitals,
    scheme_points,
)
from ramify.gen import CorpusSpec, check_cover, enumerate_covers, random_cover
from ramify.graphs import Graph, is_connected
from ramify.numono import certify_projection, parse_poly
from ramify.perm import (Permutation, _congruence, format_cycles, orbits,
                         parse_cycles)

from oracles import (
    o_closure,
    o_component_cover,
    o_compose,
    o_dual_graph,
    o_generators,
    o_inverse,
    o_local_branches,
    o_local_inertia,
    o_normal_closure,
    o_pair_orbits,
    o_power,
    o_quotient_by_partition,
    o_stabilizer,
    o_transitivity,
    relabel,
)

from test_cover import (
    D4,
    ETALE_G1,
    GALOIS_V4,
    HYPERELLIPTIC6,
    IDENTITY_COVER,
    RAMIFIED_G1,
    TREFOIL,
    TREFOIL_MORSE,
    mk,
    valid_covers_st,
)
from test_perm import braid_walk_tuple

#: A Morse genus-0 cover of degree 7 with group S_7, made by a braid walk.
MORSE7 = mk(7, 0, ["(4 6)", "(1 3)", "(2 7)", "(4 5)", "(1 2)", "(3 6)",
                   "(6 7)", "(4 5)", "(4 6)", "(2 4)", "(1 7)", "(3 4)"])


# -- orbitals ---------------------------------------------------------------

def test_orbitals_two_transitive():
    orbs = orbitals(TREFOIL)
    assert [o.size for o in orbs] == [3, 6]
    assert orbs[0].is_diagonal and not orbs[1].is_diagonal


def test_orbitals_d4():
    orbs = orbitals(D4)
    assert sorted(o.size for o in orbs) == [4, 4, 8]
    diag = [o for o in orbs if o.is_diagonal]
    assert len(diag) == 1 and diag[0].size == 4 and diag[0].id == 0


def test_orbitals_identity_cover():
    orbs = orbitals(IDENTITY_COVER)
    assert len(orbs) == 1 and orbs[0].is_diagonal


def test_orbital_sizes_partition_d_squared():
    for cover in (TREFOIL, TREFOIL_MORSE, D4, HYPERELLIPTIC6, ETALE_G1):
        assert sum(o.size for o in orbitals(cover)) == cover.degree ** 2


# -- scheme points ----------------------------------------------------------

def test_scheme_point_transposition_against_fixed_point():
    cover = TREFOIL_MORSE  # c_1 = (1 2) in degree 3
    pts = [sp for sp in scheme_points(cover)
           if sp.branch_index == 1 and sp.cycle_pair == ((1, 2), (3,))]
    assert len(pts) == 1
    (branch,) = pts[0].branches
    assert branch.size == 2
    assert not orbitals(cover)[branch.orbital_id].is_diagonal


def test_scheme_point_double_point_two_branches():
    # the pair (kappa, kappa) for a transposition: the two local branches
    cover = HYPERELLIPTIC6
    sp = next(s for s in scheme_points(cover)
              if s.branch_index == 1 and s.cycle_pair == ((1, 2), (1, 2)))
    assert len(sp.branches) == 2
    orbs = orbitals(cover)
    kinds = sorted(orbs[b.orbital_id].is_diagonal for b in sp.branches)
    assert kinds == [False, True]
    assert all(b.size == 2 for b in sp.branches)


def test_scheme_point_four_cycle():
    sp = next(s for s in scheme_points(D4)
              if s.branch_index == 1
              and s.cycle_pair == ((1, 2, 3, 4), (1, 2, 3, 4)))
    assert len(sp.branches) == 4
    assert all(b.size == 4 for b in sp.branches)
    orbs = orbitals(D4)
    assert sorted(orbs[b.orbital_id].is_diagonal for b in sp.branches) == \
        [False, False, False, True]


@settings(max_examples=50, deadline=None)
@given(valid_covers_st())
def test_branch_counts_gcd_lcm(cover):
    for sp in scheme_points(cover):
        e, e2 = map(len, sp.cycle_pair)
        assert len(sp.branches) == math.gcd(e, e2)
        assert all(b.size == math.lcm(e, e2) for b in sp.branches)
        assert sum(b.size for b in sp.branches) == e * e2


def random_morse_cover(rng, d, r, g=0):
    """Rejection-sample a valid Morse cover; r must be even when g = 0."""
    import random as _random
    from ramify.perm import GeneratedGroup
    ident = Permutation.identity(d)
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    for _ in range(100_000):
        handles = []
        for _ in range(g):
            im1 = list(range(1, d + 1)); rng.shuffle(im1)
            im2 = list(range(1, d + 1)); rng.shuffle(im2)
            handles.append((Permutation(im1), Permutation(im2)))
        frees = []
        for _ in range(r - 1):
            a, b = rng.choice(pairs)
            frees.append(Permutation.from_cycle([a, b], d))
        prefix = BranchedCover(d, g, tuple(handles), tuple(frees))
        last = relation_product(prefix).inverse()
        if not last.is_transposition():
            continue
        cover = BranchedCover(d, g, tuple(handles), tuple(frees) + (last,))
        if validate(cover).valid:
            return cover
    raise AssertionError("could not sample a Morse cover")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_morse_branching(d, seed):
    import random
    cover = random_morse_cover(random.Random(seed), d, 2 * d)
    orbs = orbitals(cover)
    for sp in scheme_points(cover):
        assert len(sp.branches) <= 2
        if len(sp.branches) == 2:
            diag = [b for b in sp.branches if orbs[b.orbital_id].is_diagonal]
            assert len(diag) == 1


def assert_branches_match_walk(cover):
    """Every scheme point's local branches, as read off cycle positions,
    against the orbits of <c_j> walked pair by pair, and the dual graph
    against the loop over every walked point; ``cover`` is valid."""
    ctx = CoverContext(cover, checked=False)
    got = [(sp.branch_index, sp.cycle_pair,
            tuple((b.representative, b.size) for b in sp.branches))
           for sp in ctx.scheme_points]
    walk = o_local_branches(cover)
    assert got == walk
    d = cover.degree
    assert all(b.orbital_id == ctx.orbital_of[d * p + q - d - 1]
               for sp in ctx.scheme_points for b in sp.branches
               for p, q in [b.representative])
    assert ctx.dual_graph == o_dual_graph(cover, walk)


@pytest.mark.parametrize("corpus", [
    CorpusSpec(degrees=(1, 4), base_genera=(0, 0), branch_counts=(0, 4)),
    CorpusSpec(degrees=(1, 3), base_genera=(1, 1), branch_counts=(0, 2)),
], ids=["genus0", "genus1"])
def test_local_branches_match_the_orbit_walk(corpus):
    for cover in enumerate_covers(corpus):
        assert_branches_match_walk(cover)


def braid_walk_covers(d, count=3):
    """Seeded braid-walk Morse covers of degree d with group S_d, the shape
    of the benchmark's single-cover workload."""
    import random
    rng = random.Random(d)
    covers = [BranchedCover(d, 0, (), braid_walk_tuple(rng, d))
              for _ in range(count)]
    assert all(validate(cover).valid for cover in covers)
    return covers


@pytest.mark.parametrize("d", [9, 10, 11, 12])
def test_local_branches_match_the_orbit_walk_on_braid_walks(d):
    for cover in braid_walk_covers(d):
        assert_branches_match_walk(cover)


def test_local_branches_match_the_orbit_walk_on_d4():
    """A non-Morse cover where a double transposition meets itself, so
    gcd(e, e') = 2 and one cycle pair carries two branches."""
    assert_branches_match_walk(D4)
    assert any(len(sp.branches) == 2
               and tuple(map(len, sp.cycle_pair)) == (2, 2)
               for sp in scheme_points(D4))


def assert_one_record_per_pair(points):
    """Some cycle pair recurs, and the points over each cycle pair share one
    pair tuple and one tuple of branches."""
    by_pair: dict = {}
    for sp in points:
        by_pair.setdefault(sp.cycle_pair, set()).add(
            (id(sp.cycle_pair), id(sp.branches)))
    assert len(by_pair) < len(points)
    assert all(len(ids) == 1 for ids in by_pair.values())


def test_every_cycle_pair_reads_its_branches_once():
    """A cycle pair that occurs at several branch points shares one pair
    tuple and one tuple of branches there."""
    assert_one_record_per_pair(
        CoverContext(braid_walk_covers(12, count=1)[0]).scheme_points)


def test_report_records_have_no_instance_dict():
    """Orbitals, local branches and scheme points are slotted: a point
    costs one object, not an object and its attribute dict."""
    report = analyze(braid_walk_covers(9, count=1)[0])
    records = (report.orbitals[0], report.scheme_points[0],
               report.scheme_points[0].branches[0])
    assert [type(r).__name__ for r in records] == [
        "Orbital", "SchemePoint", "LocalBranch"]
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)


def long_cycle_covers() -> list:
    """Genus-0 covers with cycles of lengths 2, 3, 4 and 6, so that
    gcd(e, e') takes the values 1, 2, 3, 4 and 6.  Where
    1 < gcd(e, e') < e', a residue class holds several positions of kappa',
    and cycles that do not ascend make its least pair differ from the pair
    at its first position."""
    covers = []
    for d, texts in ((6, ["(1 4 2 6 3 5)", "(1 3 2)(4 6 5)"]),
                     (6, ["(1 2 3 4 5 6)", "(1 4 2 3)(5 6)"]),
                     (6, ["(1 4 2 3)(5 6)", "(1 5)(2 6)(3 4)", "(1 2 3 4 5 6)"]),
                     (8, ["(1 2)(3 8 4 7 5 6)", "(1 2 3 4 5 6 7 8)"])):
        frees = BranchedCover(d, 0, (), [parse_cycles(t, d) for t in texts])
        cover = BranchedCover(d, 0, (), frees.branch_cycles
                              + (relation_product(frees).inverse(),))
        assert validate(cover).valid
        covers.append(cover)
    return covers


def test_local_branches_match_the_orbit_walk_on_long_cycles():
    gcds = set()
    for cover in long_cycle_covers():
        assert_branches_match_walk(cover)
        gcds |= {len(sp.branches) for sp in scheme_points(cover)}
    assert {1, 2, 3, 4, 6} <= gcds


def assert_orbitals_match_the_pair_action(cover):
    """The context's orbitals and its table from the code d(p-1) + q-1 of
    each pair (p, q) to an orbital id, read off the raw generators, against
    ``perm.orbits`` of the monodromy group on every pair and against the
    pair-orbit oracle; ``cover`` is valid."""
    d = cover.degree
    ctx = CoverContext(cover, checked=False)
    parts = orbits(monodromy_group(cover, checked=False),
                   itertools.product(range(1, d + 1), repeat=2))
    assert list(parts) == o_pair_orbits(o_generators(cover), d)
    assert [(o.id, o.representative, o.size, o.is_diagonal)
            for o in ctx.orbitals] == [
        (i, part[0], len(part), part[0][0] == part[0][1])
        for i, part in enumerate(parts)]
    table = [None] * (d * d)
    for i, part in enumerate(parts):
        for p, q in part:
            table[d * p + q - d - 1] = i
    assert ctx.orbital_of == table


@pytest.mark.parametrize("covers", [
    lambda: enumerate_covers(CorpusSpec((1, 4), (0, 0), (0, 4), dedup=True)),
    lambda: enumerate_covers(CorpusSpec((1, 3), (1, 1), (0, 3), dedup=True)),
    lambda: [c for d in (9, 10, 11, 12) for c in braid_walk_covers(d)],
    long_cycle_covers,
], ids=["exhaustive_genus0", "exhaustive_genus1", "braid_walks",
        "long_cycles"])
def test_orbitals_match_the_pair_action(covers):
    for cover in covers():
        assert_orbitals_match_the_pair_action(cover)


def count_scheme_points(monkeypatch) -> list:
    """Patch ``fiber.SchemePoint`` to append 1 to the returned list on each
    construction."""
    made = []
    real = fiber.SchemePoint

    def counted(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fiber, "SchemePoint", counted)
    return made


def morse8_cover() -> BranchedCover:
    """A seeded Morse cover of degree 8 with 14 branch points, so 14 * 7^2
    scheme points."""
    return random_cover(CorpusSpec((8, 8), (0, 0), (14, 14), morse_only=True,
                                   samples=1, seed=3))


def test_no_check_builds_a_scheme_point(monkeypatch):
    """``check_cover`` and ``certify_projection`` read the dual graph and
    the genera off the cycle pairs with a moved cycle; reading a report's
    scheme points builds them all, (number of cycles of c_j)^2 per j."""
    made = count_scheme_points(monkeypatch)
    cover = morse8_cover()
    assert check_cover(cover)[2] == []
    assert len(made) == 0
    report = certify_projection(parse_poly("y^4 + x^4 + x*y - 1"))
    assert report.sd_certificate.certified
    assert len(made) == 0
    analyze(cover).scheme_points
    assert len(made) == sum(len(cj.cycles(include_fixed=True)) ** 2
                            for cj in cover.branch_cycles) == 14 * 7 ** 2


def test_the_fiber_report_document_builds_no_scheme_point(monkeypatch):
    """``analyze`` and its document read the per-pair records alone."""
    made = count_scheme_points(monkeypatch)
    doc = analyze(morse8_cover()).to_json_dict()
    assert len(doc["scheme_points"]) == 14 * 7 ** 2
    assert len(made) == 0


@pytest.mark.parametrize("cover", [braid_walk_covers(10, count=1)[0], MORSE7],
                         ids=["braid10", "morse7"])
def test_report_scheme_points_are_read_lazily(cover):
    """A report's scheme points are one cached tuple, equal to the
    context's, with one pair tuple and one branches tuple per distinct
    pair; reading them, before or after, leaves the document unchanged."""
    never = json.dumps(analyze(cover).to_json_dict())

    report = analyze(cover)
    points = report.scheme_points
    assert points is report.scheme_points
    assert points == CoverContext(cover).scheme_points
    assert_one_record_per_pair(points)
    assert json.dumps(report.to_json_dict()) == never

    report = analyze(cover)
    assert json.dumps(report.to_json_dict()) == never
    assert report.scheme_points == points
    assert json.dumps(report.to_json_dict()) == never


# -- dual graph -------------------------------------------------------------

def test_dual_graph_hyperelliptic_edge():
    g = dual_graph(HYPERELLIPTIC6)
    assert g.labels == (0, 1)
    assert g.edges == ((0, 1),)


def test_dual_graph_d4_triangle():
    g = dual_graph(D4)
    assert g.labels == (0, 1, 2)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_dual_graph_etale_edgeless():
    g = dual_graph(ETALE_G1)
    assert g.edges == ()
    assert not is_connected(g).connected


# -- genuine ramification ----------------------------------------------------

def test_genus_zero_always_genuinely_ramified():
    for cover in (HYPERELLIPTIC6, TREFOIL, TREFOIL_MORSE, D4):
        gr = genuinely_ramified(cover)
        assert gr.genuinely_ramified and gr.etale_subcover_degree == 1


def test_etale_double_cover_not_genuinely_ramified():
    gr = genuinely_ramified(ETALE_G1)
    assert not gr.genuinely_ramified
    assert gr.etale_subcover_degree == 2


def test_ramified_torus_cover_genuinely_ramified():
    gr = genuinely_ramified(RAMIFIED_G1)
    assert gr.genuinely_ramified


def test_identity_cover_genuinely_ramified():
    assert genuinely_ramified(IDENTITY_COVER).genuinely_ramified


@settings(max_examples=80, deadline=None)
@given(valid_covers_st())
def test_hn_test_agrees_with_dual_graph_connectivity(cover):
    gr = genuinely_ramified(cover)
    assert gr.genuinely_ramified == is_connected(dual_graph(cover)).connected


@settings(max_examples=50, deadline=None)
@given(valid_covers_st(), st.data())
def test_fiber_verdicts_conjugation_invariant(cover, data):
    sigma = Permutation(data.draw(
        st.permutations(list(range(1, cover.degree + 1)))))
    other = relabel(cover, sigma)
    a, b = analyze(cover), analyze(other)
    assert a.genuinely_ramified == b.genuinely_ramified
    assert a.etale_subcover_degree == b.etale_subcover_degree
    assert a.fiber_connected == b.fiber_connected
    assert a.offdiag_closure_connected == b.offdiag_closure_connected
    assert a.galois_closure_order == b.galois_closure_order
    assert sorted(o.size for o in a.orbitals) == sorted(o.size for o in b.orbitals)
    assert a.sd_certificate.certified == b.sd_certificate.certified


@settings(max_examples=200, deadline=None)
@given(st.one_of(valid_covers_st(max_degree=4, max_genus=0),
                 valid_covers_st(max_degree=3, max_branch=3)))
def test_fiber_verdicts_invariant_under_hurwitz_moves(cover):
    """The braid move (c_i, c_{i+1}) -> (c_i c_{i+1} c_i^-1, c_i) keeps the
    product of the pair, so the moved tuple is again a cover with the same
    group; its cycles are the old ones up to conjugation in that group, so
    the orbitals, the dual graph and every verdict stay exactly equal.
    Every move of the tuple is checked."""
    cycles = cover.branch_cycles
    assume(len(cycles) >= 2)
    before = CoverContext(cover)
    for i in range(len(cycles) - 1):
        a, b = cycles[i], cycles[i + 1]
        after = CoverContext(BranchedCover(
            cover.degree, cover.base_genus, cover.handles,
            cycles[:i] + (a * b * a.inverse(), a) + cycles[i + 2:]))
        assert after.group.order == before.group.order
        assert after.orbitals == before.orbitals
        assert after.dual_graph == before.dual_graph
        assert after.genuine == before.genuine
        assert after.offdiag == before.offdiag
        assert (after.sd_certificate.certified
                == before.sd_certificate.certified)


# -- off-diagonal closure -----------------------------------------------------

def test_offdiag_two_transitive():
    flag = CoverContext(TREFOIL).offdiag
    assert flag.connected and not flag.vacuous


def test_offdiag_d4_connected_via_adjacent_opposite_edge():
    flag = CoverContext(D4).offdiag
    assert flag.connected and not flag.vacuous


def test_offdiag_etale_double_cover_connected():
    # the off-diagonal part of an etale double cover is the graph of the deck
    # involution, a single component isomorphic to Y
    flag = CoverContext(ETALE_G1).offdiag
    assert flag.connected and not flag.vacuous
    assert not genuinely_ramified(ETALE_G1).genuinely_ramified


def test_offdiag_etale_triple_cover_disconnected():
    # etale cyclic triple cover: two off-diagonal components, no edges
    cover = mk(3, 1, [], handle_strs=[("(1 2 3)", "id")])
    assert validate(cover).valid
    flag = CoverContext(cover).offdiag
    assert not flag.connected
    assert len(orbitals(cover)) == 3
    assert not genuinely_ramified(cover).genuinely_ramified


def test_offdiag_degree_one_vacuous():
    flag = CoverContext(IDENTITY_COVER).offdiag
    assert flag.connected and flag.vacuous


# -- galois closure order ------------------------------------------------------

def test_galois_closure_orders():
    assert CoverContext(D4).group.order == 8
    assert CoverContext(TREFOIL_MORSE).group.order == 6
    assert CoverContext(HYPERELLIPTIC6).group.order == 2


# -- S_d certification ---------------------------------------------------------

def test_certify_trefoil_morse():
    cert = certify_sd(TREFOIL_MORSE)
    assert cert.certified
    assert cert.galois_closure_order == 6
    assert len(cert.steps) >= 5


def test_certify_refusal_not_morse():
    cert = certify_sd(D4)
    assert not cert.certified
    assert cert.failed_hypothesis == "not Morse"


def test_certify_refusal_etale():
    cert = certify_sd(ETALE_G1)
    assert not cert.certified
    assert "not genuinely ramified" in cert.failed_hypothesis


def test_certify_refusal_degree_one():
    cert = certify_sd(IDENTITY_COVER)
    assert not cert.certified


# -- component genera --------------------------------------------------------

def test_component_cover_diagonal_is_same_cover():
    for cover in (TREFOIL, D4, HYPERELLIPTIC6):
        ctx = CoverContext(cover)
        diag = next(o for o in ctx.orbitals if o.is_diagonal)
        assert o_component_cover(ctx, diag) == cover
        assert ctx.component_genus(diag) == total_space_genus(cover)


def test_component_cover_trefoil_offdiag_genus_zero():
    ctx = CoverContext(TREFOIL)
    off = next(o for o in ctx.orbitals if not o.is_diagonal)
    comp = o_component_cover(ctx, off)
    assert comp.degree == 6
    assert total_space_genus(comp) == 0
    assert ctx.component_genus(off) == 0


def test_component_cover_d4_opposite_orbital():
    ctx = CoverContext(D4)
    opp = next(o for o in ctx.orbitals if not o.is_diagonal and o.size == 4)
    comp = o_component_cover(ctx, opp)
    assert comp.degree == 4
    assert validate(comp).valid
    assert ctx.component_genus(opp) == total_space_genus(comp)


def _component_genera_match_the_oracle(covers) -> int:
    """Compare ``component_genus`` with the genus of the oracle's component
    cover on every orbital of every cover, and the diagonal's with the genus
    of the cover; return the number of off-diagonal orbitals."""
    offdiag = 0
    for cover in covers:
        ctx = CoverContext(cover)
        for o in ctx.orbitals:
            comp = o_component_cover(ctx, o)
            assert comp.degree == o.size
            assert ctx.component_genus(o) == total_space_genus(comp)
            if o.is_diagonal:
                assert ctx.component_genus(o) == total_space_genus(cover)
            else:
                offdiag += 1
    return offdiag


def test_component_genus_matches_the_oracle_on_the_exhaustive_corpus():
    """The bench's exhaustive corpus, one cover per class: genus 0 with
    d <= 4 and r <= 4, and genus 1 with d <= 3 and r <= 3."""
    specs = (CorpusSpec((1, 4), (0, 0), (0, 4), dedup=True),
             CorpusSpec((1, 3), (1, 1), (0, 3), dedup=True))
    covers = [cover for spec in specs for cover in enumerate_covers(spec)]
    assert _component_genera_match_the_oracle(covers) == 859


def test_component_genus_matches_the_oracle_on_morse_samples():
    covers = [random_cover(CorpusSpec((d, d), (0, 0), (2 * d - 2, 2 * d - 2),
                                      morse_only=True, samples=1, seed=seed))
              for d in (6, 7, 8) for seed in range(10)]
    assert _component_genera_match_the_oracle(covers) == len(covers)


def test_component_genus_matches_the_oracle_on_the_fixtures():
    """The long-cycle covers add cycle pairs with gcd up to 6 and branch
    classes of several positions, which the corpora do not have."""
    covers = (TREFOIL, TREFOIL_MORSE, D4, HYPERELLIPTIC6, ETALE_G1,
              RAMIFIED_G1, GALOIS_V4, IDENTITY_COVER, MORSE7,
              *long_cycle_covers())
    assert _component_genera_match_the_oracle(covers) > 0


# -- derived cover ----------------------------------------------------------------

def test_derived_cover_degree_two_is_trivial():
    cover = mk(2, 0, ["(1 2)"] * 4)
    derived = derived_cover_q1(cover)
    assert derived.degree == 1
    assert derived.morse
    assert derived.genuinely_ramified
    assert all(li.element.is_identity() for li in o_local_inertia(cover))
    # Y' = Y via the second projection: same genus
    assert derived.total_space_genus == total_space_genus(cover)


def test_derived_cover_trefoil_inertia():
    # the non-Morse trefoil: inertia at the unramified point over each
    # transposition branch point is a transposition; the double point and the
    # 3-cycle give trivial inertia
    derived = derived_cover_q1(TREFOIL)
    assert derived.degree == 2
    nontrivial = [li for li in o_local_inertia(TREFOIL)
                  if not li.element.is_identity()]
    assert len(nontrivial) == 2
    assert all(str(li.element) == "(2 3)" for li in nontrivial)
    assert {(li.branch_index, li.cycle) for li in nontrivial} == \
        {(1, (3,)), (2, (1,))}
    assert derived.morse
    assert derived.genuinely_ramified
    assert derived.total_space_genus == 0


def test_derived_cover_trefoil_morse():
    derived = derived_cover_q1(TREFOIL_MORSE)
    assert derived.degree == 2
    assert derived.morse and derived.genuinely_ramified
    nontrivial = [li for li in o_local_inertia(TREFOIL_MORSE)
                  if not li.element.is_identity()]
    assert len(nontrivial) == 4
    assert derived.total_space_genus == 1


def test_derived_genus_agrees_with_component_cover():
    for cover in (TREFOIL, TREFOIL_MORSE):
        derived = derived_cover_q1(cover)
        ctx = CoverContext(cover)
        off = next(o for o in ctx.orbitals if not o.is_diagonal)
        comp = o_component_cover(ctx, off)
        assert derived.total_space_genus == total_space_genus(comp)
        assert derived.total_space_genus == ctx.component_genus(off)


def test_derived_genus_refuses_a_non_cover_like_the_base_genus():
    # unchecked, the relation fails; the base genus is 0, but both branch
    # cycles are 4-cycles, so the derived inertia is trivial and over Y
    # 2g' - 2 = 3(2 * 0 - 2) = -6
    from ramify.cover import ModelInconsistencyError, total_space_genus
    bad = mk(4, 0, ["(1 2 3 4)", "(1 2 4 3)"])
    assert total_space_genus(bad, checked=False) == 0
    with pytest.raises(ModelInconsistencyError, match="2g-2 = -6"):
        CoverContext(bad, checked=False).derived_cover
    with pytest.raises(ModelInconsistencyError, match="2g-2 = -3"):
        total_space_genus(mk(2, 0, ["(1 2)"]), checked=False)


@pytest.mark.parametrize("cover, wrong", [
    # every representative the identity: the inertia at (3) of (1 2) is
    # (1 2), which moves point 1
    (TREFOIL_MORSE, lambda q: Permutation.identity(3)),
    # (1 q) maps 1 to q but lies outside D4: the inertia at (2) of (1 3)
    # is (2 3), which fixes point 1 but is not in the group
    (D4, lambda q: Permutation.from_cycle(sorted({1, q}), 4)),
])
def test_wrong_coset_representative_is_a_theorem_violation(cover, wrong,
                                                             monkeypatch):
    """Local inertia outside Stab_G(1) raises TheoremViolationError, also
    under ``python -O``."""
    import ramify.fiber as fiber_module

    real = fiber_module.transversal

    def transversal(g, p):
        reps = real(g, p)
        return {q: wrong(q) for q in reps} if p == 1 else reps

    monkeypatch.setattr(fiber_module, "transversal", transversal)
    with pytest.raises(TheoremViolationError, match=r"not lie in Stab_G\(1\)"):
        CoverContext(cover).derived_cover


def test_derived_cover_d4_intransitive_fiber():
    derived = derived_cover_q1(D4)
    assert derived.degree == 3
    assert not derived.fiber_transitive
    assert derived.total_space_genus is None


def test_derived_cover_rejects_degree_one():
    with pytest.raises(ValueError):
        derived_cover_q1(IDENTITY_COVER)


def test_derived_inertia_fixes_point_one():
    for cover in (TREFOIL, TREFOIL_MORSE, D4, HYPERELLIPTIC6):
        for li in o_local_inertia(cover):
            assert li.element(1) == 1


def _derived_verdicts_by_elements(cover) -> tuple:
    """(morse, fiber_transitive, total_space_genus) of the derived cover
    from the oracle's inertia elements: Morse iff each non-identity one is
    a transposition, fiber-transitive iff G has two orbits on ordered
    pairs, and the genus by Riemann-Hurwitz over Y from their cycles."""
    d = cover.degree
    nontrivial = [li.element for li in o_local_inertia(cover)
                  if not li.element.is_identity()]
    transitive = o_transitivity(o_generators(cover), d) == "two_transitive"
    genus = None
    if transitive:
        doubled = (d - 1) * (2 * total_space_genus(cover) - 2) + sum(
            len(cyc) - 1 for t in nontrivial for cyc in t.cycles())
        assert doubled % 2 == 0
        genus = doubled // 2 + 1
    return all(t.is_transposition() for t in nontrivial), transitive, genus


def test_derived_verdicts_match_the_inertia_oracle():
    """The bench's exhaustive corpus with d >= 2, one cover per class, and
    600 random covers of genus 1 and 2 with d = 2..8 and r = 1..3."""
    specs = (CorpusSpec((2, 4), (0, 0), (0, 4), dedup=True),
             CorpusSpec((2, 3), (1, 1), (0, 3), dedup=True))
    covers = [cover for spec in specs for cover in enumerate_covers(spec)]
    covers += [random_cover(CorpusSpec((2, 8), (1, 2), (1, 3), samples=1,
                                       seed=seed)) for seed in range(600)]
    seen = set()
    for cover in covers:
        derived = derived_cover_q1(cover)
        got = (derived.morse, derived.fiber_transitive,
               derived.total_space_genus)
        assert got == _derived_verdicts_by_elements(cover)
        seen.add(got[:2])
    assert seen == set(itertools.product((False, True), repeat=2))


@pytest.mark.parametrize("cover", [MORSE7, D4, ETALE_G1, TREFOIL,
                                   HYPERELLIPTIC6])
def test_derived_cover_builds_no_inertia_element(cover, monkeypatch):
    """With G and Stab_G(1) built, the derived cover multiplies and powers
    no permutation and makes one membership strip per fiber point."""
    from ramify.perm import GeneratedGroup

    ctx = CoverContext(cover)
    assert ctx.group.order and ctx.stabilizer.order

    def refuse(*args):
        raise AssertionError("a permutation product was built")

    strips = []
    contains = GeneratedGroup.__contains__

    def counted(group, p):
        strips.append(p)
        return contains(group, p)

    monkeypatch.setattr(Permutation, "__mul__", refuse)
    monkeypatch.setattr(GeneratedGroup, "__contains__", counted)
    assert ctx.derived_cover
    assert len(strips) <= cover.degree


def _raw(p):
    return tuple(x - 1 for x in p.images)


def _hn_tests_by_elements(c):
    """[G : HN], and whether H'N' = Stab_G(1) for the derived cover, from
    element sets: G by closure, H = Stab(1) and H' = Stab_H(2) by filtering,
    N and N' by brute-force normal closure, and the inertia at a cycle of
    c_j from the least element of G that maps the cycle's least point to 1."""
    group = o_closure([_raw(p) for p in c.all_generators()]
                      or [tuple(range(c.degree))])
    stab = o_stabilizer(group, 0)
    closure = o_normal_closure([_raw(s) for s in c.branch_cycles], group)
    index = len(group) // len({o_compose(h, n) for h in stab for n in closure})
    if c.degree < 2:
        return index, None
    inertia = []
    for cj in c.branch_cycles:
        for kappa in cj.cycles(include_fixed=True):
            u = min(g for g in group if g[kappa[0] - 1] == 0)
            power = o_power(_raw(cj), len(kappa))
            element = o_compose(o_compose(u, power), o_inverse(u))
            if element != tuple(range(c.degree)):
                inertia.append(element)
    closure2 = o_normal_closure(inertia, stab)
    products = {o_compose(h, n) for h in o_stabilizer(stab, 1)
                for n in closure2}
    return index, len(products) == len(stab)


@pytest.mark.parametrize("corpus", [
    CorpusSpec(degrees=(1, 4), base_genera=(0, 0), branch_counts=(0, 3)),
    CorpusSpec(degrees=(1, 3), base_genera=(1, 1), branch_counts=(0, 2)),
])
def test_hn_tests_match_element_set_oracle(corpus):
    covers = list(enumerate_covers(corpus)) + [D4, ETALE_G1]
    for cover in covers:
        ctx = CoverContext(cover)
        index, derived_gr = _hn_tests_by_elements(cover)
        assert ctx.genuine.etale_subcover_degree == index
        assert ctx.genuine.genuinely_ramified == (index == 1)
        if cover.degree >= 2:
            assert ctx.derived_cover.genuinely_ramified == derived_gr


@pytest.mark.parametrize("cover", [MORSE7, D4, ETALE_G1, TREFOIL])
def test_hn_tests_build_no_group(cover, monkeypatch):
    """With G and Stab_G(1) built, the HN test and the derived cover's test
    read blocks of points and basic orbit lengths: they build no
    GeneratedGroup, no normal closure and no point stabilizer."""
    import ramify.fiber
    import ramify.perm
    from ramify.perm import GeneratedGroup

    ctx = CoverContext(cover)
    assert ctx.group.order and ctx.stabilizer.order

    def refuse(*args):
        raise AssertionError("a group was built")

    for name in ("normal_closure", "point_stabilizer"):
        monkeypatch.setattr(ramify.perm, name, refuse)
        monkeypatch.setattr(ramify.fiber, name, refuse, raising=False)
    monkeypatch.setattr(GeneratedGroup, "_set", refuse)
    assert ctx.genuine and ctx.derived_cover


def assert_blocks_witness_the_etale_subcover(cover):
    """The blocks of the least congruence are the fibers of Y -> Z for an
    etale Z -> X of degree [G : HN]: every generator of G permutes them and
    every branch cycle fixes each one.  The check reads only the blocks and
    the generators."""
    ctx = CoverContext(cover)
    blocks = tuple(tuple(x + 1 for x in b) for b in _congruence(
        [h._raw for h in ctx.group.generators], cover.degree,
        [(x - 1, cj(x) - 1) for cj in cover.branch_cycles
         for x in range(1, cover.degree + 1)]))
    parts = {frozenset(b) for b in blocks}
    assert set().union(*parts) == set(range(1, cover.degree + 1))
    for s in cover.all_generators():
        assert {frozenset(s(x) for x in b) for b in blocks} == parts
    for cj in cover.branch_cycles:
        assert all({cj(x) for x in b} == set(b) for b in blocks)
    assert len(blocks) == ctx.genuine.etale_subcover_degree
    return len(blocks)


def test_blocks_witness_the_etale_subcover():
    genus1 = CorpusSpec(degrees=(1, 3), base_genera=(1, 1),
                        branch_counts=(0, 2))
    degrees = [assert_blocks_witness_the_etale_subcover(cover)
               for cover in [D4, ETALE_G1, *enumerate_covers(genus1)]]
    assert degrees[:2] == [1, 2]
    assert {1, 2, 3} <= set(degrees)


# -- cayley quotient oracle ---------------------------------------------------------

def test_oracle_galois_hyperelliptic():
    report = cayley_quotient_oracle(HYPERELLIPTIC6)
    assert not report.skipped
    assert report.cayley_graph.n == 2
    assert report.matches_dual
    assert report.quotient_connected


def test_oracle_galois_cyclic_three():
    cover = mk(3, 0, ["(1 2 3)", "(1 3 2)"])
    report = cayley_quotient_oracle(cover)
    assert not report.skipped
    assert report.cayley_graph.n == 3
    assert report.quotient_connected
    assert report.matches_dual
    assert dual_graph(cover).edges == ((0, 1), (0, 2), (1, 2))


def test_oracle_galois_etale():
    report = cayley_quotient_oracle(ETALE_G1)
    assert report.matches_dual
    assert not report.quotient_connected


def test_oracle_d4_consistent():
    report = cayley_quotient_oracle(D4)
    assert not report.skipped
    assert report.quotient_connected == is_connected(dual_graph(D4)).connected
    # one-sided containment always holds
    assert set(report.quotient.edges) <= set(dual_graph(D4).edges)


def test_oracle_cap():
    report = cayley_quotient_oracle(D4, cap=4)
    assert report.skipped
    assert "exceeds cap" in report.reason


@settings(max_examples=40, deadline=None)
@given(valid_covers_st(max_degree=4))
def test_oracle_quotient_edges_within_dual(cover):
    report = cayley_quotient_oracle(cover)
    assume(not report.skipped)
    assert set(report.quotient.edges) <= set(dual_graph(cover).edges)
    if validate(cover).is_galois:
        assert report.matches_dual


def _cayley_oracle_by_permutations(ctx) -> tuple:
    """The Cayley graph and its quotient built on Permutation objects: the
    connection set holds g s g^-1 for every g in G and non-identity power s
    of a c_j, each element g is joined to s g and labelled by its cycle
    string, and the graph is quotiented by the generic partition quotient
    along g -> orbital of (1, g(1)), the orbitals by brute force."""
    cover = ctx.cover
    elements = [(g, g.inverse()) for g in ctx.group.elements()]
    connection = set()
    for cj in cover.branch_cycles:
        s = cj
        while not s.is_identity():
            connection.update(g * s * inv for g, inv in elements)
            s = s * cj
    label = {g: format_cycles(g) for g, _ in elements}
    cayley = Graph(label.values(), [(label[g], label[s * g])
                                    for g in label for s in connection])
    parts = o_pair_orbits(o_generators(cover), cover.degree)
    orbital = {pair: i for i, part in enumerate(parts) for pair in part}
    blocks: dict = {}
    for g in label:
        blocks.setdefault(orbital[1, g(1)], []).append(label[g])
    names = sorted(blocks)
    return cayley, o_quotient_by_partition(
        cayley, [blocks[n] for n in names], names)


class _Reads(list):
    """A code table that records the codes read from it."""

    def __getitem__(self, code):
        self.codes.append(code)
        return super().__getitem__(code)


def test_oracle_matches_the_permutation_construction():
    """Every cover of the bench's exhaustive strata, Galois or not: genus 0
    with d <= 4 and r <= 4, and genus 1 with d <= 3 and r <= 3.  Vertex i
    of the Cayley graph is the i-th element of G, so the two Cayley graphs
    are compared by size.  The orbital of (g(1), 1)
    is the transpose of that of (1, g(1)), and transposition is an
    automorphism of the quotient, so the map itself is checked by the codes
    it reads: that of (1, g(1)), g(1) - 1, once per g."""
    specs = (CorpusSpec((1, 4), (0, 0), (0, 4), dedup=True),
             CorpusSpec((1, 3), (1, 1), (0, 3), dedup=True))
    galois = 0
    for cover in itertools.chain.from_iterable(map(enumerate_covers, specs)):
        ctx = CoverContext(cover)
        assert ctx.dual_graph.n
        ctx.orbital_of = table = _Reads(ctx.orbital_of)
        table.codes = []
        report = ctx.cayley_oracle(10080)
        cayley, quotient = _cayley_oracle_by_permutations(ctx)
        elements = ctx.group.elements()
        assert sorted(table.codes) == sorted(g(1) - 1 for g in elements)
        assert not report.skipped
        assert report.cayley_graph.labels == tuple(range(len(elements)))
        assert len(report.cayley_graph.edges) == len(cayley.edges)
        assert report.quotient == quotient
        assert report.quotient_connected == is_connected(quotient).connected
        assert report.matches_dual == (quotient == ctx.dual_graph)
        galois += ctx.group.order == cover.degree
    assert galois == 56


@pytest.mark.parametrize("cover", [
    HYPERELLIPTIC6, D4, mk(3, 0, ["(1 2 3)", "(1 3 2)"])],
    ids=["hyperelliptic6", "d4", "cyclic3"])
def test_oracle_multiplies_no_permutation(cover, monkeypatch):
    """With G and the dual graph built, the oracle makes no Permutation
    product or inverse: it works on the elements' image tuples."""
    ctx = CoverContext(cover)
    assert ctx.group.order and ctx.dual_graph
    calls = []
    for name in ("__mul__", "inverse"):
        method = getattr(Permutation, name)

        def counted(*args, name=name, method=method):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(Permutation, name, counted)
    assert ctx.cayley_oracle(10080).matches_dual
    assert calls == []


# -- report assembly -----------------------------------------------------------------

def test_analyze_trefoil_report():
    report = analyze(TREFOIL_MORSE)
    assert report.degree == 3
    assert report.fiber_connected
    assert report.offdiag_irreducible
    assert report.genuinely_ramified
    assert report.galois_closure_order == 6
    assert report.sd_certificate.certified
    doc = report.to_json_dict()
    assert doc["schema"] == "fiber-report/1"
    assert doc["dual_graph"]["vertices"] == [0, 1]


def test_analyze_flags_consistent():
    for cover in (TREFOIL, D4, ETALE_G1, HYPERELLIPTIC6, IDENTITY_COVER):
        report = analyze(cover)
        assert report.fiber_connected == report.genuinely_ramified
        assert report.offdiag_irreducible == (
            cover.degree >= 2 and len(report.orbitals) == 2)


#: SHA-256 of ``json.dumps(analyze(c).to_json_dict())`` with the headline
#: verdicts: genuinely ramified, orbitals, |G|, S_d certified.  The first
#: six were recorded from the implementation that rebuilt every derived
#: object on each use.  The next two, a d = 12 braid walk (2,662 points)
#: and a cover whose cycle pairs have gcd 1, 2, 3, 4 and 6, were recorded
#: before the points over one cycle pair shared their records.  The d = 24
#: braid walk (24,334 points) was recorded while the report still built
#: every SchemePoint, before it wrote the document from per-pair records.
GOLDEN_ANALYZE = {
    "galois_v4": (GALOIS_V4, True, 4, 4, False,
                  "64a2a7997a7772b7cc7039a8dc32b8e29cb2d236373a237f6a2497a251a7c6d2"),
    "etale_g1": (ETALE_G1, False, 2, 2, False,
                 "8f8eb029048fc8cde9259320f2364bf9db0d051c2ac93ddfdba99b93a72e6a1b"),
    "d4": (D4, True, 3, 8, False,
           "e0a8c31a86fbfa6711db1415882457042b408bf167feb44c81b901235179244a"),
    "trefoil": (TREFOIL, True, 2, 6, False,
                "709e69e3dc4ce1ecb30d980755e1862bbc9078ec7467f4a17dc8311f6696fb52"),
    "ramified_g1": (RAMIFIED_G1, True, 2, 2, True,
                    "4aff3c78edf34f8a6c68af8550f2905ea92d567c1f4da45e1d6314ed5a163b08"),
    "morse7": (MORSE7, True, 2, 5040, True,
               "860b9c32b95b193641fb6d8702909a607c27a5a009c16de24c7ce6e9529c513a"),
    "braid12": (braid_walk_covers(12, count=1)[0], True, 2, 479001600, True,
                "507f012d8f5239227ac0c23567e4f26cf94805ba5b8bb6ef3d425a307d4c9e17"),
    "braid24": (braid_walk_covers(24, count=1)[0], True, 2,
                math.factorial(24), True,
                "8777b9b38c4240309d3f93266c867069cc77824f735b921451fcf9c33848b2e8"),
    "long_cycles": (long_cycle_covers()[2], True, 2, 720, False,
                    "c4173e457fb2d81fcaf3c0d5d82747c60122942e008231f81351fdff62d49806"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_analyze_json_matches_recorded(name):
    cover, gr, n_orbitals, order, certified, digest = GOLDEN_ANALYZE[name]
    doc = analyze(cover).to_json_dict()
    assert (doc["genuinely_ramified"], len(doc["orbitals"]),
            doc["galois_closure_order"], doc["sd_certificate"]["certified"]) \
        == (gr, n_orbitals, order, certified)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


@pytest.mark.parametrize("cover", [braid_walk_covers(10, count=1)[0], MORSE7],
                         ids=["braid10", "morse7"])
def test_report_json_shares_each_cycle_pair_once(cover):
    """The points over one cycle pair share its "cycles" and "branches"
    lists; the document still round-trips through JSON, and no list is
    shared between two calls."""
    report = analyze(cover)
    doc = report.to_json_dict()
    points = doc["scheme_points"]
    pairs = {sp.cycle_pair for sp in report.scheme_points}
    assert len(pairs) < len(points)
    assert len({id(p["cycles"]) for p in points}) == len(pairs)
    assert len({id(p["branches"]) for p in points}) == len(pairs)
    assert json.loads(json.dumps(doc)) == doc

    other = report.to_json_dict()
    assert other == doc
    before = json.dumps(other)
    for p in points:
        p["cycles"][0].append(0)
        p["branches"][0]["representative"].append(0)
        p["branches"].append(None)
    assert json.dumps(other) == before
    assert json.dumps(report.to_json_dict()) == before


@pytest.mark.parametrize("cover", [MORSE7, D4, ETALE_G1, GALOIS_V4])
def test_analyze_builds_the_monodromy_group_once(cover, monodromy_builds):
    analyze(cover)
    assert monodromy_builds == [cover.all_generators()]


def test_the_orbitals_bfs_is_the_only_orbit_computation(monkeypatch):
    """Transitivity is read off the chain, so analysing and checking a cover
    run one orbit BFS, over every pair code, for the orbitals, and never
    the validating ``perm.orbits``."""
    import ramify.fiber
    import ramify.perm
    from ramify.gen import check_cover

    real = ramify.perm._pair_orbits
    starts = []

    def counted(raws, d, start_codes=None):
        starts.append(start_codes)
        return real(raws, d, start_codes)

    def refuse(*args):
        raise AssertionError("perm.orbits was called")

    monkeypatch.setattr(ramify.perm, "_pair_orbits", counted)
    monkeypatch.setattr(ramify.fiber, "_pair_orbits", counted)
    monkeypatch.setattr(ramify.perm, "orbits", refuse)
    analyze(MORSE7)
    assert starts == [None]
    starts.clear()
    counters, _, violations = check_cover(MORSE7)
    assert counters["derived_cover"] == 1 and not violations
    assert starts == [None]


@pytest.mark.parametrize("cover", [MORSE7, D4, ETALE_G1, GALOIS_V4])
def test_the_orbitals_build_no_group(cover, monkeypatch):
    """A fresh context reads its orbitals, their code table, the dual graph
    and the off-diagonal flag off the cover's raw generators: it builds no
    GeneratedGroup for them."""
    from ramify.perm import GeneratedGroup

    def refuse(*args):
        raise AssertionError("a group was built")

    ctx = CoverContext(cover)
    monkeypatch.setattr(GeneratedGroup, "_set", refuse)
    assert ctx.orbitals and ctx.orbital_of
    assert ctx.dual_graph == dual_graph(cover) and ctx.offdiag
    assert "group" not in vars(ctx)
