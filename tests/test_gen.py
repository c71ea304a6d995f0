import dataclasses
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ramify.gen
from ramify.cover import (
    BranchedCover,
    InvalidCoverError,
    dumps_cover,
    is_morse,
    loads_cover,
    relation_product,
    validate,
)
from ramify.fiber import CoverContext, OracleReport, TheoremViolationError
from ramify.gen import (
    _draw_parameters,
    _sample_cover,
    CapExceededError,
    CorpusSpec,
    InfeasibleParametersError,
    VerificationReport,
    canonical_form,
    check_cover,
    enumerate_covers,
    random_cover,
    verify_corpus,
)
from ramify.graphs import ConnectivityVerdict
from ramify.perm import Permutation, Transitivity, parse_cycles

import oracles
from oracles import (
    o_canonical_form,
    o_canonical_form_scan,
    o_centralizer_order,
    o_count_valid_tuples,
    o_enumerate_covers,
    o_sample_cover,
    relabel,
)
from test_fiber import MORSE7


def spec(d, g, r, **kw):
    return CorpusSpec(degrees=(d, d), base_genera=(g, g),
                      branch_counts=(r, r), **kw)


# -- enumeration ----------------------------------------------------------

@pytest.mark.parametrize("d, expected", [(2, 1), (3, 24), (4, 2880)])
def test_morse_genus0_count_matches_hurwitz_formula(d, expected):
    """Hurwitz's formula: S_d has d^(d-3) (2d-2)! transitive factorisations
    of the identity into 2d-2 transpositions (Goulden and Jackson,
    Transitive factorizations into transpositions and holomorphic mappings
    on the sphere, Proc. AMS 125, 1997)."""
    assert expected * d ** 3 == d ** d * math.factorial(2 * d - 2)
    covers = enumerate_covers(spec(d, 0, 2 * d - 2, morse_only=True))
    assert sum(1 for _ in covers) == expected


def test_enumerate_d2_g0_r2():
    covers = list(enumerate_covers(spec(2, 0, 2)))
    assert len(covers) == 1
    assert [str(c) for c in covers[0].branch_cycles] == ["(1 2)", "(1 2)"]


def test_enumerate_d3_g0_r2():
    covers = list(enumerate_covers(spec(3, 0, 2)))
    # only (c, c^-1) with c a 3-cycle is transitive
    assert len(covers) == 2
    deduped = list(enumerate_covers(spec(3, 0, 2, dedup=True)))
    assert len(deduped) == 1


def test_enumerate_d2_g1_r0():
    covers = list(enumerate_covers(spec(2, 1, 0)))
    assert len(covers) == 3
    assert all(c.branch_count == 0 for c in covers)


def test_enumerate_counts_match_brute_force():
    # independent full product-space scan, genus 0
    for d, r in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        ours = sum(1 for _ in enumerate_covers(spec(d, 0, r)))
        assert ours == o_count_valid_tuples(d, r), (d, r)


#: (genus, degree, branch count) of every stratum of the exhaustive bench
#: corpus: genus 0 with d <= 4, r <= 4 and genus 1 with d <= 3, r <= 3.
EXHAUSTIVE_STRATA = [(g, d, r) for g, d_max, r_max in ((0, 4, 4), (1, 3, 3))
                     for d in range(1, d_max + 1) for r in range(r_max + 1)]


@pytest.mark.parametrize("morse", [False, True], ids=["any", "morse"])
@pytest.mark.parametrize("g, d, r", EXHAUSTIVE_STRATA,
                         ids=[f"g{g}_d{d}_r{r}" for g, d, r in EXHAUSTIVE_STRATA])
def test_enumeration_matches_permutation_building_oracle(g, d, r, morse):
    """The raw completion keeps exactly the candidates that building each
    one as a cover and validating it keeps, in the same order.  Dedup skips
    every candidate whose first free generator is not the least of its
    conjugacy class, yet keeps the first cover of each class of that
    stream, cover for cover and in order."""
    covers = o_enumerate_covers(d, g, r, morse)
    assert list(enumerate_covers(spec(d, g, r, morse_only=morse))) == covers
    firsts: dict = {}
    for cover in covers:
        firsts.setdefault(canonical_form(cover), cover)
    assert list(enumerate_covers(spec(d, g, r, morse_only=morse,
                                      dedup=True))) == list(firsts.values())


def test_enumerate_all_valid():
    for cover in enumerate_covers(CorpusSpec((1, 3), (0, 1), (0, 2))):
        assert validate(cover).valid


def test_enumerate_morse_only():
    covers = list(enumerate_covers(spec(3, 0, 4, morse_only=True)))
    assert covers
    assert all(is_morse(c) for c in covers)


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_covers(spec(6, 0, 2)))
    with pytest.raises(CapExceededError):
        list(enumerate_covers(spec(4, 1, 2)))
    with pytest.raises(CapExceededError):
        list(enumerate_covers(spec(2, 2, 2)))


@pytest.mark.parametrize("corpus", [
    CorpusSpec((4, 4), (0, 0), (9, 9)),
    CorpusSpec((2, 5), (0, 0), (0, 4)),
    CorpusSpec((4, 4), (0, 0), (9, 9), morse_only=True),
    CorpusSpec((2, 2), (0, 0), (0, 20_000)),
    CorpusSpec((1, 1), (0, 0), (0, 10 ** 9)),
    CorpusSpec((1, 2), (1, 1), (0, 10 ** 9)),
], ids=["d4_r9", "d2_to_5_r4", "morse_d4_r9", "d2_r20000", "d1_r1e9",
        "genus1_d1_to_2_r1e9"])
def test_enumerate_refuses_strata_past_the_candidate_bound(corpus):
    """The degree caps leave r free: d = 4, r = 9 holds 23^8 (about
    7.8e10) candidates, d = 5, r = 4 holds 119^3, Morse d = 4, r = 9 holds
    6^8.  At d = 1 and d = 2 a stratum holds at most one candidate, but it
    composes r - 1 cycles and every r up to r_hi is walked, so the pool is
    counted as at least 2 and r above 19 is refused.  Each is refused
    before the first candidate, even where a smaller degree of the spec
    comes first."""
    with pytest.raises(CapExceededError, match="candidates"):
        next(enumerate_covers(corpus))


def test_enumerate_allows_strata_under_the_candidate_bound():
    """d = 4, r = 5 (23^4 candidates) and Morse d = 4, r = 8 (6^7) are the
    largest strata the bound allows."""
    for corpus in (CorpusSpec((4, 4), (0, 0), (5, 5)),
                   CorpusSpec((4, 4), (0, 0), (8, 8), morse_only=True)):
        assert next(enumerate_covers(corpus)).degree == 4


def test_enumerate_deterministic_order():
    a = [dumps_cover(c) for c in enumerate_covers(spec(3, 0, 3))]
    b = [dumps_cover(c) for c in enumerate_covers(spec(3, 0, 3))]
    assert a == b


#: SHA-256 of the concatenated ``dumps_cover`` texts, recorded from the
#: implementation that restated the surface relation inline in
#: ``enumerate_covers`` and in the sampler.  The ``dedup`` streams were
#: recorded while ``canonical_form`` still scanned all of S_d: whatever the
#: key, dedup keeps the first cover of each class in enumeration order.
GOLDEN_ENUMERATION = {
    "genus0": (CorpusSpec((1, 4), (0, 0), (0, 3)), 438,
               "3b12285f8b4ead2d6a908627ab138f8cc1e635a3d80c65640a9f9ac7a73f408f"),
    "genus1_morse": (CorpusSpec((2, 3), (1, 1), (0, 2), morse_only=True), 111,
                     "dcf1adfbf3321f4b58798b9bd55e3c0a35e84681a4bb014df4214a368d321638"),
    "genus0_dedup": (CorpusSpec((1, 4), (0, 0), (0, 3), dedup=True), 31,
                     "1629c02c7fdc605f38849885583c9e53d8547d9868628e25c359456c6a610b61"),
    "genus1_dedup": (CorpusSpec((1, 3), (1, 1), (0, 2), dedup=True), 46,
                     "6ab22d3bf0930e1aaea48d0ca5c730e499bcc49a46f169b14e23d3d90afdee2a"),
    "genus1_morse_dedup": (CorpusSpec((2, 3), (1, 1), (0, 2), morse_only=True,
                                      dedup=True), 27,
                           "6478416c804661e4c69f961612bec9d876661a2a5363ccf236148e2198afde61"),
}

#: The same over ``random_cover`` of each spec with seeds 0..7.
GOLDEN_SAMPLES = {
    "genus0": (CorpusSpec((3, 6), (0, 0), (2, 5), samples=1, seed=0),
               "8f31fac88322dfc4f54611f9157b14bdaf9b311ce6d3c267911ab3be4d0636d5"),
    "genus0_morse": (CorpusSpec((3, 4), (0, 0), (6, 8), morse_only=True,
                                samples=1, seed=0),
                     "e40c6cecfcf95b42573d1efb189b8097324574c91691be70d1e223a173acfab0"),
    "genus1": (CorpusSpec((3, 5), (1, 1), (1, 3), samples=1, seed=0),
               "1744feb858db38c96657d24edae93d2fac55830f0a66280984d17f33144c7c54"),
    "genus1_morse": (CorpusSpec((3, 5), (1, 1), (2, 4), morse_only=True,
                                samples=1, seed=0),
                     "d1024f02b74432e2f07aee7ddee0c90fe3f5adba7fe4d862847c77b91ece4550"),
}


def cover_digest(covers) -> str:
    return hashlib.sha256("".join(map(dumps_cover, covers)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_ENUMERATION))
def test_enumeration_matches_recorded(name):
    corpus, count, digest = GOLDEN_ENUMERATION[name]
    covers = list(enumerate_covers(corpus))
    assert len(covers) == count
    assert cover_digest(covers) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_random_covers_match_recorded(name):
    corpus, digest = GOLDEN_SAMPLES[name]
    assert cover_digest(random_cover(dataclasses.replace(corpus, seed=seed))
                        for seed in range(8)) == digest


# -- dedup canonical form ---------------------------------------------------

def cover_from_form(form) -> BranchedCover:
    """The cover whose generators are a ``canonical_form`` key."""
    d, g, key = form
    gens = [Permutation([x + 1 for x in raw]) for raw in key]
    return BranchedCover(d, g, tuple(zip(gens[:2 * g:2], gens[1:2 * g:2])),
                         tuple(gens[2 * g:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2 ** 32), st.data())
def test_canonical_form_idempotent_and_invariant(d, g, seed, data):
    # r >= 1 at genus 1: a transitive abelian subgroup of S_7 is rarely drawn
    corpus = CorpusSpec((d, d), (g, g), (2 - g, 4), samples=1, seed=seed)
    cover = random_cover(corpus)
    sigma = Permutation(data.draw(st.permutations(list(range(1, d + 1)))))
    form = canonical_form(cover)
    assert canonical_form(relabel(cover, sigma)) == form
    rebuilt = cover_from_form(form)
    assert validate(rebuilt).valid
    assert canonical_form(rebuilt) == form


def test_canonical_form_partition_matches_sd_scan():
    """The Schreier-graph labelling and the scan of all of S_d put the same
    covers in one class."""
    covers = [*enumerate_covers(CorpusSpec((1, 4), (0, 0), (0, 3))),
              *enumerate_covers(CorpusSpec((1, 3), (1, 1), (0, 2)))]
    pairs = {(canonical_form(c), o_canonical_form(c)) for c in covers}
    assert len(covers) == 622 and len(pairs) == 77
    assert len({new for new, _ in pairs}) == len({old for _, old in pairs}) \
        == len(pairs)


@pytest.mark.parametrize("d, g, r, morse, weight", [
    (3, 0, 3, False, Fraction(10, 3)),
    (3, 0, 4, False, Fraction(17)),
    (4, 0, 3, False, Fraction(17)),
    (4, 0, 4, False, Fraction(1865, 4)),
    (3, 0, 4, True, Fraction(4)),
    (2, 1, 2, False, Fraction(2)),
    (3, 1, 1, False, Fraction(3)),
    (3, 1, 2, False, Fraction(25)),
])
def test_dedup_class_weights_sum_to_tuple_count(d, g, r, morse, weight):
    """A class holds d!/|C(G)| tuples, where C(G) is the centraliser of the
    monodromy group in S_d, so the deduped classes' 1/|C(G)| sum to T/d!
    with T the number of covers before dedup (Lando and Zvonkin, Graphs on
    Surfaces and Their Applications, App. A)."""
    tuples = sum(1 for _ in enumerate_covers(spec(d, g, r, morse_only=morse)))
    classes = enumerate_covers(spec(d, g, r, morse_only=morse, dedup=True))
    assert sum(Fraction(1, o_centralizer_order(c)) for c in classes) \
        == Fraction(tuples, math.factorial(d)) == weight


@pytest.mark.parametrize("cycles", [["(1 2)", "(1 2)"], ["(2 3)", "(2 3)"]])
def test_canonical_form_refuses_intransitive_cover(cycles):
    gens = tuple(parse_cycles(c, 4) for c in cycles)
    with pytest.raises(InvalidCoverError, match="reach . of 4 points"):
        canonical_form(BranchedCover(4, 0, (), gens))


@pytest.mark.parametrize("cover", [
    BranchedCover(0, 0),
    BranchedCover(2, 0, (), [parse_cycles("(1 2 3)", 3)] * 2),
    BranchedCover(3, 0, (), [parse_cycles("(1 2)", 2)] * 2),
    BranchedCover(2, 1, (), [parse_cycles("(1 2)", 2)] * 2),
], ids=["degree_zero", "long_cycles", "short_cycles", "no_handle_pair"])
def test_canonical_form_refuses_structurally_invalid_cover(cover):
    """A cover whose structure ``validate`` refuses is refused with the
    same violations before it is keyed."""
    with pytest.raises(InvalidCoverError) as refused:
        canonical_form(cover)
    assert refused.value.violations == validate(cover).violations


def test_canonical_form_refusal_names_point_one():
    """The first search runs from point 1, though g_0 = (1 2) fixes only 3
    and 4, the starts that could give the least key."""
    gens = tuple(parse_cycles("(1 2)", 4) for _ in range(2))
    with pytest.raises(InvalidCoverError) as refused:
        canonical_form(BranchedCover(4, 0, (), gens))
    assert refused.value.violations == (
        "generators reach 2 of 4 points from point 1",)


#: The strata of the benchmark's exhaustive corpus: genus 0 with d <= 4 and
#: r <= 4, genus 1 with d <= 3 and r <= 3.
EXHAUSTIVE_CORPUS = (CorpusSpec((1, 4), (0, 0), (0, 4)),
                     CorpusSpec((1, 3), (1, 1), (0, 3)))


def test_canonical_form_matches_the_every_start_scan():
    """Pruned starts and early abandon keep every key of the exhaustive
    corpus, not only its partition into classes."""
    covers = [c for corpus in EXHAUSTIVE_CORPUS
              for c in enumerate_covers(corpus)]
    assert len(covers) == 12_653
    assert [canonical_form(c) for c in covers] \
        == [o_canonical_form_scan(c) for c in covers]


def first_generator_kind(g0) -> str:
    if any(g0[x] == x for x in range(len(g0))):
        return "fixed_points"
    if any(g0[g0[x]] == x for x in range(len(g0))):
        return "two_cycles"
    return "neither"


@pytest.mark.parametrize("kind, least_degree", [
    ("fixed_points", 1), ("two_cycles", 2), ("neither", 3)])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonical_form_matches_the_scan_by_first_generator(kind,
                                                           least_degree,
                                                           data):
    """Whichever start rule g_0 selects, the key is the scan's, or both
    refuse with the same text.  The last branch cycle, if any, is forced
    by the relation; transitivity is left to chance."""
    d = data.draw(st.integers(least_degree, 7), label="d")
    g = data.draw(st.integers(0, 1), label="g")
    r = data.draw(st.integers(2 - 2 * g, 3), label="r")
    perms = st.permutations(list(range(1, d + 1)))
    g0 = data.draw(perms.filter(
        lambda p: first_generator_kind([x - 1 for x in p]) == kind),
        label="g_0")
    gens = [Permutation(g0), *(Permutation(data.draw(perms))
                               for _ in range(2 * g + max(r - 1, 0) - 1))]
    handles = tuple(zip(gens[:2 * g:2], gens[1:2 * g:2]))
    cycles = tuple(gens[2 * g:])
    if r:
        last = relation_product(BranchedCover(d, g, handles, cycles))
        cycles += (last.inverse(),)
    cover = BranchedCover(d, g, handles, cycles)
    try:
        expected = o_canonical_form_scan(cover)
    except InvalidCoverError as exc:
        with pytest.raises(InvalidCoverError) as refused:
            canonical_form(cover)
        assert refused.value.violations == exc.violations
    else:
        assert canonical_form(cover) == expected


def test_canonical_form_of_degree_one_without_generators():
    cover = BranchedCover(1, 0, (), ())
    assert canonical_form(cover) == o_canonical_form_scan(cover) == (1, 0, ())


def test_dedup_builds_permutations_only_for_kept_covers(monkeypatch):
    """Dedup keys raw tuples, so a cover whose class was already seen builds
    no ``Permutation``: one per generator of each class, 4 at r = 4."""
    from_raw = Permutation._from_raw.__func__
    built = []

    def counted_from_raw(cls, raw):
        built.append(raw)
        return from_raw(cls, raw)

    monkeypatch.setattr(Permutation, "_from_raw",
                        classmethod(counted_from_raw))
    classes = list(enumerate_covers(spec(4, 0, 4, dedup=True)))
    assert classes and len(built) == len(classes) * 4


def test_dedup_keys_only_candidates_with_a_least_first_cycle(monkeypatch):
    """At d = 4, r = 4 a candidate is keyed only when c_1 is the first
    tuple of its cycle type and the forced cycle c_4 is not the identity:
    4 choices of c_1 and 23^2 - 22 of (c_2, c_3), not all 23^3."""
    keyed = []
    raw_key = ramify.gen._raw_key

    def counted_raw_key(gens, d):
        keyed.append(gens[0])
        return raw_key(gens, d)

    monkeypatch.setattr(ramify.gen, "_raw_key", counted_raw_key)
    classes = list(enumerate_covers(spec(4, 0, 4, dedup=True)))
    perms = list(itertools.permutations(range(4)))
    firsts: dict = {}
    for p in perms:
        firsts.setdefault(
            tuple(sorted(map(len, oracles.o_point_orbits([p], 4)))), p)
    leasts = set(firsts.values()) - {perms[0]}
    expected = sum(
        1 for frees in itertools.product(perms[1:], repeat=3)
        if frees[0] in leasts
        and functools.reduce(oracles.o_compose, frees) != perms[0])
    assert classes and set(keyed) == leasts
    assert len(keyed) == expected == 4 * (23 ** 2 - 22)


# -- random covers -----------------------------------------------------------

def test_random_cover_deterministic():
    s = spec(4, 0, 6, morse_only=True, samples=1, seed=99)
    a, b = random_cover(s), random_cover(s)
    assert a == b


def test_random_cover_refuses_an_exhaustive_spec():
    with pytest.raises(ValueError, match="random-mode spec"):
        random_cover(CorpusSpec((2, 3), (0, 0), (2, 2)))


def test_random_cover_valid_and_morse():
    for seed in range(12):
        s = spec(4, 0, 6, morse_only=True, samples=1, seed=seed)
        c = random_cover(s)
        assert validate(c).valid
        assert is_morse(c)


def test_random_cover_with_handles():
    s = CorpusSpec((2, 3), (1, 1), (0, 2), samples=1, seed=5)
    c = random_cover(s)
    assert validate(c).valid
    assert c.base_genus == 1


def test_random_morse_odd_branch_count_infeasible():
    s = spec(4, 0, 5, morse_only=True, samples=1, seed=1)
    with pytest.raises(InfeasibleParametersError, match="parity"):
        random_cover(s)


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampling reached with infeasible parameters")
    monkeypatch.setattr(ramify.gen, "_sample_cover", refuse)


@pytest.mark.parametrize("corpus, rule", [
    (CorpusSpec((1, 1), (0, 0), (2, 2), samples=1, seed=0), "degree 1"),
    (CorpusSpec((1, 1), (1, 1), (2, 2), morse_only=True, samples=1, seed=0),
     "degree 1"),
    (CorpusSpec((3, 3), (0, 0), (0, 1), samples=1, seed=0), "genus 0"),
    (CorpusSpec((5, 5), (0, 0), (4, 6), morse_only=True, samples=1, seed=0),
     "Riemann-Hurwitz"),
    (CorpusSpec((2, 2), (1, 1), (1, 1), samples=1, seed=0), "parity"),
], ids=["degree1", "degree1_morse", "genus0_r1", "morse_below_2d-2",
        "degree2_odd"])
def test_infeasible_parameters_refused_before_sampling(no_sampling, corpus,
                                                       rule):
    with pytest.raises(InfeasibleParametersError, match=rule):
        random_cover(corpus)


@pytest.mark.parametrize("ranges", [
    ((0, 2), (0, 0), (2, 2)),
    ((2, 2), (-1, 0), (2, 2)),
    ((2, 2), (0, 0), (-2, 2)),
])
def test_spec_refuses_ranges_below_their_least_value(ranges):
    with pytest.raises(ValueError, match="start at"):
        CorpusSpec(*ranges, samples=1, seed=0)


def test_mixed_feasibility_range_draws_only_feasible_counts():
    # genus 0 with r = 1 is infeasible, the rest of the range is not
    report = verify_corpus(CorpusSpec((3, 5), (0, 1), (1, 4), samples=30,
                                      seed=7))
    assert report.ok and report.covers_checked == 30


def test_random_morse_mixed_parity_range_verifies():
    report = verify_corpus(CorpusSpec((4, 4), (0, 0), (5, 6), morse_only=True,
                                      samples=4, seed=3))
    assert report.ok
    assert report.covers_checked == 4
    assert report.checks_run["sd_cover_order"] == 4


def test_random_morse_odd_count_at_genus_one_infeasible():
    s = spec(3, 1, 3, morse_only=True, samples=1, seed=1)
    with pytest.raises(InfeasibleParametersError, match="parity"):
        random_cover(s)


def test_random_morse_single_even_count_draws_as_randint():
    # a one-value range consumes the generator as rng.randint does, so
    # seeded Morse corpora keep their covers
    s = spec(6, 0, 10, morse_only=True, samples=1, seed=11)
    rng = random.Random(11)
    d, g, r = rng.randint(6, 6), rng.randint(0, 0), rng.randint(10, 10)
    assert random_cover(s) == _sample_cover(rng, d, g, r, True)


#: (d, g, r, morse, seeds) for the sampler against its oracle: Morse and
#: not, genus 0 and 1, d = 2..8.  The oracle takes about 0.2 s per Morse
#: cover at d = 8, so that stratum gets one seed.
SAMPLER_CASES = [
    *[(d, 0, 2 * d - 2, True, range(2)) for d in range(2, 8)],
    (8, 0, 14, True, range(1)),
    (2, 1, 2, True, range(2)),
    (3, 1, 0, True, range(2)),
    (4, 1, 2, True, range(2)),
    (5, 1, 2, True, range(2)),
    *[(d, 0, r, False, range(2))
      for d, r in ((2, 2), (3, 3), (4, 4), (5, 3), (6, 2), (7, 3), (8, 3))],
    *[(d, 1, r, False, range(2))
      for d, r in ((2, 2), (3, 0), (4, 2), (6, 1), (8, 1))],
]


@pytest.mark.parametrize("d, g, r, morse, seeds", SAMPLER_CASES, ids=[
    f"d{d}_g{g}_r{r}_{'morse' if morse else 'any'}"
    for d, g, r, morse, _ in SAMPLER_CASES])
def test_sampler_matches_permutation_building_oracle(d, g, r, morse, seeds):
    """The raw completion refuses exactly the draws ``o_completed`` would,
    so from equal generator states both samplers return the same cover and
    leave the same state."""
    for seed in seeds:
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert _sample_cover(rng, d, g, r, morse) \
            == o_sample_cover(oracle_rng, d, g, r, morse)
        assert rng.getstate() == oracle_rng.getstate()


def test_sampler_builds_permutations_only_for_transposition_products(
        monkeypatch):
    """A Morse draw builds ``Permutation``s only inside ``_completed`` and
    only when its raw relation product is a transposition, and then only
    its 2d - 2 branch cycles."""
    d = 8
    completed = ramify.gen._completed
    from_raw = Permutation._from_raw.__func__
    draws = []    # the raw relation product of each draw
    built = []    # per Permutation built: the number of its draw, or None
    inside = [False]

    def counted_completed(handles, frees, prod, r, morse):
        draws.append(tuple(prod))
        inside[0] = True
        try:
            return completed(handles, frees, prod, r, morse)
        finally:
            inside[0] = False

    def counted_from_raw(cls, raw):
        built.append(len(draws) - 1 if inside[0] else None)
        return from_raw(cls, raw)

    monkeypatch.setattr(ramify.gen, "_completed", counted_completed)
    monkeypatch.setattr(Permutation, "_from_raw",
                        classmethod(counted_from_raw))
    cover = _sample_cover(random.Random(1), d, 0, 2 * d - 2, True)
    monkeypatch.undo()
    products = [draws[i] for i in sorted(set(built) - {None})]
    assert is_morse(cover) and products and None not in built
    assert all(Permutation._from_raw(p).is_transposition() for p in products)
    assert len(built) <= (2 * d - 2) * len(products)


#: (d, seeds) for the block sampler over the line.  The oracle's time grows
#: with the draws a seed needs, tens of thousands at d = 9 for most seeds
#: (62,661 at seed 0), so d = 9 takes two seeds that need 465 and 2,805
#: draws: the second spans five blocks at the cap.
BLOCK_CASES = [*[(d, range(4)) for d in range(2, 8)], (8, range(3)),
               (9, (2, 6))]


def assert_same_outcome(d, g, r, morse, seed):
    """Both samplers, from equal generator states, return the same cover or
    raise the same error, and leave the same state; True if they raised."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    outcomes = []
    for sample, state in ((_sample_cover, rng), (o_sample_cover, oracle_rng)):
        try:
            outcomes.append(sample(state, d, g, r, morse))
        except InfeasibleParametersError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert rng.getstate() == oracle_rng.getstate()
    return isinstance(outcomes[0], str)


@pytest.mark.parametrize("d, seeds", BLOCK_CASES,
                         ids=[f"d{d}" for d, _ in BLOCK_CASES])
def test_block_sampler_matches_the_oracle_over_the_line(d, seeds):
    for seed in seeds:
        for r in (2 * d - 2, 2 * d) if d < 8 else (2 * d - 2,):
            assert not assert_same_outcome(d, 0, r, True, seed)


def test_block_sampler_keeps_a_morse_corpus_stream():
    """Five Morse genus-0 samples at d = 6..8 from one generator, as
    ``verify_corpus`` draws them: the same covers, then the same state."""
    corpus = CorpusSpec((6, 8), (0, 0), (10, 14), morse_only=True,
                        samples=5, seed=3)
    rng, oracle_rng = random.Random(3), random.Random(3)
    covers = [_sample_cover(rng, *_draw_parameters(rng, corpus), True)
              for _ in range(corpus.samples)]
    expected = [o_sample_cover(oracle_rng,
                               *_draw_parameters(oracle_rng, corpus), True)
                for _ in range(corpus.samples)]
    assert covers == expected
    assert {c.degree for c in covers} == {6, 7, 8}
    assert rng.getstate() == oracle_rng.getstate()


def test_block_sampler_runs_out_of_budget_as_the_oracle(monkeypatch):
    """With a budget of 700 draws (blocks of 64, 128, 256 and the last 252)
    both samplers raise the same error from the same state: on d = 4,
    r = 2, where no draw is transitive, and on d = 8, where seed 1 needs
    6,218 draws; seed 4 needs 72 and still finds its cover."""
    monkeypatch.setattr(ramify.gen, "REJECTION_BUDGET", 700)
    monkeypatch.setattr(oracles, "REJECTION_BUDGET", 700)
    assert assert_same_outcome(4, 0, 2, True, 0)
    assert assert_same_outcome(8, 0, 14, True, 1)
    assert not assert_same_outcome(8, 0, 14, True, 4)
    with pytest.raises(InfeasibleParametersError,
                       match="d=4 g=0 r=2 morse=True within 700 draws"):
        _sample_cover(random.Random(0), 4, 0, 2, True)


def test_cpython_draws_the_block_decode_relies_on():
    """``getrandbits(32 * m)`` is the next m 32-bit words, least
    significant first, and ``randrange(n)`` is the next word shifted right
    to n's bit length, retried while at least n."""
    for seed in range(3):
        block, words = random.Random(seed), random.Random(seed)
        assert block.getrandbits(32 * 7) == sum(
            words.getrandbits(32) << 32 * i for i in range(7))
        assert block.getstate() == words.getstate()
    for n in (1, 2, 3, 6, 15, 21, 28, 36, 45, 66, 2 ** 31):
        drawn, decoded = random.Random(n), random.Random(n)
        shift = 32 - n.bit_length()
        for _ in range(300):
            value = decoded.getrandbits(32) >> shift
            while value >= n:
                value = decoded.getrandbits(32) >> shift
            assert drawn.randrange(n) == value
        assert drawn.getstate() == decoded.getstate()


def test_random_mode_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        CorpusSpec((2, 2), (0, 0), (2, 2), samples=3)


@pytest.mark.parametrize("samples, seed", [(-5, 1), (-1, None)])
def test_negative_samples_refused(samples, seed):
    # a negative count would otherwise run the exhaustive mode
    with pytest.raises(ValueError, match="samples must be 0 or positive"):
        CorpusSpec((3, 3), (0, 0), (2, 2), samples=samples, seed=seed)


def test_dedup_in_random_mode_refused():
    # the sampler never deduplicates, so the flag would be dropped
    with pytest.raises(ValueError, match="dedup applies to exhaustive mode"):
        CorpusSpec((3, 3), (0, 0), (2, 2), samples=4, seed=1, dedup=True)
    assert CorpusSpec((3, 3), (0, 0), (2, 2), dedup=True).dedup


# -- corpus verification -------------------------------------------------------

def test_verify_small_exhaustive_corpus():
    report = verify_corpus(CorpusSpec((1, 3), (0, 0), (0, 4)))
    assert report.ok
    assert report.covers_checked > 0
    assert report.checks_run["hn_vs_dual_graph"] == report.covers_checked
    assert report.vacuous_theorem_main >= 1  # the d=1 identity cover


def test_verify_genus_one_corpus():
    report = verify_corpus(CorpusSpec((1, 2), (1, 1), (0, 2)))
    assert report.ok
    assert report.covers_checked > 0


def test_verify_random_morse():
    report = verify_corpus(
        CorpusSpec((4, 4), (0, 0), (6, 6), morse_only=True,
                   samples=25, seed=7))
    assert report.ok
    assert report.covers_checked == 25
    assert report.checks_run["sd_cover_order"] == 25
    assert report.checks_run["derived_cover"] == 25


def test_failed_certification_step_is_collected_not_raised(monkeypatch):
    """A ``TheoremViolationError`` from the S_d certificate is recorded as
    an ``sd_cover_order`` violation naming the cover, and the run goes on."""
    def refuse(self):
        raise TheoremViolationError("forced")

    monkeypatch.setattr(CoverContext, "sd_certificate", property(refuse))
    corpus = spec(4, 0, 6, morse_only=True, samples=3, seed=7)
    report = verify_corpus(corpus)
    assert report.covers_checked == 3 and not report.ok
    assert report.checks_run["sd_cover_order"] == 3
    assert len(report.violations) == 3
    for v in report.violations:
        assert v.startswith("sd_cover_order: certification step failed: "
                            "forced | cover: ")
        assert loads_cover(v.split(" | cover: ")[1]).degree == 4


def test_check_cover_flags_nothing_on_good_cover():
    from test_cover import TREFOIL_MORSE
    counters, vacuous, violations = check_cover(TREFOIL_MORSE)
    assert not violations
    assert counters["sd_cover_order"] == 1
    assert counters["derived_cover"] == 1


def test_report_serialization_stable():
    report = verify_corpus(CorpusSpec((2, 2), (0, 0), (2, 3)))
    assert report.to_json_dict() == report.to_json_dict()
    text = report.to_text()
    assert "no violations" in text


def test_check_cover_builds_the_monodromy_group_once(monodromy_builds):
    counters, _, violations = check_cover(MORSE7)
    assert not violations and counters["derived_cover"] == 1
    assert monodromy_builds == [MORSE7.all_generators()]


@pytest.mark.parametrize("name", ["MORSE7", "D4", "RAMIFIED_G1"])
def test_check_cover_reads_each_branch_cycle_once(monkeypatch, name):
    """One table of each c_j's cycles serves the Morse test, the scheme
    points, the S_d certificate and the derived cover with Y's genus.  The
    Cayley oracle of a Galois cover formats group elements, so only calls
    on the branch cycles themselves are counted."""
    import test_cover
    import test_fiber
    cover = getattr(test_fiber if name == "MORSE7" else test_cover, name)
    calls = []
    real = Permutation.cycles

    def cycles(self, include_fixed=False):
        if any(self is cj for cj in cover.branch_cycles):
            calls.append(self)
        return real(self, include_fixed)

    monkeypatch.setattr(Permutation, "cycles", cycles)
    counters, _, violations = check_cover(cover)
    assert not violations
    assert len(calls) <= cover.branch_count


@pytest.mark.parametrize("name", ["MORSE7", "TREFOIL_MORSE"])
def test_check_cover_walks_the_ramified_cycle_pairs_once(monkeypatch, name):
    """The dual graph and the off-diagonal genus read one walk over the
    cycle pairs (kappa, lam) of a c_j with a moved cycle, which looks up
    the orbitals of their gcd(e, l) branches once per cover."""
    import test_cover
    cover = MORSE7 if name == "MORSE7" else test_cover.TREFOIL_MORSE
    reads = []

    class Counting(list):
        def __getitem__(self, code):
            reads.append(code)
            return super().__getitem__(code)

    class Counted(CoverContext):
        @functools.cached_property
        def orbital_of(self):
            return Counting(CoverContext.orbital_of.func(self))

    monkeypatch.setattr(ramify.gen, "CoverContext", Counted)
    counters, _, violations = check_cover(cover)
    assert not violations and counters["derived_cover"] == 1
    tables = [cj.cycles(include_fixed=True) for cj in cover.branch_cycles]
    assert len(reads) == sum(math.gcd(len(k), len(lam)) for cycles in tables
                             for k in cycles for lam in cycles
                             if len(k) > 1 or len(lam) > 1)


def test_check_cover_validates_nothing(monkeypatch):
    """Every check reads the one context of the unvalidated cover: no
    cover, the input or a derived one, is validated."""
    import ramify.cover
    import ramify.fiber

    calls = []
    real_require, real_violations = (ramify.fiber.require_valid,
                                     ramify.cover._violations)

    def require_valid(c):
        calls.append("require_valid")
        return real_require(c)

    def violations_of(c):
        calls.append("_violations")
        return real_violations(c)

    monkeypatch.setattr(ramify.fiber, "require_valid", require_valid)
    monkeypatch.setattr(ramify.cover, "_violations", violations_of)
    counters, _, violations = check_cover(MORSE7)
    assert counters["derived_cover"] == 1 and not violations
    assert calls == []
    # the counters see a validation
    CoverContext(MORSE7)
    assert calls == ["require_valid", "_violations"]


def test_wrong_component_genus_is_a_derived_cover_violation(monkeypatch):
    """The genus of Y' over Y, from the local inertia, and the off-diagonal
    component's genus over X, from the local branches, are two
    computations: one off by one is exactly one violation naming both."""
    genus = CoverContext(MORSE7).derived_cover.total_space_genus
    real = CoverContext.component_genus
    monkeypatch.setattr(CoverContext, "component_genus",
                        lambda self, orbital: real(self, orbital) + 1)
    counters, _, violations = check_cover(MORSE7)
    assert counters["derived_cover"] == 1
    assert [v.split(" | cover: ")[0] for v in violations] == [
        f"derived_cover: genus over X {genus + 1} != genus over Y {genus}"]
    assert loads_cover(violations[0].split(" | cover: ")[1]) == MORSE7


def _derived_with(**fields):
    real = CoverContext.derived_cover.func
    return property(lambda self: dataclasses.replace(real(self), **fields))


#: Each check forced to fail by one patch: the check, the cover, the
#: patched attribute and its stand-in, and the violation text.
#: The derived cover is checked only for Morse covers of degree >= 3, whose
#: group S_d has order d! > d, and the Cayley oracle only for Galois
#: covers, of group order d; so the oracle is forced on a second cover.
FORCED_VIOLATIONS = {
    "hn_vs_dual_graph": (
        "hn_vs_dual_graph", "TREFOIL_MORSE", ramify.gen, "is_connected",
        lambda graph: ConnectivityVerdict(False, False),
        "HN test says True, dual graph says False"),
    "theorem_main": (
        "theorem_main", "TREFOIL_MORSE", CoverContext, "offdiag",
        property(lambda self: ConnectivityVerdict(False, False)),
        "genuinely ramified but off-diagonal closure disconnected"),
    "two_transitive_vs_orbitals": (
        "two_transitive_vs_orbitals", "TREFOIL_MORSE", ramify.gen,
        "transitivity", lambda group: Transitivity.TRANSITIVE,
        "two_transitive=False but 2 orbitals"),
    "derived_cover_morse": (
        "derived_cover", "TREFOIL_MORSE", CoverContext, "derived_cover",
        _derived_with(morse=False), "derived cover not Morse"),
    "derived_cover_genuine": (
        "derived_cover", "TREFOIL_MORSE", CoverContext, "derived_cover",
        _derived_with(genuinely_ramified=False),
        "derived cover not genuinely ramified"),
    "cayley_oracle": (
        "cayley_oracle", "GALOIS_V4", CoverContext, "cayley_oracle",
        lambda self, cap: OracleReport(False, None, None, None, None, False),
        "quotient graph differs from dual graph"),
}


@pytest.mark.parametrize("case", sorted(FORCED_VIOLATIONS))
def test_each_check_violation_is_collected_not_raised(monkeypatch, case):
    """A check that fails is recorded as its name, its text and the
    serialized cover, and ``check_cover`` returns; a forced fact may also
    fail a later check that reads it (a disconnected off-diagonal closure
    fails the S_d certificate too)."""
    import test_cover
    check, name, owner, attr, patch, text = FORCED_VIOLATIONS[case]
    cover = getattr(test_cover, name)
    monkeypatch.setattr(owner, attr, patch)
    counters, _, violations = check_cover(cover)
    assert counters[check] == 1
    assert [v for v in violations if v.startswith(f"{check}: ")] == [
        f"{check}: {text} | cover: {dumps_cover(cover).strip()}"]


@pytest.mark.parametrize("corpus", [
    spec(3, 0, 3),
    spec(5, 0, 8, morse_only=True, samples=3, seed=4),
], ids=["genus0_d3_r3", "morse_d5"])
def test_verify_corpus_builds_one_group_per_checked_cover(corpus,
                                                         monodromy_builds):
    report = verify_corpus(corpus)
    assert report.ok and report.covers_checked > 0
    assert len(monodromy_builds) == report.covers_checked
