"""Corpus machinery: exhaustive enumeration of valid covers at tiny
parameters, seeded random (optionally Morse) sampling, and the corpus-wide
theorem-verification driver.

Enumeration and sampling choose every generator but the last branch cycle
as raw 0-based tuples and keep their relation product; the surface relation
forces the last, which cuts the search space by |S_d|.  ``_completed``
decides each candidate once, on raw tuples: a cover only when the forced
cycle is not the identity (in Morse mode, is a transposition) and one
search from point 0 reaches every point.  Dedup keeps the first cover of
each conjugacy class in enumeration order.  That cover's first free
generator is the least element of its own conjugacy class, so a candidate
whose first free generator is not is skipped before it is keyed.  Dedup
runs on raw tuples: a candidate is keyed by ``_raw_key`` of its raw
generators, whose search from point 0 is the transitivity test, and
``Permutation``s and a ``BranchedCover`` are built only for the first cover
of a class.  The key is the one ``canonical_form`` gives, which searches
from fewer start points than there are points and drops a start at its
first losing row.

A Morse draw over the line (genus 0, r >= 2) is r - 1 values of
``randrange(n)``, n = d(d - 1)/2, and CPython draws each from the next
32-bit Mersenne Twister word, shifted right to n's bit length and retried
while at least n.  The sampler reads a block of those words with one
``getrandbits`` call, decodes the values and applies every draw's swaps to
the whole block at once, then hands ``_completed`` only the draws whose
product is a transposition, in draw order.  It returns the same cover and
leaves the generator in the same state as drawing value by value, within
the same budget of draws.
Verification collects violations instead of raising, so a counterexample
(i.e. a bug) surfaces with full context at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .cover import (BranchedCover, InvalidCoverError, _structural_violations,
                    dumps_cover)
from .fiber import CoverContext, TheoremViolationError
from .graphs import is_connected
from .perm import (Permutation, Transitivity, _compose, _inverse,
                   _is_identity, _moved, _orbits, transitivity)

#: Hard enumeration caps per base genus.
ENUMERATION_CAPS = {0: 5, 1: 3}

#: Most candidates an exhaustive stratum (d, g, r) may hold:
#: (d!)^(2g) * max(|cycle pool|, 2)^max(r - 1, 0).  The largest strata
#: under it take up to 2.5 s on a 2-core x86-64 host: d = 4, g = 0, r = 5
#: (279,841 candidates) 2.5 s, 0.8 s with dedup; Morse d = 4, r = 8
#: (279,936) 2.2 s, 0.6 s with dedup.
MAX_STRATUM_CANDIDATES = 300_000

#: Rejection-sampling budget for random covers, in draws.
REJECTION_BUDGET = 100_000

#: Most draws one block of a Morse sample over the line decodes; blocks
#: start at 64 draws and double up to it.
BLOCK_DRAWS = 512


class CapExceededError(ValueError):
    """Enumeration parameters outside the hard caps."""


class InfeasibleParametersError(ValueError):
    """No cover has the drawn parameters, or rejection sampling exhausted
    its budget; carries a diagnosis."""


@dataclass(frozen=True)
class CorpusSpec:
    degrees: tuple           # inclusive (lo, hi)
    base_genera: tuple       # inclusive (lo, hi)
    branch_counts: tuple     # inclusive (lo, hi)
    morse_only: bool = False
    samples: int = 0         # 0: exhaustive; > 0: random mode
    seed: int | None = None  # mandatory in random mode
    dedup: bool = False      # conjugation-canonical dedup (exhaustive mode)

    def __post_init__(self):
        for name, least in (("degrees", 1), ("base_genera", 0),
                            ("branch_counts", 0)):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}:{hi}")
            if lo < least:
                raise ValueError(f"{name} start at {least}, got {lo}")
        if self.samples < 0:
            raise ValueError(f"samples must be 0 or positive, got {self.samples}")
        if self.samples and self.seed is None:
            raise ValueError("random mode requires a seed")
        if self.samples and self.dedup:
            raise ValueError("dedup applies to exhaustive mode only")

    @property
    def random_mode(self) -> bool:
        return self.samples > 0


def canonical_form(c: BranchedCover) -> tuple:
    """Canonical labelling of the Schreier graph: (degree, base genus,
    ``_raw_key`` of the generators), the least renumbering of a_1, b_1,
    ..., then the branch cycles that a BFS from some start point gives.  A
    conjugation invariant, equal only for conjugate covers.  Raises
    InvalidCoverError on input ``validate`` finds structurally invalid, and
    on intransitive input, naming the search from point 1."""
    violations = _structural_violations(c)
    if violations:
        raise InvalidCoverError(violations)
    d = c.degree
    gens = [p._raw for p in c.all_generators()]
    key = _raw_key(gens, d)
    if key is None:
        raise InvalidCoverError([
            f"generators reach {len(_orbits(gens, d, (0,))[0])} of {d} "
            f"points from point 1"])
    return (d, c.base_genus, key)


def _raw_key(gens: list, d: int) -> tuple | None:
    """Canonical labelling of the Schreier graph of the raw 0-based
    generators ``gens`` (a_1, b_1, ..., then the branch cycles) on d
    points, or None when one search from point 0 misses a point.  From a
    start point a BFS along the generators in order numbers the points as
    it reaches them; renumbering every generator's images so gives one row
    per generator, and the key is the least tuple of rows over all starts.

    The first search runs from point 0 and its rows are the first best.
    Any other start is dropped at the first row greater than the best's,
    and only starts that can give the least key are searched.  A BFS from
    s reaches g_0(s) first, so row 0 begins with 0 when g_0 fixes s and
    with 1 when it does not: when g_0 has fixed points, the least key
    starts at one of them.  Otherwise order[1] = g_0(s), and the second
    entry of row 0 is the label of g_0^2(s): 0 when g_0^2(s) = s, and at
    least 2 otherwise, since g_0^2(s) = g_0(s) would make s fixed.  So
    when g_0 has 2-cycles the least key starts on one of them; with no
    fixed point, g_0^2(s) = s says exactly that s lies on a 2-cycle.  Only
    when g_0 has neither is every point a start."""
    label, order = _labelling(gens, d, 0)
    if len(order) < d:
        return None
    best = tuple(tuple([label[g[x]] for x in order]) for g in gens)
    starts = range(d)
    if gens:
        g0 = gens[0]
        starts = ([x for x in starts if g0[x] == x]
                  or [x for x in starts if g0[g0[x]] == x] or starts)
    for s in starts:
        if not s:
            continue
        label, order = _labelling(gens, d, s)
        rows = []
        less = False
        for g, least in zip(gens, best):
            row = tuple([label[g[x]] for x in order])
            if not less and row != least:
                if row > least:
                    break
                less = True
            rows.append(row)
        else:
            if less:
                best = tuple(rows)
    return best


def _labelling(gens: list, d: int, s: int) -> tuple:
    """The BFS from s behind ``_raw_key``: each point's label (-1 when not
    reached) and the points in the order they were reached."""
    label = [-1] * d
    label[s] = 0
    order = [s]
    for x in order:
        for g in gens:
            y = g[x]
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
    return label, order


def enumerate_covers(spec: CorpusSpec) -> Iterator[BranchedCover]:
    """All valid covers in deterministic order; the last branch cycle is
    forced by the surface relation.  With ``spec.dedup``, only the first
    cover of each conjugacy class: candidates are keyed by ``_raw_key`` on
    their raw generators, and only a kept cover is built.  Refuses, before
    the first candidate, a degree above its genus's cap and a stratum of
    more than ``MAX_STRATUM_CANDIDATES`` candidates.

    Dedup keys only candidates whose first free generator (a_1 at genus
    >= 1, c_1 at genus 0) is the first raw tuple of its cycle type, the
    least element of its conjugacy class.  Within a stratum (d, g, r),
    candidates come in lexicographic order of their free generators, and
    conjugating one by any sigma in S_d gives a candidate of the same
    stratum and class, since the pools, the relation product and validity
    are all invariant.  A cover whose first free generator x is not least
    is conjugate to one that starts with the least element of x's class and
    so comes earlier.  The first cover of each class is therefore never
    skipped, and the kept stream is that of keying every candidate."""
    d_lo, d_hi = spec.degrees
    g_lo, g_hi = spec.base_genera
    r_lo, r_hi = spec.branch_counts
    for g in range(g_lo, g_hi + 1):
        if g not in ENUMERATION_CAPS:
            raise CapExceededError(f"no enumeration cap defined for genus {g}")
        if d_hi > ENUMERATION_CAPS[g]:
            raise CapExceededError(
                f"degree cap for genus {g} is {ENUMERATION_CAPS[g]}, "
                f"requested {d_hi}")
    # r = r_hi is each (d, g)'s largest stratum.  A pool counts as at least
    # 2, so no r above 19 passes, at d = 1 and d = 2 too, and r - 1 is
    # clamped at the bound's bit length, where 2^(r - 1) already exceeds it
    frees = min(max(r_hi - 1, 0), MAX_STRATUM_CANDIDATES.bit_length())
    for d in range(d_lo, d_hi + 1):
        pool = math.comb(d, 2) if spec.morse_only else math.factorial(d) - 1
        for g in range(g_lo, g_hi + 1):
            candidates = math.factorial(d) ** (2 * g) * max(pool, 2) ** frees
            if candidates > MAX_STRATUM_CANDIDATES:
                raise CapExceededError(
                    f"the stratum d = {d}, g = {g}, r = {r_hi} counts more "
                    f"than {MAX_STRATUM_CANDIDATES} candidates")
    for d in range(d_lo, d_hi + 1):
        raws = list(itertools.permutations(range(d)))
        cycle_pool = [p for p in raws if not _is_identity(p)
                      and (not spec.morse_only or _moved(p) == 2)]
        leasts = set()   # under dedup, the first raw tuple of each cycle type
        if spec.dedup:
            types: dict = {}
            for p in raws:
                types.setdefault(tuple(sorted(map(len, _orbits([p], d)))), p)
            leasts = set(types.values())
        for g in range(g_lo, g_hi + 1):
            seen: set = set()   # no class spans two (d, g)
            for handles in itertools.product(
                    itertools.product(raws, repeat=2), repeat=g):
                comm = tuple(range(d))
                for a, b in handles:
                    comm = _compose(comm, _commutator(a, b))
                flat = list(itertools.chain(*handles))
                for r in range(r_lo, r_hi + 1):
                    for frees in itertools.product(cycle_pool,
                                                   repeat=max(r - 1, 0)):
                        free = flat or frees
                        if spec.dedup and free and free[0] not in leasts:
                            continue
                        prod = functools.reduce(_compose, frees, comm)
                        cycles = _forced(frees, prod, r, spec.morse_only)
                        if cycles is None:
                            continue
                        gens = [*flat, *cycles]
                        if spec.dedup:
                            key = _raw_key(gens, d)
                            if key is None or key in seen:
                                continue
                            seen.add(key)
                        elif not _transitive(gens, d):
                            continue
                        yield _built(d, handles, cycles)


def _commutator(a: tuple, b: tuple) -> tuple:
    return _compose(a, _compose(b, _compose(_inverse(a), _inverse(b))))


def _completed(handles, frees, prod, r: int,
               morse: bool) -> BranchedCover | None:
    """The cover with raw 0-based handle pairs ``handles`` and free branch
    cycles ``frees`` (non-identity), whose relation product is the raw
    ``prod``, followed by the branch cycle the surface relation forces
    (none when r = 0).  None when ``_forced`` refuses the candidate, or
    when one search from point 0 along the raw generators misses a point:
    everything else holds by construction.  A refused candidate builds no
    ``Permutation``, and none builds a group."""
    cycles = _forced(frees, prod, r, morse)
    d = len(prod)
    if cycles is None or not _transitive(
            [*itertools.chain(*handles), *cycles], d):
        return None
    return _built(d, handles, cycles)


def _transitive(gens: list, d: int) -> bool:
    """Whether one search from point 0 along the raw generators reaches
    all d points."""
    return len(_orbits(gens, d, (0,))[0]) == d


def _forced(frees, prod, r: int, morse: bool) -> tuple | None:
    """The raw branch cycles: ``frees`` followed by the inverse of the
    relation product ``prod`` (none when r = 0).  None when r = 0 and
    ``prod`` is not the identity, or when the forced cycle is the identity
    or, in Morse mode, not a transposition."""
    moved = _moved(prod)
    if r > 0:
        if moved == 0 or (morse and moved != 2):
            return None
        return (*frees, _inverse(prod))
    return None if moved else tuple(frees)


def _built(d: int, handles, cycles) -> BranchedCover:
    """The cover of degree d with raw 0-based handle pairs and branch
    cycles."""
    build = Permutation._from_raw
    return BranchedCover(d, len(handles),
                         [(build(a), build(b)) for a, b in handles],
                         [build(c) for c in cycles])


def random_cover(spec: CorpusSpec) -> BranchedCover:
    """One seeded random valid cover of a random-mode spec: handles uniform,
    free branch cycles uniform over non-identity elements (transpositions
    in Morse mode), last cycle forced, rejection until valid."""
    if not spec.random_mode:
        raise ValueError("random_cover needs a random-mode spec")
    rng = random.Random(spec.seed)
    return _sample_cover(rng, *_draw_parameters(rng, spec), spec.morse_only)


def _draw_parameters(rng: random.Random, spec: CorpusSpec) -> tuple:
    """Degree, base genus and branch count of one random cover.  The count
    is drawn among those that some cover of the drawn degree and genus has,
    so no draw is spent on an empty stratum; when the whole range is
    feasible the draw is that of ``randint``."""
    d = rng.randint(*spec.degrees)
    g = rng.randint(*spec.base_genera)
    lo, hi = spec.branch_counts
    counts = range(lo, hi + 1)
    for applies, allowed, reason in (
            (spec.morse_only or d == 2, lambda r: r % 2 == 0,
             "parity: commutators are even, every branch cycle is a "
             "transposition, and a product of an odd number of "
             "transpositions is odd and never the identity"),
            (d == 1, lambda r: r == 0,
             "degree 1: every branch cycle is the identity"),
            (d > 1 and g == 0, lambda r: r >= 2,
             "genus 0: r = 0 gives the trivial group and r = 1 forces "
             "c_1 = id"),
            (spec.morse_only and g == 0, lambda r: r >= 2 * d - 2,
             "Riemann-Hurwitz: a Morse cover of the line has "
             "2g_Y - 2 = r - 2d >= -2")):
        if applies:
            counts = [r for r in counts if allowed(r)]
        if not counts:
            kind = "Morse cover" if spec.morse_only else "cover"
            raise InfeasibleParametersError(
                f"no {kind} of degree {d} over base genus {g} has r in "
                f"{lo}:{hi} ({reason})")
    return d, g, rng.choice(counts)


def _sample_cover(rng: random.Random, d: int, g: int, r: int,
                  morse: bool) -> BranchedCover:
    """Rejection sampling behind ``random_cover``.  Each draw keeps its
    relation product as a raw 0-based list, composed on the right as the
    cycles are drawn; a Morse draw swaps two entries of it and takes its
    free cycle from a table of raw transpositions.  ``_completed`` decides
    the draw on that product, as it decides an enumerated candidate.

    Morse draws over the line are decoded in blocks by ``_sample_line``,
    which makes the same draws, returns the same cover, leaves the same
    generator state and spends the same budget as this loop; draws with
    handles, and non-Morse draws, whose shuffle bounds change from slot to
    slot, take one value at a time."""
    if morse and g == 0 and r >= 2:
        return _sample_line(rng, d, r)
    pairs = list(itertools.combinations(range(d), 2))
    swaps = [_swap(d, x, y) for x, y in pairs]
    for _ in range(REJECTION_BUDGET):
        prod = list(range(d))
        handles = []
        for _ in range(g):
            a = list(range(d))
            rng.shuffle(a)
            b = list(range(d))
            rng.shuffle(b)
            a, b = tuple(a), tuple(b)
            handles.append((a, b))
            prod = [prod[x] for x in _commutator(a, b)]
        frees = []
        for _ in range(max(r - 1, 0)):
            if morse:
                k = rng.randrange(len(pairs))
                x, y = pairs[k]
                prod[x], prod[y] = prod[y], prod[x]
                frees.append(swaps[k])
            else:
                im = list(range(d))
                while True:
                    rng.shuffle(im)
                    if any(v != i for i, v in enumerate(im)):
                        break
                prod = [prod[x] for x in im]
                frees.append(tuple(im))
        cover = _completed(handles, frees, prod, r, morse)
        if cover is not None:
            return cover
    raise _exhausted(d, g, r, morse)


def _swap(d: int, x: int, y: int) -> tuple:
    return tuple(y if i == x else x if i == y else i for i in range(d))


def _exhausted(d: int, g: int, r: int,
               morse: bool) -> InfeasibleParametersError:
    return InfeasibleParametersError(
        f"no valid cover found for d={d} g={g} r={r} morse={morse} within "
        f"{REJECTION_BUDGET} draws")


def _sample_line(rng: random.Random, d: int, r: int) -> BranchedCover:
    """The Morse genus-0 branch of ``_sample_cover``, in blocks of draws.
    A block's products are one (m, d) array, each of the r - 1 swaps
    applied to every row at once; a draw that ``_completed`` accepts puts
    the generator back to the block's start and advances it by exactly the
    words read through that draw.  The last block ends at the budget."""
    pairs = list(itertools.combinations(range(d), 2))
    swaps = [_swap(d, x, y) for x, y in pairs]
    xs, ys = np.array(pairs).T
    identity = np.arange(d)
    steps = r - 1
    done, size = 0, 64
    while done < REJECTION_BUDGET:
        m = min(size, REJECTION_BUDGET - done)
        state = rng.getstate()
        ks, ends = _randbelow_block(rng, len(pairs), m * steps)
        ks = ks.reshape(m, steps)
        prod = np.tile(identity, m)   # row i at i*d, swapped at flat indices
        row = np.arange(0, m * d, d)[:, None]
        for x, y in zip((xs[ks] + row).T, (ys[ks] + row).T):
            prod[x], prod[y] = prod[y], prod[x]
        prod = prod.reshape(m, d)
        for i in np.flatnonzero((prod != identity).sum(axis=1) == 2).tolist():
            cover = _completed((), [swaps[k] for k in ks[i].tolist()],
                               prod[i].tolist(), r, True)
            if cover is not None:
                rng.setstate(state)
                rng.getrandbits(32 * int(ends[(i + 1) * steps - 1]))
                return cover
        done += m
        size = min(2 * size, BLOCK_DRAWS)
    raise _exhausted(d, 0, r, True)


def _randbelow_block(rng: random.Random, n: int, count: int) -> tuple:
    """The next ``count`` values of ``rng.randrange(n)`` as an array, and
    for each the number of 32-bit words read through it.  CPython draws a
    value below n < 2**32 from the next word shifted right by
    32 - n.bit_length(), retried while at least n, and
    ``getrandbits(32 * w)`` returns the next w words, least significant
    first.  Each read asks for as many words as values are missing, so no
    word past the last value is read."""
    shift = 32 - n.bit_length()
    values, ends, read = [], [], 0
    while count:
        words = np.frombuffer(
            rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
            dtype="<u4") >> shift
        hits = np.flatnonzero(words < n)
        values.append(words[hits])
        ends.append(read + 1 + hits)
        read += count
        count -= len(hits)
    return np.concatenate(values), np.concatenate(ends)


# ---------------------------------------------------------------------------
# corpus verification

CHECK_NAMES = (
    "hn_vs_dual_graph",
    "theorem_main",
    "two_transitive_vs_orbitals",
    "sd_cover_order",
    "derived_cover",
    "cayley_oracle",
)


@dataclass
class VerificationReport:
    covers_checked: int = 0
    checks_run: dict = field(default_factory=lambda: {n: 0 for n in CHECK_NAMES})
    vacuous_theorem_main: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "schema": "verification-report/1",
            "covers_checked": self.covers_checked,
            "checks_run": {n: self.checks_run[n] for n in CHECK_NAMES},
            "vacuous_theorem_main": self.vacuous_theorem_main,
            "violations": sorted(self.violations),
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = [f"covers checked: {self.covers_checked}"]
        for name in CHECK_NAMES:
            lines.append(f"  {name}: {self.checks_run[name]} checks")
        lines.append(f"  theorem_main vacuous (d=1): {self.vacuous_theorem_main}")
        if self.violations:
            lines.append(f"VIOLATIONS: {len(self.violations)}")
            lines.extend("  " + v for v in sorted(self.violations))
        else:
            lines.append("no violations")
        return "\n".join(lines) + "\n"


def check_cover(cover: BranchedCover, oracle_cap: int = 10080) -> tuple:
    """Run every theorem check on one unvalidated cover, all on one
    CoverContext.  The dual graph and the off-diagonal genus read only cycle
    pairs (kappa, lam) with a moved cycle, whose branch s holds
    (kappa[0], lam[s]); no scheme point is built.

    Returns (counters, vacuous_main, violations): which checks ran, whether
    theorem main was vacuous here, and violation strings (each carrying the
    serialized offending cover).
    """
    counters = {n: 0 for n in CHECK_NAMES}
    violations = []
    vacuous_main = 0

    def violation(check: str, text: str) -> None:
        violations.append(
            f"{check}: {text} | cover: {dumps_cover(cover).strip()}")

    ctx = CoverContext(cover, checked=False)
    group = ctx.group
    orbs = ctx.orbitals
    connected = is_connected(ctx.dual_graph).connected
    gr = ctx.genuine
    morse = ctx.morse

    # section 3 equivalence: HN = G iff the fiber square is connected
    counters["hn_vs_dual_graph"] += 1
    if gr.genuinely_ramified != connected:
        violation("hn_vs_dual_graph", f"HN test says {gr.genuinely_ramified}, "
                  f"dual graph says {connected}")

    # theorem main: genuinely ramified => off-diagonal closure connected
    counters["theorem_main"] += 1
    if gr.genuinely_ramified:
        flag = ctx.offdiag
        if flag.vacuous:
            vacuous_main = 1
        elif not flag.connected:
            violation("theorem_main",
                      "genuinely ramified but off-diagonal closure disconnected")

    # two-transitivity iff exactly 2 orbitals
    counters["two_transitive_vs_orbitals"] += 1
    if cover.degree >= 2:
        two_t = transitivity(group) is Transitivity.TWO_TRANSITIVE
        if two_t != (len(orbs) == 2):
            violation("two_transitive_vs_orbitals",
                      f"two_transitive={two_t} but {len(orbs)} orbitals")

    # Morse + genuinely ramified => full symmetric closure, of order d!
    if morse and gr.genuinely_ramified and cover.degree >= 2:
        counters["sd_cover_order"] += 1
        try:
            cert = ctx.sd_certificate
        except TheoremViolationError as exc:
            violation("sd_cover_order", f"certification step failed: {exc}")
        else:
            if not cert.certified:
                violation("sd_cover_order", "certification refused: "
                          f"{cert.failed_hypothesis}")

    # derived cover invariants for Morse genuinely ramified covers, d >= 3
    if morse and gr.genuinely_ramified and cover.degree >= 3:
        counters["derived_cover"] += 1
        derived = ctx.derived_cover
        if not derived.morse:
            violation("derived_cover", "derived cover not Morse")
        if not derived.genuinely_ramified:
            violation("derived_cover", "derived cover not genuinely ramified")
        if len(orbs) == 2:  # the diagonal, then the off-diagonal orbital
            comp_genus = ctx.component_genus(orbs[1])
            if comp_genus != derived.total_space_genus:
                violation("derived_cover",
                          f"genus over X {comp_genus} != genus over Y "
                          f"{derived.total_space_genus}")

    # Galois covers: the Cayley quotient is the dual graph exactly
    if group.order == cover.degree and group.order <= oracle_cap:
        counters["cayley_oracle"] += 1
        report = ctx.cayley_oracle(oracle_cap)
        if not report.matches_dual:
            violation("cayley_oracle", "quotient graph differs from dual graph")

    return counters, vacuous_main, violations


def verify_corpus(spec: CorpusSpec) -> VerificationReport:
    """Run every check over the corpus the spec describes.  Violations are
    collected, never raised mid-stream."""
    report = VerificationReport()
    if spec.random_mode:
        rng = random.Random(spec.seed)
        covers: Iterator = (
            _sample_cover(rng, *_draw_parameters(rng, spec), spec.morse_only)
            for _ in range(spec.samples))
    else:
        covers = enumerate_covers(spec)

    for cover in covers:
        counters, vacuous, violations = check_cover(cover)
        report.covers_checked += 1
        for name, v in counters.items():
            report.checks_run[name] += v
        report.vacuous_theorem_main += vacuous
        report.violations.extend(violations)
    return report
