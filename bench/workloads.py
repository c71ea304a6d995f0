"""The four benchmark workloads: inputs made from a seed, the plain timed
loop, the traced per-layer loop, and the correctness gate.

Every workload runs in rounds.  A round is a fixed mix of inputs (one pass
over the exhaustive corpus, one cover per Morse degree, one cover per entry
of ANALYZE_DEGREES, one pass over CURVE_ROUND), so the mix behind every
percentile is the same whatever the number of rounds.  A new round starts
only while it is expected to end inside the time budget; at least one round
always runs.

The caller must put the repository's ``src`` directory on ``sys.path``
before importing this module.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random
import signal
import time
import traceback

from ramify import numono
from ramify.cover import BranchedCover, is_morse, monodromy_group, validate
from ramify.fiber import (
    analyze,
    cayley_quotient_oracle,
    certify_sd,
    derived_cover_q1,
    dual_graph,
    genuinely_ramified,
    orbitals,
    scheme_points,
)
from ramify.gen import (
    CorpusSpec,
    VerificationReport,
    canonical_form,
    check_cover,
    enumerate_covers,
    random_cover,
    verify_corpus,
)
from ramify.graphs import is_connected
from ramify.perm import (
    Permutation,
    normal_closure,
    orbits,
    point_stabilizer,
    transitivity,
)

#: Seed used when none is given; the recorded report digests of
#: ``analyze_large`` belong to it.
DEFAULT_SEED = 1

#: Exhaustive corpus as (base genus, max degree, max branch count); degrees
#: and branch counts start at 1 and 0.  Each (genus, degree, branch count)
#: stratum is its own ``verify_corpus`` call, which checks exactly the covers
#: of the two combined specs (the canonical key holds degree, genus and every
#: cycle, so no class spans two strata).
EXHAUSTIVE = ((0, 4, 4), (1, 3, 3))

#: One Morse genus-0 cover per degree per round, r = 2d - 2.
MORSE_DEGREES = (6, 7, 8)

#: Degrees of one round of ``analyze_large``.  Degree 12 is listed twice so
#: that the median falls inside the degree-11 group and p90 inside the
#: degree-12 group instead of on a boundary between two groups.
ANALYZE_DEGREES = (9, 10, 11, 12, 12)

#: Braid moves per branch point when mixing a doubled spanning tree.
BRAID_MOVES_PER_BRANCH = 10

#: Curves that certify, then curves refused with the documented error.
CURVES = (
    "y^2 - x^3 + x",
    "y^4 + x^4 + x*y - 1",
    "y^6 + x^3*y - x + 1",
    "y^3 - x^2*y + x^4 - 2",
    "y^5 + x*y + x^5 + 3",
    "y^2 - x^5 + 2*x - 1",
    "y^3 + y - x^7",
    "y^7 + x^2*y + x - 1",
    "y^8 + x*y + x^3 - 1",
    "y^2 - x^3",
    "y^4 - 2*x*y^2 + x^3 - 1",
)

#: One round of ``curves``: every curve once and the slowest, of degree 8,
#: twice, so that p90 falls inside its group instead of on the boundary
#: below it.
CURVE_ROUND = CURVES + ("y^8 + x*y + x^3 - 1",)

ORACLE_CAP = 10080


# ---------------------------------------------------------------------------
# inputs

def exhaustive_strata() -> list:
    return [(g, d, r) for g, d_max, r_max in EXHAUSTIVE
            for d in range(1, d_max + 1) for r in range(r_max + 1)]


def stratum_spec(g: int, d: int, r: int, dedup: bool = True) -> CorpusSpec:
    return CorpusSpec(degrees=(d, d), base_genera=(g, g),
                      branch_counts=(r, r), dedup=dedup)


def morse_rounds(seed: int):
    """Endless rounds of single-sample Morse genus-0 specs, one per degree
    in MORSE_DEGREES, each with its own sampler seed."""
    rng = random.Random(f"corpus_morse/{seed}")
    while True:
        yield [CorpusSpec(degrees=(d, d), base_genera=(0, 0),
                          branch_counts=(2 * d - 2, 2 * d - 2),
                          morse_only=True, samples=1,
                          seed=rng.getrandbits(32))
               for d in MORSE_DEGREES]


def braid_cover(rng: random.Random, d: int) -> BranchedCover:
    """A Morse genus-0 cover of degree d with group S_d.

    A random spanning tree of transpositions t_1..t_{d-1} generates S_d, and
    t_1..t_{d-1} t_{d-1}..t_1 multiplies to the identity.  Seeded Hurwitz
    moves (a, b) -> (a b a^-1, a) or (b, b^-1 a b) then mix the tuple; they
    keep the product, the group and the cycle types.
    """
    points = list(range(1, d + 1))
    rng.shuffle(points)
    tree = [Permutation.from_cycle([points[i], points[rng.randrange(i)]], d)
            for i in range(1, d)]
    cycles = tree + tree[::-1]
    for _ in range(BRAID_MOVES_PER_BRANCH * len(cycles)):
        i = rng.randrange(len(cycles) - 1)
        a, b = cycles[i], cycles[i + 1]
        if rng.random() < 0.5:
            cycles[i], cycles[i + 1] = a * b * a.inverse(), a
        else:
            cycles[i], cycles[i + 1] = b, b.inverse() * a * b
    cover = BranchedCover(degree=d, base_genus=0, branch_cycles=tuple(cycles))
    report = validate(cover)
    if not report.valid:
        raise RuntimeError(f"braid walk built an invalid cover: "
                           f"{report.violations}")
    return cover


def analyze_rounds(seed: int):
    rng = random.Random(f"analyze_large/{seed}")
    while True:
        yield [braid_cover(rng, d) for d in ANALYZE_DEGREES]


def curve_rounds(seed: int):
    rng = random.Random(f"curves/{seed}")
    while True:
        order = list(CURVE_ROUND)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# outcomes compared against the expected results

def digest(doc: dict) -> str:
    """Digest of a report's JSON text, key order included."""
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def report_summary(report: VerificationReport) -> dict:
    doc = report.to_json_dict()
    return {"covers_checked": doc["covers_checked"],
            "checks_run": doc["checks_run"],
            "ok": doc["ok"],
            "digest": digest(doc)}


def fiber_outcome(cover: BranchedCover, doc: dict) -> dict:
    return {"degree": cover.degree,
            "branch_count": cover.branch_count,
            "genuinely_ramified": doc["genuinely_ramified"],
            "orbitals": len(doc["orbitals"]),
            "galois_closure_order": doc["galois_closure_order"],
            "sd_certified": doc["sd_certificate"]["certified"],
            "digest": digest(doc)}


def analyze_expected(cover: BranchedCover) -> dict:
    """What the theorem says of a Morse genus-0 cover: genuinely ramified
    (the line has no etale covers), two orbitals and group S_d."""
    d = cover.degree
    return {"degree": d, "branch_count": 2 * d - 2,
            "genuinely_ramified": True, "orbitals": 2,
            "galois_closure_order": math.factorial(d), "sd_certified": True}


def curve_outcome(report) -> dict:
    cover = report.result.cover
    return {"degree": report.result.degree,
            "branch_cycle_types": sorted(list(c.cycle_type())
                                         for c in cover.branch_cycles),
            "is_full_symmetric": report.is_full_symmetric,
            "full_morse": report.full_morse,
            "infinity_kind": report.infinity_kind}


REFUSALS = (numono.SingularCurveError, numono.NonGenericError)


def fold(report: VerificationReport, counters: dict, vacuous: int,
         violations: list) -> None:
    """Add one ``check_cover`` result to a report, as ``verify_corpus``
    does."""
    report.covers_checked += 1
    for name, v in counters.items():
        report.checks_run[name] += v
    report.vacuous_theorem_main += vacuous
    report.violations.extend(violations)


class Gate:
    """Counts operations and those whose outcome differs from the expected
    one; an operation that raised counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, label: str, got: dict, want: dict) -> None:
        """Compare the keys of ``want``; keys it lacks are not checked."""
        self.attempted += 1
        diff = {k: (got.get(k), v) for k, v in want.items()
                if got.get(k) != v}
        if diff:
            self.failures.append(
                f"{label}: " + "; ".join(f"{k} got {g!r}, expected {w!r}"
                                          for k, (g, w) in diff.items()))

    def error(self, label: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: raised\n{traceback.format_exc()}")

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# timing

#: Reference kernel time, in ms, at the speed that normalised times assume:
#: its time on an uncontended core of the box the bounds were sized on.
REFERENCE_MS = 2.5


def reference_ms() -> float:
    """Wall time of a fixed pure-Python kernel, in ms.

    It loops over small tuples and a dict, as the package's own loops do,
    calls nothing in ``ramify`` and runs with the garbage collector off, so
    no change to the package or to its heap moves it.  What moves it is
    the speed the host gives this process at the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(12000):
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0) + i * i % 7
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    """Mean of KERNEL_RUNS reference kernel runs, in ms.  A single kernel
    time is bimodal on a contended host."""
    return sum(reference_ms() for _ in range(KERNEL_RUNS)) / KERNEL_RUNS


KERNEL_RUNS = 3

#: Seconds between reference kernel runs inside an operation.
SAMPLE_EVERY = 0.25


class Timings:
    """Time spent in the timed operations and the items they did.

    Shared hosts change a process's speed by a large factor within seconds.
    So ``host_speed`` runs before the first operation and after each one,
    outside its time, and a timer signal runs the reference kernel every
    SAMPLE_EVERY seconds inside an operation; the kernel's time is taken
    out of the operation's.  Each operation's time is also kept scaled by
    REFERENCE_MS over the mean of the speeds on either side of it and those
    sampled inside it.  An operation over several items gives each of them
    an equal share of its time.
    """

    def __init__(self):
        self.items = 0
        self.busy = {"raw": 0.0, "scaled": 0.0}       # seconds
        self.per_item = {"raw": [], "scaled": []}     # seconds per item
        self.refs = [host_speed()]

    def measure(self, fn, *args, items=lambda result: 1):
        """Return ``fn(*args)``, recording its time and ``items(result)``."""
        inside: list = []

        def sample(signum, frame):
            inside.append(reference_ms())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.add(elapsed - sum(inside) / 1e3, items(result), inside)
        return result

    def add(self, seconds: float, items: int = 1, inside=()) -> None:
        self.refs.append(host_speed())
        speeds = [self.refs[-2], self.refs[-1], *inside]
        scale = REFERENCE_MS / (sum(speeds) / len(speeds))
        self.items += items
        for kind, value in (("raw", seconds), ("scaled", seconds * scale)):
            self.busy[kind] += value
            if items:
                self.per_item[kind].extend([value / items] * items)


def run_rounds(rounds, budget: float, do_round) -> None:
    """Run whole rounds while the next one is expected to end within the
    budget, and at least one."""
    start = time.perf_counter()
    done = 0
    for batch in rounds:
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / done > budget:
            break
        do_round(batch)
        done += 1


class Tracer:
    """Spans of the harness's own calls into each layer, kept in memory.

    A span is (id, parent id, name, start, end); the parent is the span of
    the workload item that made the call.  ``samples`` holds durations by
    name, ``counts`` the exact event counts.
    """

    def __init__(self):
        self.spans: list = []
        self.samples: dict = {}
        self.counts: dict = {}
        self._parent = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append((len(self.spans), self._parent, name, start, end))
            self.sample(name, end - start)

    def item(self, name: str, fn, *args):
        """Run one workload item as a parent span of the calls it makes."""
        span_id = len(self.spans)
        self.spans.append(None)             # filled in when the item ends
        self._parent = span_id
        self.count("trace.items")
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._parent = None
            self.spans[span_id] = (span_id, None, name, start, end)
            self.sample(name, end - start)

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def trace_cover_layers(tr: Tracer, c: BranchedCover) -> None:
    """Time each perm, fiber and graphs call that ``check_cover`` and
    ``analyze`` make on a validated cover, one span per call, with
    ``checked=False`` so that each span holds its own layer's work only.
    Certificate, derived cover and oracle run where ``check_cover`` runs
    them."""
    group = tr.call("perm.group_build", monodromy_group, c, checked=False)
    tr.call("perm.point_stabilizer", point_stabilizer, group, 1)
    tr.call("perm.normal_closure", normal_closure, c.branch_cycles, group)
    pairs = itertools.product(range(1, c.degree + 1), repeat=2)
    tr.call("perm.pair_orbits", orbits, group, pairs)
    tr.call("perm.transitivity", transitivity, group)
    tr.call("fiber.orbitals", orbitals, c, checked=False)
    tr.call("fiber.scheme_points", scheme_points, c, checked=False)
    graph = tr.call("fiber.dual_graph", dual_graph, c, checked=False)
    tr.call("graphs.is_connected", is_connected, graph)
    gr = tr.call("fiber.genuinely_ramified", genuinely_ramified, c,
                 checked=False)
    morse_gr = is_morse(c, checked=False) and gr.genuinely_ramified
    if morse_gr and c.degree >= 2:
        tr.call("fiber.certify_sd", certify_sd, c, checked=False)
    if morse_gr and c.degree >= 3:
        tr.call("fiber.derived_cover", derived_cover_q1, c, checked=False)
    if group.order == c.degree and group.order <= ORACLE_CAP:
        tr.call("fiber.cayley_oracle", cayley_quotient_oracle, c,
                cap=ORACLE_CAP, checked=False)


def traced_check(tr: Tracer, c: BranchedCover,
                 report: VerificationReport) -> None:
    """What ``verify_corpus`` does with one cover, then its layers."""
    tr.call("cover.validate", validate, c)
    fold(report, *tr.call("gen.check_cover", check_cover, c, ORACLE_CAP))
    trace_cover_layers(tr, c)


# ---------------------------------------------------------------------------
# workloads

def gated_rounds(rounds, budget: float, gate: Gate, op, label, want) -> None:
    """Run ``op`` on every input of whole rounds and check its outcome
    against ``want(input)``; ``label(input)`` names a failure."""
    def do_round(batch):
        for x in batch:
            try:
                got = op(x)
            except Exception:
                gate.error(label(x))
                continue
            gate.check(label(x), got, want(x))

    run_rounds(rounds, budget, do_round)


class Workload:
    """One workload.  ``plain`` measures the end-to-end loop and returns
    its Timings; ``traced`` runs the per-layer loop into a Tracer.  Both
    check every outcome through the gate."""

    name = ""
    noun = ""          # what one item is, for the printed summary

    def __init__(self, expected: dict):
        self.expected = expected

    def warm_up(self) -> None:
        """Work done once before timing: lazy imports and first-call
        caches, which ``setup_s`` measures on its own."""

    def plain(self, seed: int, budget: float, gate: Gate) -> Timings:
        raise NotImplementedError

    def traced(self, seed: int, budget: float, gate: Gate) -> Tracer:
        raise NotImplementedError


class CorpusExhaustive(Workload):
    name = "corpus_exhaustive"
    noun = "cover checked"

    def warm_up(self) -> None:
        verify_corpus(stratum_spec(0, 3, 2))

    def _label(self, stratum: tuple) -> str:
        return f"{self.name} stratum {stratum}"

    def _want(self, stratum: tuple) -> dict:
        return self.expected[",".join(map(str, stratum))]

    def plain(self, seed, budget, gate):
        timings = Timings()

        def op(stratum):
            report = timings.measure(
                verify_corpus, stratum_spec(*stratum),
                items=lambda report: report.covers_checked)
            return report_summary(report)

        gated_rounds(itertools.repeat(exhaustive_strata()), budget, gate, op,
                     self._label, self._want)
        return timings

    def traced(self, seed, budget, gate):
        """Exactly one pass, so that the counts repeat exactly."""
        tr = Tracer()

        def op(stratum):
            spec = stratum_spec(*stratum, dedup=False)
            covers = tr.call("gen.enumerate",
                             lambda: list(enumerate_covers(spec)))
            report = VerificationReport()
            seen: set = set()
            for c in covers:
                tr.count("gen.valid_covers")
                key = tr.call("gen.canonical_form", canonical_form, c)
                if key in seen:
                    continue
                seen.add(key)
                tr.count("gen.classes")
                tr.item("item.cover", traced_check, tr, c, report)
            count_checks(tr, report)
            return report_summary(report)

        gated_rounds(iter([exhaustive_strata()]), budget, gate, op,
                     self._label, self._want)
        return tr


def count_checks(tr: Tracer, report: VerificationReport) -> None:
    for name, v in report.checks_run.items():
        tr.count(f"gen.checks_run.{name}", v)


class CorpusMorse(Workload):
    name = "corpus_morse"
    noun = "cover sampled and checked"

    def warm_up(self) -> None:
        verify_corpus(next(morse_rounds(0))[0])

    def _rounds(self, seed, budget, gate, op):
        gated_rounds(morse_rounds(seed), budget, gate, op,
                     lambda spec: (f"{self.name} d={spec.degrees[0]} "
                                   f"sampler seed={spec.seed}"),
                     lambda spec: self.expected["per_cover"])

    def plain(self, seed, budget, gate):
        timings = Timings()

        def op(spec):
            return report_summary(timings.measure(verify_corpus, spec))

        self._rounds(seed, budget, gate, op)
        return timings

    def traced(self, seed, budget, gate):
        tr = Tracer()

        def one(spec):
            c = tr.call("gen.random_cover", random_cover, spec)
            tr.count("gen.valid_covers")
            tr.count("gen.classes")
            report = VerificationReport()
            traced_check(tr, c, report)
            count_checks(tr, report)
            return report_summary(report)

        self._rounds(seed, budget, gate,
                     lambda spec: tr.item("item.cover", one, spec))
        return tr


class AnalyzeLarge(Workload):
    name = "analyze_large"
    noun = "cover analysed"

    def warm_up(self) -> None:
        analyze(braid_cover(random.Random(0), 5)).to_json_dict()

    def _rounds(self, seed, budget, gate, op):
        """Inputs are (index, cover); the first covers of a seed with
        recorded digests are also checked byte for byte."""
        digests = self.expected["digests"].get(str(seed), [])
        index = itertools.count()
        rounds = ([(next(index), c) for c in batch]
                  for batch in analyze_rounds(seed))

        def want(x):
            i, c = x
            expected = analyze_expected(c)
            if i < len(digests):
                expected["digest"] = digests[i]
            return expected

        gated_rounds(rounds, budget, gate, lambda x: op(x[1]),
                     lambda x: (f"{self.name} seed={seed} cover {x[0]} "
                                f"(d={x[1].degree})"),
                     want)

    def plain(self, seed, budget, gate):
        timings = Timings()

        def op(c):
            doc = timings.measure(lambda: analyze(c).to_json_dict())
            return fiber_outcome(c, doc)

        self._rounds(seed, budget, gate, op)
        return timings

    def traced(self, seed, budget, gate):
        tr = Tracer()

        def one(c):
            tr.call("cover.validate", validate, c)
            doc = tr.call("fiber.analyze",
                          lambda: analyze(c).to_json_dict())
            trace_cover_layers(tr, c)
            return fiber_outcome(c, doc)

        self._rounds(seed, budget, gate,
                     lambda c: tr.item("item.cover", one, c))
        return tr


class Curves(Workload):
    name = "curves"
    noun = "curve certified or refused"

    def warm_up(self) -> None:
        numono.certify_projection(numono.parse_poly(CURVES[0])).to_json_dict()

    def _rounds(self, seed, budget, gate, op):
        gated_rounds(curve_rounds(seed), budget, gate, op,
                     lambda text: f"{self.name} {text!r}",
                     lambda text: self.expected[text])

    def plain(self, seed, budget, gate):
        timings = Timings()

        def attempt(text):
            try:
                report = numono.certify_projection(numono.parse_poly(text))
                report.to_json_dict()
            except REFUSALS as exc:
                return {"error": type(exc).__name__}
            return curve_outcome(report)

        def op(text):
            return timings.measure(attempt, text)

        self._rounds(seed, budget, gate, op)
        return timings

    def traced(self, seed, budget, gate):
        tr = Tracer()

        def one(text):
            p = tr.call("numono.parse", numono.parse_poly, text)
            try:
                tr.call("numono.reject_singular", numono.reject_singular, p)
                tr.call("numono.critical_values", numono.critical_values, p)
                result = tr.call("numono.track", numono.track_monodromy, p)
            except REFUSALS as exc:
                tr.count("numono.curves_rejected")
                return {"error": type(exc).__name__}
            # track_monodromy repeats the two calls above; its self time
            # is what remains of its span without them
            last = {name: tr.samples[name][-1] for name in
                    ("numono.track", "numono.reject_singular",
                     "numono.critical_values")}
            tr.sample("numono.track_self", last["numono.track"]
                      - last["numono.reject_singular"]
                      - last["numono.critical_values"])
            report = tr.call("numono.certify_group", numono.certify_projection,
                             p, result=result)
            tr.call("numono.to_json", report.to_json_dict)
            tr.count("numono.loops_tracked", len(result.loops) + 1)
            if result.used_precision_digits > 16:
                tr.count("numono.precision_retries")
            trace_cover_layers(tr, result.cover)
            return curve_outcome(report)

        self._rounds(seed, budget, gate,
                     lambda text: tr.item("item.curve", one, text))
        return tr


WORKLOADS = {w.name: w for w in (CorpusExhaustive, CorpusMorse, AnalyzeLarge,
                                 Curves)}
