"""Run one workload of the ramify benchmark and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the workload once plainly and once through the harness's own
per-layer spans, and prints the per-layer metrics and the tracing overhead.
Every outcome is checked against ``bench/expected.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, sample counts,
quartiles) goes to ``bench/out/``; a traced run also writes its spans there.
The exit code is 0 only when every outcome matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_RUNS = 5

SETUP_CODE = """\
import time
start = time.perf_counter()
import ramify.fiber
import ramify.gen
from ramify import numono
numono.y_resultant_with_dy(numono.parse_poly("y^2 - x^3 + x"))
print(time.perf_counter() - start)
"""

#: (name, unit); every workload reports all of them.  bench/README.md
#: gives their meanings.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer timings: (metric, span name, statistic, scale to the unit).
# A layer the workload never calls reads 0.
_MS, _US = 1e3, 1e6
LAYER_TIMES = (
    ("gen.enumerate_ms", "gen.enumerate", "sum", _MS),
    ("gen.canonical_form_us_p50", "gen.canonical_form", "p50", _US),
    ("gen.random_cover_ms_p50", "gen.random_cover", "p50", _MS),
    ("gen.check_cover_ms_p50", "gen.check_cover", "p50", _MS),
    ("gen.check_cover_ms_p90", "gen.check_cover", "p90", _MS),
    ("cover.validate_us_p50", "cover.validate", "p50", _US),
    ("perm.group_build_ms_p50", "perm.group_build", "p50", _MS),
    ("perm.point_stabilizer_ms_p50", "perm.point_stabilizer", "p50", _MS),
    ("perm.normal_closure_ms_p50", "perm.normal_closure", "p50", _MS),
    ("perm.pair_orbits_ms_p50", "perm.pair_orbits", "p50", _MS),
    ("perm.transitivity_ms_p50", "perm.transitivity", "p50", _MS),
    ("fiber.orbitals_ms_p50", "fiber.orbitals", "p50", _MS),
    ("fiber.scheme_points_ms_p50", "fiber.scheme_points", "p50", _MS),
    ("fiber.dual_graph_ms_p50", "fiber.dual_graph", "p50", _MS),
    ("fiber.genuinely_ramified_ms_p50", "fiber.genuinely_ramified", "p50", _MS),
    ("fiber.certify_sd_ms_p50", "fiber.certify_sd", "p50", _MS),
    ("fiber.derived_cover_ms_p50", "fiber.derived_cover", "p50", _MS),
    ("fiber.cayley_oracle_ms_p50", "fiber.cayley_oracle", "p50", _MS),
    ("graphs.is_connected_us_p50", "graphs.is_connected", "p50", _US),
    ("numono.parse_us_p50", "numono.parse", "p50", _US),
    ("numono.reject_singular_ms_p50", "numono.reject_singular", "p50", _MS),
    ("numono.critical_values_ms_p50", "numono.critical_values", "p50", _MS),
    ("numono.track_ms_p50", "numono.track_self", "p50", _MS),
    ("numono.certify_group_ms_p50", "numono.certify_group", "p50", _MS),
)

CHECK_COUNTS = tuple(f"gen.checks_run.{name}" for name in (
    "hn_vs_dual_graph", "theorem_main", "two_transitive_vs_orbitals",
    "sd_cover_order", "derived_cover", "cayley_oracle"))

#: Exact event counts of the traced run.
LAYER_COUNTS = ("gen.valid_covers", "gen.classes") + CHECK_COUNTS + (
    "numono.loops_tracked", "numono.precision_retries",
    "numono.curves_rejected", "trace.items")


def per_layer_units() -> dict:
    units = {name: ("us" if scale == _US else "ms")
             for name, _, _, scale in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["gen.dedup_ratio"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# statistics and environment

def p90(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summary(values: list) -> dict:
    """Sample count, quartiles and tail of one run's samples."""
    if not values:
        return {"n": 0}
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "p90": p90(values), "min": min(values), "max": max(values)}


def environment() -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(host_speed, reference: float) -> dict:
    """Setup times of fresh processes in s, as measured and scaled like
    the workload's operations (see ``workloads.Timings``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = {"raw": [], "scaled": []}
    before = host_speed()
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = host_speed()
        times["raw"].append(seconds)
        times["scaled"].append(seconds * reference / ((before + after) / 2))
        before = after
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(setup: list, items: int, busy: float, per_item: list) -> dict:
    per_item_ms = [s * 1e3 for s in per_item]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": items / busy if busy else 0.0,
        "item_ms_p50": statistics.median(per_item_ms) if per_item_ms else 0.0,
        "item_ms_p90": p90(per_item_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def plain_run(workload, seed: int, seconds: float, gate) -> tuple:
    from workloads import REFERENCE_MS, host_speed

    setup = measure_setup(host_speed, REFERENCE_MS)
    workload.warm_up()
    timings = workload.plain(seed, seconds, gate)
    metrics, as_measured = (
        end_to_end(setup[kind], timings.items, timings.busy[kind],
                   timings.per_item[kind])
        for kind in ("scaled", "raw"))
    stats = {"as_measured": as_measured,
             "setup_s": {kind: summary(v) for kind, v in setup.items()},
             "item_ms": {kind: summary([s * 1e3 for s in v])
                         for kind, v in timings.per_item.items()},
             "host_speed_ms": summary(timings.refs),
             "items": timings.items, "busy_s": timings.busy}
    return metrics, stats, None


def traced_run(workload, seed: int, seconds: float, gate) -> tuple:
    workload.warm_up()
    start = time.perf_counter()
    plain = workload.plain(seed, seconds / 2, gate)
    plain_wall = time.perf_counter() - start
    start = time.perf_counter()
    tracer = workload.traced(seed, seconds / 2, gate)
    traced_wall = time.perf_counter() - start

    metrics = {}
    for name, span, stat, scale in LAYER_TIMES:
        values = tracer.samples.get(span, [])
        if stat == "sum":
            value = sum(values)
        elif stat == "p50":
            value = statistics.median(values) if values else 0.0
        else:
            value = p90(values)
        metrics[name] = value * scale
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    valid = metrics["gen.valid_covers"]
    metrics["gen.dedup_ratio"] = metrics["gen.classes"] / valid if valid else 0.0
    traced_items = metrics["trace.items"]
    metrics["trace.overhead_pct"] = (
        100 * ((traced_wall / traced_items) / (plain_wall / plain.items) - 1)
        if traced_items and plain.items else 0.0)
    stats = {
        "spans": {name: summary([v * 1e3 for v in values])
                  for name, values in sorted(tracer.samples.items())},
        "plain": {"items": plain.items, "wall_s": plain_wall},
        "traced": {"items": traced_items, "wall_s": traced_wall},
    }
    return metrics, stats, tracer


def write_spans(path: Path, tracer) -> None:
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    rows = [{"id": i, "parent": parent, "name": name,
             "start_us": round((start - origin) * 1e6, 1),
             "end_us": round((end - origin) * 1e6, 1)}
            for i, parent, name, start, end in tracer.spans]
    path.write_text(json.dumps(rows) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ramify" / "__init__.py").is_file():
        print(f"error: no ramify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text())
    workload = workloads.WORKLOADS[args.workload](expected[args.workload])
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    gate = workloads.Gate()

    run = traced_run if args.trace else plain_run
    metrics, stats, tracer = run(workload, seed, args.seconds, gate)
    units = per_layer_units() if args.trace else dict(END_TO_END)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "metrics": metrics,
              "stats": stats, "attempted": gate.attempted,
              "failures": gate.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        write_spans(OUT / f"{stem}-spans.json", tracer)

    # a run that attempted nothing counts as one failed operation
    attempted = gate.attempted or 1
    failed = gate.failed if gate.attempted else 1
    fail_frac = failed / attempted
    print(f"{args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}: one item = one {workload.noun}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {fail_frac:14.6g} ratio "
          f"({failed} of {attempted})")
    for failure in gate.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  record: {OUT / stem}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
