"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest bench -q
"""

import copy
import json
import math
import random
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402  (needs src on the path)
from ramify.cover import is_morse, monodromy_group, validate  # noqa: E402
from ramify.gen import (  # noqa: E402
    CorpusSpec,
    VerificationReport,
    random_cover,
    verify_corpus,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((run.HERE / "expected.json").read_text())


@pytest.mark.parametrize("d", [2, 3, 5, 9, 12])
def test_braid_cover_is_valid_morse_genus0_with_full_group(d):
    for seed in range(3):
        c = wl.braid_cover(random.Random(seed), d)
        assert validate(c).valid
        assert c.base_genus == 0 and c.branch_count == 2 * d - 2
        assert is_morse(c)
        assert monodromy_group(c).order == math.factorial(d)


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, 987_654_321])
def test_seeded_inputs_keep_their_shape(seed):
    rounds = wl.analyze_rounds(seed)
    for _ in range(2):
        covers = next(rounds)
        assert [c.degree for c in covers] == list(wl.ANALYZE_DEGREES)
        assert all(c.branch_count == 2 * c.degree - 2 for c in covers)
    specs = next(wl.morse_rounds(seed))
    assert [s.degrees[0] for s in specs] == list(wl.MORSE_DEGREES)
    for spec in specs:
        c = random_cover(spec)
        d = spec.degrees[0]
        assert validate(c).valid and is_morse(c)
        assert (c.degree, c.base_genus, c.branch_count) == (d, 0, 2 * d - 2)


def test_same_seed_same_inputs():
    a, b = next(wl.analyze_rounds(7)), next(wl.analyze_rounds(7))
    assert [x.branch_cycles for x in a] == [y.branch_cycles for y in b]
    assert next(wl.morse_rounds(7)) == next(wl.morse_rounds(7))
    assert next(wl.curve_rounds(7)) == next(wl.curve_rounds(7))


def test_strata_check_the_covers_of_the_combined_spec():
    combined = verify_corpus(CorpusSpec((1, 3), (0, 0), (0, 4), dedup=True))
    total = VerificationReport()
    for r in range(5):
        for d in range(1, 4):
            part = verify_corpus(wl.stratum_spec(0, d, r))
            total.covers_checked += part.covers_checked
            for name, v in part.checks_run.items():
                total.checks_run[name] += v
            total.vacuous_theorem_main += part.vacuous_theorem_main
            total.violations.extend(part.violations)
    assert total.to_json_dict() == combined.to_json_dict()


def test_metric_tables_match_benchmark_json():
    assert ({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
            == dict(run.END_TO_END))
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "curves",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert ({name: m["unit"] for name, m in last["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK[section]})
    if trace:
        spans = json.loads(
            (run.OUT / "curves-seed5-trace1-spans.json").read_text())
        ids = {s["id"] for s in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_wrong_expected_verdict_counts_as_failed():
    expected = copy.deepcopy(EXPECTED["curves"])
    expected["y^2 - x^3 + x"]["is_full_symmetric"] = False
    expected["y^2 - x^3"] = {"error": "NonGenericError"}
    gate = wl.Gate()
    wl.Curves(expected).plain(wl.DEFAULT_SEED, 0.0, gate)
    assert gate.attempted == len(wl.CURVE_ROUND)
    assert gate.failed == 2
    assert any("'y^2 - x^3 + x'" in f and "is_full_symmetric" in f
               for f in gate.failures)


def test_wrong_expected_verdict_fails_the_run(tmp_path, monkeypatch, capsys):
    expected = copy.deepcopy(EXPECTED)
    expected["curves"]["y^2 - x^5 + 2*x - 1"]["degree"] = 3
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "expected.json").write_text(json.dumps(expected))
    monkeypatch.setattr(run, "HERE", bench_dir)
    monkeypatch.setattr(run, "OUT", bench_dir / "out")
    code = run.main(["--workload", "curves", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not last["correct"]
    assert last["failed"] == 1 and last["attempted"] == len(wl.CURVE_ROUND)


def test_timings_scale_by_the_host_speed_around_each_operation(monkeypatch):
    speeds = iter([2 * wl.REFERENCE_MS, 2 * wl.REFERENCE_MS, wl.REFERENCE_MS])
    monkeypatch.setattr(wl, "host_speed", lambda: next(speeds))
    timings = wl.Timings()
    timings.add(1.0)              # host at half speed on both sides
    timings.add(0.3, items=3)     # half speed before, full speed after
    assert timings.items == 4
    assert timings.busy["raw"] == pytest.approx(1.3)
    assert timings.per_item["raw"] == pytest.approx([1.0, 0.1, 0.1, 0.1])
    assert timings.per_item["scaled"] == pytest.approx(
        [0.5] + [0.1 / 1.5] * 3)


def test_timings_sample_the_host_inside_a_long_operation():
    timings = wl.Timings()
    result = timings.measure(lambda: sum(i * i for i in range(3_000_000)),
                             items=lambda r: 2)
    assert result == sum(i * i for i in range(3_000_000))
    assert timings.items == 2 and len(timings.per_item["raw"]) == 2
    assert timings.busy["raw"] > 0 and timings.busy["scaled"] > 0
