"""The calls the benchmark harness makes into ``ramify``, run on small
inputs, so that a change to a name or signature the harness relies on
fails here as well as in the benchmark.  ``bench/workloads.py`` is loaded
from its file and only read."""

import importlib.util
from pathlib import Path

import pytest

from test_cover import HYPERELLIPTIC6, TREFOIL_MORSE

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def wl():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_check_runs_every_layer(wl):
    tr = wl.Tracer()
    report = wl.VerificationReport()
    wl.traced_check(tr, TREFOIL_MORSE, report)
    assert report.covers_checked == 1 and report.ok
    assert report.checks_run["derived_cover"] == 1
    assert {"cover.validate", "gen.check_cover", "perm.group_build",
            "perm.point_stabilizer", "perm.normal_closure",
            "perm.pair_orbits", "perm.transitivity", "fiber.orbitals",
            "fiber.scheme_points", "fiber.dual_graph", "graphs.is_connected",
            "fiber.genuinely_ramified", "fiber.certify_sd",
            "fiber.derived_cover"} <= set(tr.samples)


def test_trace_cover_layers_runs_the_oracle_on_a_galois_cover(wl):
    tr = wl.Tracer()
    wl.trace_cover_layers(tr, HYPERELLIPTIC6)
    assert "fiber.cayley_oracle" in tr.samples


def test_traced_curve_calls(wl):
    numono, tr = wl.numono, wl.Tracer()
    p = tr.call("numono.parse", numono.parse_poly, "y^2 - x^3 + x")
    tr.call("numono.reject_singular", numono.reject_singular, p)
    tr.call("numono.critical_values", numono.critical_values, p)
    result = tr.call("numono.track", numono.track_monodromy, p)
    report = tr.call("numono.certify_group", numono.certify_projection,
                     p, result=result)
    tr.call("numono.to_json", report.to_json_dict)
    assert len(result.loops) == 3 and result.used_precision_digits == 16
    wl.trace_cover_layers(tr, result.cover)
    assert wl.curve_outcome(report) == {
        "degree": 2, "branch_cycle_types": [[2], [2], [2], [2]],
        "is_full_symmetric": True, "full_morse": True,
        "infinity_kind": "transposition"}
