"""Tests of the benchmark's own checkers, and its smoke mode.

Each checker first passes the program's real output, then must fail the same
output with one planted error. Run with:

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import random
import sys
import time
import types

import checks as C
import gen
import run
import speed
import workloads

sys.path.insert(0, str(workloads.SRC))
import btangent as bt  # noqa: E402


def _surface_op(tmp_path, klein=False, k=2):
    spec = gen.random_surface(random.Random(7), klein, 16, 16, k, 2)
    path = tmp_path / "s.json"
    gen.write_json(path, gen.surface_document(spec))
    return workloads.Op("s", path, gen.surface_expect(spec), data=spec)


def _graph_op(tmp_path, defect="none"):
    doc, expect = gen.planted_graph(random.Random(3), 40, 60, defect)
    path = tmp_path / "g.json"
    gen.write_json(path, doc)
    return workloads.Op("g", path, expect)


def test_surface_checker_passes_the_program(tmp_path):
    for klein in (False, True):
        for k in (0, 1, 2, 3):
            op = _surface_op(tmp_path, klein, k)
            out = workloads.Surface().run(op, workloads.plain_call)
            assert C.check_surface(op.expect, out) == []


def test_surface_checker_fails_flipped_colorability(tmp_path):
    op = _surface_op(tmp_path)
    out = workloads.Surface().run(op, workloads.plain_call)
    flipped = types.SimpleNamespace(two_colorable=False, coloring=None)
    assert C.check_surface(op.expect, dict(out, verdict=flipped))
    assert C.check_surface(op.expect, dict(out, gauge=None))


def test_surface_checker_fails_closure_chi_off_by_one(tmp_path):
    op = _surface_op(tmp_path)
    out = workloads.Surface().run(op, workloads.plain_call)
    g = out["graph"]
    first = g.regions[0]
    regions = (bt.Region(first.label, first.euler_char + 1),) + g.regions[1:]
    problems = C.check_surface(op.expect, dict(out, graph=dataclasses.replace(g, regions=regions)))
    assert any("closure chi" in p for p in problems)


def test_surface_checker_fails_missing_orientability_error(tmp_path):
    op = _surface_op(tmp_path, klein=True)
    out = workloads.Surface().run(op, workloads.plain_call)
    assert C.check_surface(op.expect, dict(out, verdict=out["gauge"]))


def test_graph_checker_fails_flipped_colorability(tmp_path):
    for defect in ("none", "odd", "loop"):
        op = _graph_op(tmp_path, defect)
        out = workloads.Graph().run(op, workloads.plain_call)
        assert C.check_graph(op.expect, out) == []
        flipped = types.SimpleNamespace(two_colorable=not op.expect.colorable,
                                        coloring=out["gauge"])
        assert C.check_graph(op.expect, dict(out, verdict=flipped))
        if not op.expect.colorable:
            assert C.check_graph(op.expect, dict(out, edge_odd=out["edge_even"]))


def test_graph_checker_fails_improper_coloring(tmp_path):
    op = _graph_op(tmp_path)
    out = workloads.Graph().run(op, workloads.plain_call)
    bad = dict(out["gauge"].assignment)
    label = next(iter(bad))
    bad[label] = -bad[label]
    assert C.check_graph(op.expect, dict(out, gauge=bt.Coloring(bad)))


def test_sphere_checker_fails_degree_off_by_one():
    report = bt.sphere_map_report(3, 20_000, 5)
    assert C.check_sphere_report(3, 20_000, report) == []
    assert C.check_sphere_report(
        3, 20_000, dataclasses.replace(report, degree_preimage=report.degree_preimage + 1))
    assert C.check_sphere_report(
        3, 20_000, dataclasses.replace(report, degree_integral=report.degree_integral + 1))


def test_degree_closed_form():
    assert [C.exact_degree(n) for n in range(2, 9)] == [2, 0, 2, 0, 2, 0, 2]
    assert C.degree_sigma(2, 200_000) == 0.0
    assert abs(C.degree_sigma(8, 200_000) - 0.01414) < 1e-4


def test_cli_checker_fails_traceback():
    report = C.cli_report(0, {"index": 1})
    assert report(0, b'{"index": 1}\n', b"") == []
    assert report(0, b'{"index": 1}\n', b"Traceback (most recent call last):\n")
    fault = C.cli_fault(report)
    assert fault(1, b"", b"Traceback (most recent call last):\nValueError: x\n")
    assert fault(0, b'{"index": 0}\n', b"")
    assert fault(1, b"", b"error: radius must be positive\n") == []
    assert fault(0, b'{"index": 1}\n', b"") == []


def test_run_counts_a_planted_wrong_result_as_failed(tmp_path):
    class Planted(workloads.Sphere):
        def run(self, op, call):
            out = super().run(op, call)
            return dataclasses.replace(out, degree_preimage=out.degree_preimage + 1)

    wl = Planted()
    ops = [op for op in wl.make_round(0, True, tmp_path) if op.arg[0] == "report"][:2]
    result = run.run_rounds(wl, ops, 0, 1, 0)
    assert (result.attempted, result.failed, len(result.wrong)) == (2, 2, 2)


def test_known_fault_counts_as_failed_but_not_wrong(tmp_path):
    wl = workloads.CliCold()
    ops = [op for op in wl.make_round(0, True, tmp_path) if op.known_fault]
    assert len(ops) == 3
    result = run.run_rounds(wl, ops, 0, 1, 0)
    assert result.attempted == 3
    assert result.wrong == []


def test_times_are_scaled_by_the_reference_job(monkeypatch):
    # a machine where the reference job takes half its reference time is
    # twice as fast, so every operation time is reported doubled
    monkeypatch.setattr(speed, "JOBS", {lambda: time.sleep(0.01): 0.02})

    class Sleep(workloads.Workload):
        name = "sleep"

        def run(self, op, call):
            time.sleep(0.05)

        def check(self, op, out):
            return []

    result = run.run_rounds(Sleep(), [workloads.Op("nap", None)], 0, 2, 0)
    assert all(1.6 < k < 2.0 for k in result.scale)
    assert all(0.08 < x < 0.11 for x in result.latencies[0])


def test_smoke_runs_every_workload():
    results = run.smoke(0)
    assert set(results) == {"surface", "graph", "sphere", "cli_cold"}
    for name, res in results.items():
        assert res["correct"], name
        assert res["attempted"] > 0
    assert [res["failed"] for res in results.values()][:3] == [0, 0, 0]
