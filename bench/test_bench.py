"""Tests of the benchmark itself: each workload runs at reduced size and
passes its checks, and each check rejects a deliberately perturbed report.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil

import pytest

import checks
import run
import tracing
import worker
import workloads

SEED = 7


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One traced short run per workload: its result, scenarios by name,
    problems by scenario name, and the directory of its measured pass."""
    out = {}
    for name in workloads.WORKLOADS:
        outdir = tmp_path_factory.mktemp(name)
        result = worker.run_workload(name, SEED, 0.0, True, outdir, small=True)
        scenarios = workloads.build(name, SEED, small=True)
        problems = run.check_passes(scenarios, result["ops"], outdir)
        out[name] = result, {s.name: s for s in scenarios}, problems, outdir / "pass-1"
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_fails_only_known_faults(runs, name):
    result, scenarios, problems, _ = runs[name]
    assert len(result["ops"]) == 2  # warm-up and one measured pass
    known = {n for n, s in scenarios.items() if s.known_fault}
    assert {n for n, p in problems.items() if p} == known
    assert all(len(problems[n]) == 2 for n in known)


def test_only_fock_has_a_known_fault(runs):
    faulty = {w for w, (_, scenarios, _, _) in runs.items() if any(s.known_fault for s in scenarios.values())}
    assert faulty == {"fock"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_reports_every_layer_metric_and_counts_repeat(runs, name, tmp_path):
    first = runs[name][0]["layers"][0]
    assert set(first) == set(tracing.LAYER_METRICS)
    again = worker.run_workload(name, SEED, 0.0, True, tmp_path, small=True)["layers"][0]
    counts = [m for m in first if not m.endswith("_s")]
    assert {m: first[m] for m in counts} == {m: again[m] for m in counts}


def test_trace_sees_cross_module_calls(runs):
    series = runs["series"][0]["layers"][0]
    fock = runs["fock"][0]["layers"][0]
    # spread/ehrenfest build x and p through names imported into dynamics
    assert series["operators.build_calls"] > 0 and series["dynamics.series_rows"] == 3 * 41
    assert series["operators.evolve_calls"] == 21 + 1  # evolve rows, then revival
    # field_operator calls eigenfunction through the name fock imported
    assert fock["well.eigenfunction_calls"] > 0 and fock["cli.quad_calls"] == 2
    assert fock["operators.evolve_calls"] == 0 and fock["dynamics.quad_calls"] == 0


def _perturb(text, fmt, column, change, rows=None):
    """Apply `change` to one column of a report, at `rows` or at every row."""
    if fmt == "json":
        doc = json.loads(text)
        i = doc["columns"].index(column)
        for r in range(len(doc["rows"])) if rows is None else rows:
            doc["rows"][r][i] = change(doc["rows"][r][i])
        return json.dumps(doc)
    lines = text.splitlines()
    i = lines[0].split(",").index(column)
    data = [line.split(",") for line in lines[1:]]
    for r in range(len(data)) if rows is None else rows:
        data[r][i] = repr(change(float(data[r][i])))
    return "\n".join([lines[0], *(",".join(row) for row in data)]) + "\n"


def _shift(d):
    return lambda v: v + d


def _scale(f):
    return lambda v: v * f


# (workload, scenario, column, change, rows, words of the expected problem);
# SAMPLED stands for the rows a series check compares with its oracle
SAMPLED = "sampled"
PERTURBATIONS = [
    ("series", "spread-gaussian", "x_mean", _shift(1e-6), [20], "<x>(t_r/2)"),
    ("series", "spread-gaussian", "dx", _shift(1e-6), [-1], "dx(t_r)"),
    ("series", "spread-gaussian", "dp", _scale(1.001), [0], "dp at row 0"),
    ("series", "spread-gaussian", "dp", _scale(1 + 1e-6), [-1], "dp(t_r)"),
    ("series", "spread-gaussian", "dp", _scale(1 + 1e-6), [20], "dp(t_r/2)"),
    ("series", "spread-gaussian", "p_mean", _shift(1e-6), [20], "<p>(t_r/2)"),
    ("series", "spread-gaussian", "dx0", _shift(1e-6), [5], "dx0"),
    ("series", "spread-gaussian", "free_particle_bound", _scale(1 + 1e-6), None, "free_particle_bound"),
    ("series", "spread-gaussian", "robertson_bound", _scale(1 + 1e-4), SAMPLED, "robertson at row"),
    ("series", "ehrenfest-moving", "p_mean", _scale(1.001), [0], "p_mean at row 0"),
    ("series", "ehrenfest-moving", "p_mean", _scale(1 + 1e-6), [-1], "<p>(t_r)"),
    ("series", "ehrenfest-moving", "p_mean", _scale(1 + 1e-4), SAMPLED, "p_mean at row"),
    ("series", "ehrenfest-moving", "residual_x", _scale(1.001), None, "residual_x"),
    ("series", "ehrenfest-moving", "residual_p", _scale(1.01), SAMPLED, "dpdt at row"),
    ("series", "ehrenfest-moving", "t", _scale(1.001), [-1], "last row"),
    ("series", "spread-modes", "x_mean", _shift(1e-6), SAMPLED, "x_mean at row"),
    ("series", "spread-modes", "p_mean", _shift(1e-6), SAMPLED, "p_mean at row"),
    ("series", "evolve", "max_change_from_start", _shift(1e-6), [-1], "x(t_r)"),
    ("series", "evolve", "max_change_from_start", _shift(1e-6), [10], "x(t_r/2)"),
    ("series", "revival", "dx_gap", _shift(1e-6), [0], "dx_gap"),
    ("series", "revival", "max_position_change", _shift(1e-6), [0], "x(t_r)"),
    ("series", "revival", "dx_initial", _scale(1 + 1e-5), [0], "dx at row 0"),
    ("fock", "density-condensate", "density", _scale(1 + 1e-6), None, "density error"),
    ("fock", "density-fermions", "x", _shift(1e-3), [1], "sample positions"),
    ("fock", "algebra-fermion", "pair_defect", _shift(1e-300), [0], "not exactly 0"),
    ("fock", "algebra-boson", "saturated_states", _shift(1), [0], "saturated_states"),
    ("fock", "algebra-boson", "cross_mode_defect", _shift(1e-9), [0], "cross_mode_defect"),
    ("tables", "elements-csv", "x", _scale(1 + 1e-6), None, "x_"),
    ("tables", "elements-csv", "p_re", _shift(1e-3), [5], "real part"),
    ("tables", "elements-json", "p_im", _scale(1 + 1e-6), None, "p_"),
    ("tables", "elements-json", "x", _scale(1 + 1e-6), None, "re-parse"),
    ("tables", "commutator", "trace_re", _shift(1e-300), [0], "not exactly 0"),
    ("tables", "commutator-half", "trace_im", _shift(-1e-300), [0], "not exactly 0"),
    ("tables", "commutator", "interior_max_deviation", _scale(1 + 1e-6), [0], "interior_max_deviation"),
    ("tables", "commutator", "worst_diagonal_deviation", _scale(1 + 1e-6), [0], "worst_diagonal_deviation"),
    ("tables", "commutator-half", "edge_diagonal_min", _scale(1 + 1e-6), [0], "edge_diagonal_min"),
    ("tables", "commutator-half", "trace_naive_im", _shift(1e-9), [0], "trace_naive"),
]


def _copy_report(runs, workload, scenario, tmp_path):
    """The scenario, its report text, and a path in a copy of its pass."""
    _, scenarios, _, passdir = runs[workload]
    s = scenarios[scenario]
    copy = shutil.copytree(passdir, tmp_path / "pass")
    return s, (passdir / s.file).read_text(encoding="utf-8"), copy / s.file


@pytest.mark.parametrize("workload,scenario,column,change,rows,expect", PERTURBATIONS)
def test_check_rejects_perturbed_report(runs, tmp_path, workload, scenario, column, change, rows, expect):
    s, text, path = _copy_report(runs, workload, scenario, tmp_path)
    assert s.check(path) == []
    rows = list(s.check.rows) if rows == SAMPLED else rows
    path.write_text(_perturb(text, s.fmt, column, change, rows), encoding="utf-8")
    problems = s.check(path)
    assert any(expect in p for p in problems), problems


def test_density_integral_must_equal_particle_number(runs, tmp_path):
    s, text, path = _copy_report(runs, "fock", "density-fermions", tmp_path)
    doc = json.loads(text)
    doc["diagnostics"]["density_integral"] += 1e-6
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert any("density integral" in p for p in s.check(path))


def test_dropped_row_is_rejected(runs, tmp_path):
    s, text, path = _copy_report(runs, "tables", "elements-json", tmp_path)
    doc = json.loads(text)
    doc["rows"].pop()
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert s.check(path)


def test_error_contract_check():
    check = checks.error_contract_check
    assert check(2, '{"error": "too large", "field": "modes"}\n') == []
    assert check(1, '{"error": "too large", "kind": "ValueError"}\n')
    assert check(2, "Traceback (most recent call last):\nValueError: too large\n")


def test_closed_form_matrices_match_quadrature():
    L, hbar, N = 0.83, 1.27, 12
    x, p = checks.position_matrix(L, N), checks.momentum_matrix(L, hbar, N)
    for (k, l), (xq, pq) in checks.element_integrals(L, hbar, [(1, 1), (1, 2), (3, 8), (12, 11), (5, 7)]).items():
        assert x[k - 1, l - 1] == pytest.approx(xq, abs=1e-12)
        assert p[k - 1, l - 1] == pytest.approx(pq, abs=1e-10)


def test_measured_projection_miss_widens_only_its_check():
    # a packet on which the library's oscillatory quadrature misses mode 98
    # by 1e-7: d<p>/dt weighs high modes by k l, so only it moves past
    # PROJECTION_RTOL
    L, m, hbar = 0.701546, 1.771151, 1.645662
    packet = checks.Packet(center=0.350453, width=0.031215, momentum=0.0, hbar=hbar)
    oracle = checks.StateOracle(L, m, hbar, 200, packet, {0: 0.0, 59: 0.19895707517666272})
    assert oracle.widened().startswith("dpdt at row 59 by ")
    want, scale = oracle.expected
    for key in want:
        assert oracle.tolerance(key) == checks.PROJECTION_RTOL * scale[key] + oracle.misses[key]
    exact = checks.StateOracle(L, m, hbar, 200, [1, 2], {0: 0.0, 3: 0.1})
    assert exact.widened() == "" and exact.misses == {}
