"""Behaviour of the benchmark itself; no timing is asserted.

    PYTHONPATH=src python -m pytest perfbench
"""

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import wsh.cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MODULES = ("wsh.cli", "wsh.fileio", "wsh.complexes", "wsh.homology", "wsh.oracle", "wsh.fields")


def _functions():
    """{(module, attribute): object} for every callable the wsh modules bind."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if callable(value) and not attr.startswith("__"):
                out[name, attr] = value
    return out


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_span_belongs_to_one_layer():
    for modname, names in tracing.BINDINGS.items():
        module = importlib.import_module(modname)
        for attr in names:
            assert tracing.span_name(getattr(module, attr)) in tracing.LAYER_OF
    assert tracing.ROOT_SPAN in tracing.LAYER_OF


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    other = workloads.build(name, 8)
    assert [i.text for i in first] == [i.text for i in again]
    assert [i.text for i in first] != [i.text for i in other]
    assert [(i.name, i.flags) for i in first] == [(i.name, i.flags) for i in other]


def test_generated_inputs_have_the_stated_sizes():
    from wsh import parse_complex_file

    for name in workloads.WORKLOADS:
        for inv in workloads.build(name, 3)[:3]:
            X = parse_complex_file(inv.text, complete="--complete-faces" in inv.flags)
            assert len(X) == inv.simplices


def test_digests_cover_every_default_seed_report():
    for name in workloads.WORKLOADS:
        names = [i.name for i in workloads.build(name, run.DEFAULT_SEED)]
        assert sorted(checks.load_digests(name)) == sorted(names)


def test_text_and_json_reports_give_free_ranks():
    text = "field: gf:2\nH_0 = R\nH_1 = R (+) R/(pi^2) (+) R\nH_2 = 0\n"
    assert checks.free_ranks(text, False) == [1, 2, 0]
    report = json.dumps({"dimensions": [{"free_rank": 1}, {"free_rank": 0}]})
    assert checks.free_ranks(report, True) == [1, 0]


def test_problem_flags_wrong_ranks_codes_and_digests():
    inv = workloads.Invocation("x.cplx", "", (), (1, 2, 1), False, 0)
    good = "field: rational\nH_0 = R\nH_1 = R (+) R\nH_2 = R\n"
    assert checks.problem(inv, 0, good, None) is None
    assert checks.problem(inv, 0, good, checks.digest(good)) is None
    assert "digest" in checks.problem(inv, 0, good, "0" * 16)
    assert "free ranks" in checks.problem(inv, 0, good.replace("H_2 = R", "H_2 = 0"), None)
    assert "exit code" in checks.problem(inv, 3, good, None)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run._tail_percentile(200) == 95.0
    assert run._tail_percentile(1000) == 99.0
    assert run._tail_percentile(4) == 50.0
    assert run._percentile([3, 1, 2, 4], 50.0) == 2.5
    assert run._percentile(range(101), 95.0) == pytest.approx(95.0)


def test_tracer_restores_every_function_and_the_field():
    before = _functions()
    tracer = tracing.Tracer()
    tracer.install(counting=True)
    try:
        during = _functions()
        assert during["wsh.homology", "cycle_basis"] is not before["wsh.homology", "cycle_basis"]
        assert during["wsh.cli", "FieldSpec"].__name__ == "CountingFieldSpec"
    finally:
        tracer.uninstall()
    assert _functions() == before
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())


def _traced_main(tmp_path, tracer, counting=True):
    path = tmp_path / "torus.cplx"
    path.write_text(workloads.torus_grid(random.Random(5), 4))
    main = tracer.span(tracing.ROOT_SPAN, wsh.cli.main)
    tracer.install(counting)
    try:
        code = main(["--generators", "--json", str(tmp_path / "r.json"), "--check", str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


def test_timed_spans_nest_and_take_no_counts(tmp_path):
    tracer = _traced_main(tmp_path, tracing.Tracer(), counting=False)
    by_id = {s[1]: s for s in tracer.spans}
    for _inv, _sid, parent, _name, start, end in tracer.spans:
        if parent is not None:
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]
    roots = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in roots] == [tracing.ROOT_SPAN]
    names = {s[3] for s in tracer.spans}
    assert {"homology.cycle_basis", "oracle.snf_valuations", "fileio.parse_complex_file"} <= names
    assert not tracer.counts and not tracer.ops


def test_counts_repeat_exactly(tmp_path):
    first = _traced_main(tmp_path, tracing.Tracer())
    second = _traced_main(tmp_path, tracing.Tracer())
    assert first.counts == second.counts
    assert first.ops == second.ops
    assert first.counts["complexes.simplices"] == 6 * 4 * 4
    assert first.counts["oracle.calls"] == 3
    assert {scope for scope, _op in first.ops} <= {None, *tracing.OP_SCOPES}
    assert any(scope == "oracle" for scope, _op in first.ops)


def test_untraced_pass_runs_the_library_unwrapped(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    before = _functions()
    seen = []

    def spy(argv):
        seen.append(_functions() == before)
        return wsh.cli.main(argv)

    runner = run.Runner("sphere-gf2", run.DEFAULT_SEED, checks.load_digests("sphere-gf2"))
    runner.invocations = runner.invocations[:1]
    reference = []
    runner.run_pass(spy, reference)
    assert seen == [True]
    assert not runner.failures
    assert len(reference) == run.REFERENCE_REPEATS


def test_timing_metrics_take_each_invocation_median_over_passes():
    wall, p50, tail, q = run._timing_metrics([[1.0, 10.0], [3.0, 12.0], [2.0, 50.0]])
    assert (wall, p50, tail, q) == (14.0, 7.0, 7.0, 50.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
