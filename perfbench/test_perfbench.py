"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)

#: The traced function whose call count equals the number of items per pass.
ITEM_SPANS = {
    "sim-batch": ("sim.run_simulation",),
    "sim-trace": ("cli.main", "sim.run_simulation"),
    "design-sweep": ("tables.sweep_rows", "sharing.best_dma"),
    "coex-stations": ("coex.coexistence_throughputs", "coex.solve_equilibrium"),
}


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _passes(name, seed, workdir, count=2, tracer=None):
    """A run's first passes, the last one traced if a tracer is given.

    Returns (workload, runner, inputs per pass, traced stats or None).
    """
    wl = workloads.make(name, seed)
    workdir.mkdir()
    wl.prepare(workdir)
    runner = run.Runner(wl)
    inputs = []
    for _ in range(count - 1):
        runner.run_pass()
        inputs.append(wl.describe())
    if tracer is None:
        runner.run_pass()
        inputs.append(wl.describe())
        return wl, runner, inputs, None
    tracer.begin_pass()
    runner.run_pass(tracer)
    inputs.append(wl.describe())
    return wl, runner, inputs, tracer.end_pass()


def test_workload_names_match_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_inputs_and_digests(name, tmp_path):
    _, run_a, inputs_a, _ = _passes(name, 11, tmp_path / "a")
    _, run_b, inputs_b, _ = _passes(name, 11, tmp_path / "b")
    assert inputs_a == inputs_b
    assert run_a.failed == run_b.failed == 0
    assert run_a.attempted == sum(map(len, inputs_a))
    assert len(run_a.digests) == 2
    assert run_a.digests == run_b.digests
    assert workloads.make(name, 12).inputs(0) != workloads.make(name, 11).inputs(0)


@pytest.mark.parametrize("name", NAMES)
def test_no_input_repeats_across_passes(name):
    wl = workloads.make(name, 7)
    seen = set()
    for pass_no in range(4):
        items = [repr(item) for item in wl.inputs(pass_no)]
        assert len(set(items)) == len(items)
        assert seen.isdisjoint(items)
        seen.update(items)


def test_no_scenario_repeats_across_passes():
    # design-sweep repeats scenarios within a pass only, as a real sweep does
    wl = workloads.make("design-sweep", 3)
    per_pass = [{scenario for _, scenario in wl.inputs(p)} for p in range(6)]
    assert all(len(s) == 16 for s in per_pass)
    assert len(set().union(*per_pass)) == 6 * 16


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_equal_items_and_names_restored(name, tmp_path):
    modules = tracer_mod.package_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = tracer_mod.Tracer()
    wl, runner, _, stats = _passes(name, 5, tmp_path / "w", tracer=tracer)
    assert runner.failed == 0
    assert tracer.rebound, "nothing was rebound"
    for module, attr, original in tracer.rebound:
        assert getattr(module, attr) is original
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    for span in ITEM_SPANS[name]:
        assert stats[f"{span}.calls"] == len(wl.items)
    if name == "coex-stations":
        assert stats["coex.solve_equilibrium.repeat_share"] == 0.0


def test_rebinding_covers_imported_names():
    from coexcap import cli, sim, tables
    original = sim.run_simulation
    with tracer_mod.Tracer() as tr:
        assert sim.run_simulation is not original
        assert tables.run_simulation is sim.run_simulation
        assert cli.run_simulation is sim.run_simulation
        assert {(m.__name__, a) for m, a, _ in tr.rebound} >= {
            ("coexcap.sim", "run_simulation"), ("coexcap.tables", "run_simulation"),
            ("coexcap.cli", "run_simulation"), ("coexcap", "run_simulation")}
    assert sim.run_simulation is original


def test_overlap_check_finds_overlap(tmp_path):
    clean = tmp_path / "clean.trace"
    clean.write_text("10.000\tap\tdata\t5.000\tok\n15.000\tenb\tlaa-burst\t2.000\tok\n")
    assert workloads.first_overlap(clean) is None
    bad = tmp_path / "bad.trace"
    bad.write_text("10.000\tap\tdata\t5.001\tok\n15.000\tenb\tlaa-burst\t2.000\tok\n")
    assert workloads.first_overlap(bad) is not None


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_emitted_metrics_are_declared(name, trace, spec):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    assert set(emitted) == set(declared)
    for metric, body in emitted.items():
        assert body["unit"] == declared[metric]
        assert math.isfinite(body["value"])


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_percentile():
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == ("worse", 0.0)
    assert compare.verdict(parent, parent, "lower", 0.1) == ("no worse", 0.0)
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
    assert compare.verdict(noisy, parent, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([3, 3, 3], [3, 3, 3], "lower", None)[0] == "unchanged"
