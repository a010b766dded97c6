"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import matmi  # noqa: E402
from matmi import cli, fem, forward, mesh, phantoms  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import Check  # noqa: E402

WORKLOADS = ("invert-incrime-128", "invert-finemesh-3bump-128", "frechet-3bump-128")


def test_self_time_subtracts_children():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    spans = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("b", 5.0, 9.0, 0, "op"),
        Span("c", 6.0, 7.0, 2, "op"),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 2.0, 6.0, 0, "op"),
        Span("b", 4.0, 8.0, 0, "op"),
        Span("c", 9.0, 12.0, 0, "op"),   # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _globals_snapshot():
    return {
        name: dict(vars(module)) for name, module in sys.modules.items()
        if module is not None and (name == "matmi" or name.startswith("matmi."))
    }


def test_tracer_patches_callers_and_restores_every_global():
    before = _globals_snapshot()
    tracer = Tracer()
    with tracer.active("op"):
        # from-imported names and bare-name calls are patched where looked up
        assert cli.build_mesh is mesh.build_mesh
        assert cli.build_mesh is not before["matmi.cli"]["build_mesh"]
        assert fem.mass_matrix is not before["matmi.fem"]["mass_matrix"]
        grid = mesh.build_mesh(8, 8)
        sigma = phantoms.make_phantom(phantoms.single_bump_spec(), grid)
        forward.forward_map(sigma)
        fem.l2_norm(sigma)
    after = _globals_snapshot()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key} not restored"

    row = tracer.per_op()["op"]
    assert row["mesh.build_mesh.calls"] == 1
    assert row["fem.solve_neumann.calls"] == 1
    assert row["fem.mass_matrix.calls"] == 1   # from inside l2_norm
    assert row["fem.cg_iters"] > 0
    names = {span.name for span in tracer.spans}
    assert "forward.compute_field" in names


def test_tracer_restores_globals_after_an_exception():
    before = _globals_snapshot()
    with pytest.raises(ValueError):
        with Tracer().active("op"):
            matmi.fem.assemble_weighted_stiffness(
                mesh.build_mesh(4, 4), fem.constant_field(mesh.build_mesh(4, 4), -1.0))
    after = _globals_snapshot()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value


class FlakyWorkload:
    """Operation 2 fails its gate, operation 3 raises, the run check fails."""

    def __init__(self):
        self.calls = 0

    def prepare(self, state):
        pass

    def call(self, state):
        self.calls += 1
        time.sleep(0.01)
        if self.calls == 3:
            raise RuntimeError("operation 3 raises")
        return self.calls

    def check(self, state, value):
        return Check(value != 2, "gate", rel_error=1.0)

    def run_check(self, state):
        return Check(False, "run gate")


def test_failed_operations_are_counted_and_never_timed():
    workload = FlakyWorkload()
    run = bench_run.measure(SimpleNamespace(seconds=0.2), workload, {}, None)
    assert workload.calls >= 4
    assert run.attempted == workload.calls + 1
    assert run.failed == 3
    assert len(run.samples) == workload.calls - 3   # less warm-up and two failures
    assert len(run.rel_errors) == workload.calls - 2


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--n", "16"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_passes_its_gate(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = benchmark["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_any_integer_seed_sets_up(workload, tmp_path):
    # the legacy RandomState takes integer seeds only below 2**32
    states = [workloads.WORKLOADS[workload].make_state(seed, str(tmp_path), 8)
              for seed in (0, -1, 2**32 + 5, 2**70)]
    if workload.startswith("frechet"):
        firsts = [state["directions"][0].values for state in states]
        assert all(not np.array_equal(firsts[0], other) for other in firsts[1:])


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
