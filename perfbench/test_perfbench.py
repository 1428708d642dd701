"""Tests of the benchmark itself: tracer, failure accounting, counts.

    python3 -m pytest perfbench
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import supertransport  # noqa: E402
from supertransport import geometry, grassmann, transport  # noqa: E402
from supertransport.superfield import Grid  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def _chart():
    return workloads.chart_problem(np.random.default_rng(7))


def test_tracer_rebinds_every_module_binding():
    orig = grassmann.graded_mul_stacks
    tr = Tracer()
    bound = tr.bound_names
    for name in ("supertransport.grassmann.graded_mul_stacks",
                 "supertransport.transport.graded_mul_stacks",
                 "supertransport.geometry.connection_coefficient",
                 "supertransport.transport.connection_coefficient",
                 "supertransport.sp"):
        assert name in bound
    path, sc, end = _chart()
    grid = Grid.over(0.0, 1.0, 5)
    tr.op = 0
    tr.install()
    try:
        assert transport.graded_mul_stacks is grassmann.graded_mul_stacks is not orig
        # superconnection_coefficient is not wrapped; it reaches the assembler
        # through geometry's own binding.
        geometry.superconnection_coefficient(path, sc, grid)
    finally:
        tr.uninstall()
    assert transport.graded_mul_stacks is orig and grassmann.graded_mul_stacks is orig
    spans = tr.arrays()
    table = summarize(tr.names, spans, spans["op_id"] == 0)
    assert table["geometry.connection_coefficient"]["calls"] == 1
    assert table["geometry.lift_pullback"]["calls"] == 2
    assert table["geometry.connection_coefficient"]["work"] == 5  # grid nodes
    # ring calls made inside the assemblers are their children
    cc = tr.names.index("geometry.connection_coefficient")
    kids = spans["parent"][spans["name_id"] == tr.names.index("grassmann.scale_stack")]
    assert np.any(spans["name_id"][kids] == cc)


def test_self_time_subtracts_direct_children_only():
    spans = {
        "name_id": np.array([0, 1, 1, 2], dtype=np.int32),
        "parent": np.array([-1, 0, 0, 1], dtype=np.int32),
        "op_id": np.zeros(4, dtype=np.int32),
        "start": np.array([0.0, 1.0, 5.0, 1.5]),
        "end": np.array([10.0, 4.0, 6.0, 2.5]),
        "work": np.zeros(4),
        "bytes": np.zeros(4),
    }
    table = summarize(["a", "b", "c"], spans, np.ones(4, dtype=bool))
    assert table["a"]["s"] == 10.0 and table["a"]["self_s"] == 6.0
    assert table["b"]["calls"] == 2 and table["b"]["s"] == 4.0 and table["b"]["self_s"] == 3.0
    assert table["c"]["self_s"] == 1.0


def test_wrong_reference_is_counted_as_failed():
    wl = workloads.ChartRoundtrip()
    wl.prepare(3, "", str(HERE.parent))
    good = run.Run(wl)
    good.loop(0.2)
    assert good.attempted > 0 and good.failed == 0 and good.completed == good.attempted

    class WrongReference(workloads.ChartRoundtrip):
        def check(self, i, result):
            fwd, rev = result
            # compares the round trip against twice the identity
            twice = supertransport.GradedMatrix.identity(workloads.CHART_N, (1, 1))
            err = rev.compose(fwd).matrix.distance(twice + twice)
            return err < workloads.CHART_TOL, err

    bad_wl = WrongReference()
    bad_wl.inputs = wl.inputs
    bad = run.Run(bad_wl)
    bad.loop(0.2)
    assert bad.attempted > 0 and bad.failed == bad.attempted and bad.completed == 0


def test_raising_op_is_failed_not_retried():
    class Raising(workloads.Workload):
        calls = 0

        def op(self, i):
            Raising.calls += 1
            raise supertransport.DomainError("deliberate")

    r = run.Run(Raising())
    r.loop(0.05)
    assert r.failed == r.attempted == Raising.calls > 0


def test_per_layer_counts_repeat_across_seeds():
    def counts(seed):
        wl = workloads.ChartRoundtrip()
        wl.prepare(seed, "", str(HERE.parent))
        r = run.Run(wl, Tracer())
        r.loop(0.5)
        assert r.traced_rounds >= 1
        layer, _ = run._per_layer(r, 0.0)
        return {k: v for k, v in layer.items()
                if k.endswith(".calls") or k in ("grassmann.ring_flops", "grassmann.ring_bytes",
                                                 "geometry.nodes", "transport.march_steps")}

    a, b = counts(1), counts(2)
    assert a == b
    assert a["transport.march_steps"] == 2 * workloads.CHART_STEPS
    assert a["grassmann.ring_flops"] > 0 and a["geometry.nodes"] > 0


def test_cli_workload_writes_only_to_its_directory(tmp_path):
    before = set(os.listdir(HERE.parent))
    cwd = os.getcwd()
    wl = workloads.Cli()
    wl.prepare(1, str(tmp_path), str(HERE.parent))
    try:
        assert os.getcwd() == str(tmp_path)
        rc, out = wl.op(0)
        assert rc == 0 and Path(out).parent == tmp_path
    finally:
        wl.close()
    assert os.getcwd() == cwd
    assert set(os.listdir(HERE.parent)) == before


def test_refuses_to_run_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
