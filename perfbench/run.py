#!/usr/bin/env python3
"""Closed-loop benchmark of the supertransport library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  One process, one client: the next op starts when
the previous one has finished and been checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it print every metric by name and
unit, with the machine and the seed.  Times are process CPU time (see
``tracer.CLOCK``); the run itself lasts ``--seconds`` of wall time.

With ``--trace 1`` rounds alternate between untraced and traced; per-layer
numbers come from the traced rounds and are given per round (one op, or one
cycle of the four subcommands for ``cli``), and the spans are saved under
``perfbench/out/``.
"""

import os

# Single-threaded BLAS for this process and its set-up probes; must be set
# before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import CLOCK  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # fresh processes timing set-up, besides this one


def _import_library():
    if not (SRC / "supertransport" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC}/supertransport")
    sys.path.insert(0, str(SRC))
    import supertransport

    if Path(supertransport.__file__).resolve().parent != SRC / "supertransport":
        sys.exit(f"perfbench: imported supertransport from {supertransport.__file__}")
    return supertransport


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup(name: str, seed: int, tmpdir: str):
    """Import, input generation, table build and one untimed round.

    Returns the workload object, the set-up time (process CPU time since
    the process started) and the time of the first table build.
    """
    _import_library()
    from supertransport.grassmann import grades_of

    import workloads

    wl = workloads.WORKLOADS[name]()
    t0 = CLOCK()
    grades_of(wl.table_n)
    tables_s = CLOCK() - t0
    wl.prepare(seed, tmpdir, str(ROOT))
    for i in range(wl.ops_per_round):
        wl.op(i)
    return wl, CLOCK(), tables_s


def _probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process (the import cost is only paid once per
    process, so repeated set-up needs repeated processes)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=os.getcwd())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["tables_s"]


class Run:
    """The closed loop: timed ops, untimed checks, optional tracing."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.op_s: list[float] = []
        self.round_s = {False: [], True: []}  # by traced
        self.window_s = 0.0  # CPU time of the untraced rounds, checks included
        self.completed = 0  # untraced ops that passed their check
        self.traced_rounds = 0
        self.attempted = 0
        self.failed = 0
        self.max_error = 0.0

    def _one(self, i: int, traced: bool) -> tuple[float, bool]:
        if traced:
            self.tracer.op = i
            self.tracer.install()
        t0 = CLOCK()
        try:
            result = self.wl.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        dt = CLOCK() - t0
        if traced:
            self.tracer.uninstall()
        self.attempted += 1
        ok = False
        if result is not None:
            try:
                ok, err = self.wl.check(i, result)
                self.max_error = max(self.max_error, err)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"op {i} failed its check", file=sys.stderr)
        return dt, ok

    def loop(self, seconds: float):
        """Run whole rounds until ``seconds`` of wall time have passed."""
        per = self.wl.ops_per_round
        end = time.perf_counter() + seconds
        rnd = 0
        while time.perf_counter() < end:
            traced = self.tracer is not None and rnd % 2 == 1
            t0 = CLOCK()
            done = [self._one(rnd * per + k, traced) for k in range(per)]
            times = [dt for dt, _ in done]
            if not traced:
                self.window_s += CLOCK() - t0
                self.completed += sum(ok for _, ok in done)
                self.op_s.extend(times)
            self.round_s[traced].append(sum(times))
            self.traced_rounds += traced
            rnd += 1


def _per_layer(run: Run, tables_s: float) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, and the per-function table."""
    from tracer import ASSEMBLERS, LAYERS, RING_KERNELS, layer_shares, summarize

    spans = run.tracer.arrays()
    table = summarize(run.tracer.names, spans, spans["op_id"] >= 0)
    finish = summarize(run.tracer.names, spans, spans["op_id"] < 0)
    rounds = max(run.traced_rounds, 1)
    m = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            names = [k for k in table if k == f"{layer}.{fn}" or k.startswith(f"{layer}.{fn}:")]
            m[f"{layer}.{fn}.calls"] = sum(table[k]["calls"] for k in names) / rounds
            m[f"{layer}.{fn}.s"] = sum(table[k]["s"] for k in names) / rounds
            m[f"{layer}.{fn}.self_s"] = sum(table[k]["self_s"] for k in names) / rounds
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in table.items()
                                   if k.startswith(layer + ".")) / rounds
    for sub in ("transport", "sweep", "flow"):
        m[f"cli.{sub}_s"] = table.get(f"cli.main:{sub}", {}).get("s", 0.0) / rounds
    m["cli.verify_s"] = finish.get("cli.main:verify", {}).get("s", 0.0)  # once per run
    flops = sum(table.get(k, {}).get("work", 0.0) for k in RING_KERNELS)
    ring_self = sum(table.get(k, {}).get("self_s", 0.0) for k in RING_KERNELS)
    m["grassmann.ring_flops"] = flops / rounds
    m["grassmann.ring_bytes"] = sum(table.get(k, {}).get("bytes", 0.0)
                                    for k in RING_KERNELS) / rounds
    m["grassmann.ring_gflops"] = flops / ring_self / 1e9 if ring_self else 0.0
    m["grassmann.tables_s"] = tables_s
    nodes = sum(table.get(k, {}).get("work", 0.0) for k in ASSEMBLERS)
    m["geometry.nodes"] = nodes / rounds
    m["geometry.s_per_node"] = (sum(table.get(k, {}).get("s", 0.0) for k in ASSEMBLERS)
                                / nodes if nodes else 0.0)
    steps = table.get("transport.solve_parallel", {}).get("work", 0.0)
    m["transport.march_steps"] = steps / rounds
    m["transport.s_per_step"] = (table.get("transport.solve_parallel", {}).get("s", 0.0)
                                 / steps if steps else 0.0)
    untraced = statistics.median(run.round_s[False])
    traced = statistics.median(run.round_s[True]) if run.round_s[True] else untraced
    m["trace.overhead_frac"] = traced / untraced - 1.0
    shares = layer_shares(run.tracer.names, spans, spans["op_id"] >= 0,
                          sum(run.round_s[True]))
    m.update({f"share.{k}": v for k, v in shares.items()})
    m["share.grassmann.mul_stacks.self"] = (table["grassmann.mul_stacks"]["self_s"]
                                            / sum(run.round_s[True]))
    return m, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["chart-roundtrip", "point-kernel", "sweep", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmpdir:
        wl, setup_main, tables_main = _setup(args.workload, args.seed, tmpdir)
        try:
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_main, "tables_s": tables_main}))
                return 0
            return _bench(args, wl, setup_main, tables_main)
        finally:
            wl.close()


def _bench(args, wl, setup_main: float, tables_main: float) -> int:
    probes = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median([setup_main] + [p[0] for p in probes])
    tables_s = statistics.median([tables_main] + [p[1] for p in probes])
    wl.make_refs()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = Run(wl, tracer)
    run.loop(args.seconds)
    # Peak over set-up, references and the ops; the end check comes after.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finish_ok = wl.finish() if not tracer else _traced_finish(wl, tracer)

    env = _machine()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    ops = run.op_s
    e2e = {
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.p90": (statistics.quantiles(ops, n=10, method="inclusive")[-1], "s"),
        "ops_per_s": (run.completed / run.window_s, "1/s"),
        "max_error": (run.max_error, "norm"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failed_frac = run.failed / max(run.attempted, 1)
    for key, val in env.items():
        print(f"# {key}: {val}")
    print(f"# samples: {len(ops)} timed ops, {len(ops) - int(0.9 * len(ops))} beyond p90")
    for name, (value, unit) in e2e.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(f"{'failed_frac':<28} {failed_frac:.6g} ratio")
    print(f"{'finish_check':<28} {'pass' if finish_ok else 'FAIL'}")

    record = {"env": env, "attempted": run.attempted, "failed": run.failed,
              "finish_ok": finish_ok, "op_s": ops,
              "end_to_end": {k: v[0] for k, v in e2e.items()},
              "failed_frac": failed_frac}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer:
        layer, table = _per_layer(run, tables_s)
        for name in sorted(layer):
            print(f"{name:<40} {layer[name]:.6g}")
        record["per_layer"] = layer
        record["functions"] = table
        tag = f"{args.workload}-seed{args.seed}"
        tracer.save(str(OUT / f"spans-{tag}.npz"))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": e2e[m["name"]][1]}
                   for m in bench["end_to_end"]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    correct = run.failed == 0 and finish_ok
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def _traced_finish(wl, tracer):
    tracer.op = -1
    tracer.install()
    try:
        return wl.finish()
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main())
