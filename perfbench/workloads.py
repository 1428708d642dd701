"""The four benchmark workloads: seeded inputs, one operation, its check.

Every workload drives the library only through its public entry points
(``sp``, ``reverse_transport``, ``adiabatic_sweep``, ``graded_expm`` and
``cli.main``) on objects generated here from the seed.  Generator count,
rank and step count are fixed per workload because they decide which layer
dominates; the seed only draws coefficient values inside fixed bands, so the
amount of work per operation does not depend on it.

``prepare`` builds the inputs and belongs to set-up; ``make_refs`` computes
the reference results, after set-up and before the timed window.  ``op`` is
the timed part.  ``check`` runs after the op, outside the timed interval, and
returns ``(passed, error)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from supertransport import (
    Connection,
    DifferentialForm,
    GradedMatrix,
    GrassmannElement,
    Parity,
    PolyMap,
    Superconnection,
    SuperPath,
    SuperPoint,
    adiabatic_sweep,
    graded_expm,
    reverse_transport,
    sp,
)
from supertransport import cli

# Problem sizes.  N and the rank are fixed by the workload's purpose; the
# step counts are sized so that one op takes 0.1-0.2 s of CPU time on a
# 2-core host, which leaves more than ten samples beyond p90 in one run.
CHART_N, CHART_STEPS = 4, 6
POINT_N, POINT_STEPS = 8, 2
SWEEP_STEPS = 12
SWEEP_LAMBDAS = [2.0 ** -k for k in range(7)]
SWEEP_REF_FACTOR = 4
CLI_STEPS = {"point_case": 200, "default": 18, "sweep": 12, "flow": 34}
POOL = 4  # distinct seeded problem instances per run; ops cycle through them

# Check tolerances: 20-100x the discretization error at the step counts above.
CHART_TOL = 1e-6
POINT_TOL = 1e-4
SWEEP_TOL = 1e-7
SWEEP_RATIO = (1.2, 1.7)
CLI_TOL = 1e-7


def _band(rng, base: float, rel: float = 0.01) -> float:
    """A value within +-rel of base: seeds vary coefficients, not sizes."""
    return base * (1.0 + rng.uniform(-rel, rel))


def _gen(n: int, i: int, c: float = 1.0) -> GrassmannElement:
    return GrassmannElement.generator(n, i) * c


def _mono(n: int, idx, c: float) -> GrassmannElement:
    return GrassmannElement.monomial(n, idx, c)


# -- problem families -----------------------------------------------------------


def chart_problem(rng, n: int = CHART_N):
    """Quillen data on R^{2|0}, rank 1|1: a connection, a 0-form, a 2-form.

    The path is a line whose odd data spreads over all n generators, and the
    endpoint time carries a soul.
    """
    p, rank = 2, (1, 1)

    def even(d0, d1):
        return np.diag([_band(rng, d0), _band(rng, d1)])

    def odd(u, l):
        return np.array([[0.0, _band(rng, u)], [_band(rng, l), 0.0]])

    conn = Connection.from_matrix_polys(p, rank, [
        PolyMap(p, {(0, 0): even(0.2, -0.1), (1, 0): even(0.1, 0.3)}),
        PolyMap(p, {(0, 0): even(-0.3, 0.2), (0, 1): even(0.15, -0.2)}),
    ])
    form0 = DifferentialForm(0, p, rank, Parity.ODD, {
        (): PolyMap(p, {(0, 0): odd(0.4, 0.5), (1, 0): odd(0.2, -0.1)})})
    form2 = DifferentialForm(2, p, rank, Parity.ODD, {
        (1, 2): PolyMap(p, {(0, 0): odd(-0.3, 0.25)})})
    sc = Superconnection(conn, (form0, form2))
    etas = [_gen(n, 1, _band(rng, 0.5)) + _gen(n, 3, _band(rng, 0.3)),
            _gen(n, 2, _band(rng, 0.4)) + _gen(n, 4, _band(rng, -0.2))]
    path = SuperPath.line(n, [_band(rng, 0.1), _band(rng, -0.2)],
                          [_band(rng, 0.8), _band(rng, 0.5)], etas, 1.0)
    t = GrassmannElement.scalar(n, 1.0) + _mono(n, (1, 2), _band(rng, 0.3)) \
        + _mono(n, (3, 4), _band(rng, -0.2))
    theta = _gen(n, 1, _band(rng, 0.7)) + _gen(n, 4, _band(rng, 0.3))
    return path, sc, SuperPoint(t, theta)


def point_problem(rng, n: int = POINT_N):
    """Transport over a point, rank 2|2: the form part is a constant odd
    matrix A and the transport is exp(-t A^2 + theta A) in closed form."""
    rank = (2, 2)
    A0 = np.zeros((4, 4))
    A0[:2, 2:] = [[_band(rng, 0.6), _band(rng, -0.3)], [_band(rng, 0.2), _band(rng, 0.5)]]
    A0[2:, :2] = [[_band(rng, 0.4), _band(rng, 0.1)], [_band(rng, -0.5), _band(rng, 0.3)]]
    sc = Superconnection(Connection.zero(0, 0, rank), (
        DifferentialForm.constant_form(0, 0, rank, Parity.ODD, {(): A0}),))
    path = SuperPath(0, 0, n, [], [], 1.0)
    t = GrassmannElement.scalar(n, 1.0)
    for k in range(1, n // 2 + 1):
        t = t + _mono(n, (2 * k - 1, 2 * k), _band(rng, 0.3 * (-1) ** k))
    theta = GrassmannElement.zero(n)
    for k in range(1, n + 1):
        theta = theta + _gen(n, k, _band(rng, 0.5 / k))
    return path, sc, SuperPoint(t, theta), A0


def point_closed_form(n: int, rank, A0: np.ndarray, end: SuperPoint) -> GradedMatrix:
    """exp(-t A^2 + theta A) for the constant odd matrix A0."""
    A = GradedMatrix.from_real(n, A0, rank, rank, Parity.ODD)
    A2 = GradedMatrix.from_real(n, A0 @ A0, rank, rank, Parity.EVEN)
    return graded_expm(A2.scale_left(-end.t) + A.scale_left(end.theta))


# -- workloads -------------------------------------------------------------------


class Workload:
    """One benchmark workload; a round is the smallest repeating op sequence."""

    ops_per_round = 1
    table_n = CHART_N  # generator count whose first table build is grassmann.tables_s

    def prepare(self, seed: int, tmpdir: str, root: str):
        raise NotImplementedError

    def make_refs(self):
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[bool, float]:
        raise NotImplementedError

    def finish(self) -> bool:
        """Untimed end-of-run check."""
        return True

    def close(self):
        pass


class ChartRoundtrip(Workload):
    """sp followed by reverse_transport; the composite must be the identity."""

    def prepare(self, seed, tmpdir, root):
        rng = np.random.default_rng(seed)
        self.inputs = [chart_problem(rng) for _ in range(POOL)]

    def op(self, i):
        path, sc, end = self.inputs[i % POOL]
        fwd = sp(path, sc, end, steps=CHART_STEPS)
        rev = reverse_transport(path, sc, end, steps=CHART_STEPS)
        return fwd, rev

    def check(self, i, result):
        fwd, rev = result
        ident = GradedMatrix.identity(CHART_N, (1, 1))
        err = rev.compose(fwd).matrix.distance(ident)
        return err < CHART_TOL, err


class PointKernel(Workload):
    """One sp over a point, against the closed-form exponential."""

    table_n = POINT_N

    def prepare(self, seed, tmpdir, root):
        rng = np.random.default_rng(seed)
        probs = [point_problem(rng) for _ in range(POOL)]
        self.inputs = [pr[:3] for pr in probs]
        self.forms = [pr[3] for pr in probs]

    def make_refs(self):
        self.refs = [point_closed_form(POINT_N, (2, 2), A0, end)
                     for (_, _, end), A0 in zip(self.inputs, self.forms)]

    def op(self, i):
        path, sc, end = self.inputs[i % POOL]
        return sp(path, sc, end, steps=POINT_STEPS)

    def check(self, i, result):
        err = result.matrix.distance(self.refs[i % POOL])
        return err < POINT_TOL, err


class Sweep(Workload):
    """adiabatic_sweep over lambda = 2^0 .. 2^-6 of the chart family."""

    def prepare(self, seed, tmpdir, root):
        rng = np.random.default_rng(seed)
        self.inputs = [chart_problem(rng) for _ in range(POOL)]

    def make_refs(self):
        # The lambda = 1 entry equals a direct sp on the same grid to the last
        # bit, so the reference is a direct sp at SWEEP_REF_FACTOR times the
        # steps: max_error is then the sweep's discretization error.
        self.refs = [sp(path, sc, end, steps=SWEEP_STEPS * SWEEP_REF_FACTOR)
                     for path, sc, end in self.inputs]

    def op(self, i):
        path, sc, end = self.inputs[i % POOL]
        return adiabatic_sweep(path, sc, SWEEP_LAMBDAS, end, steps=SWEEP_STEPS)

    def check(self, i, result):
        entries, _ = result
        rule = _sweep_rule([e.distance_to_limit for e in entries])
        err = entries[0].map.distance(self.refs[i % POOL])
        return rule and err < SWEEP_TOL, err


# (kind, subcommand, config file, --steps for the timed op)
CLI_OPS = [
    ("point_case", "transport", "point_case.json", CLI_STEPS["point_case"]),
    ("default", "transport", "default.json", CLI_STEPS["default"]),
    ("sweep", "sweep", "default.json", CLI_STEPS["sweep"]),
    ("flow", "flow", "flow_demo.json", CLI_STEPS["flow"]),
]
CLI_REF_FACTOR = 4  # references run the same subcommand at 4x the steps


class Cli(Workload):
    """In-process ``cli.main`` on the shipped configs.

    One op is one subcommand run; a round runs each of the four once, in an
    order the seed shuffles.  Outputs go to the run's temporary directory,
    which is also the working directory while the workload runs.
    """

    ops_per_round = len(CLI_OPS)
    table_n = 3  # flow_demo.json

    def prepare(self, seed, tmpdir, root):
        self.tmpdir = tmpdir
        self.configs = os.path.join(root, "configs")
        rng = np.random.default_rng(seed)
        self.order = [int(k) for k in rng.permutation(len(CLI_OPS))]
        self.cwd = os.getcwd()
        os.chdir(tmpdir)

    def make_refs(self):
        """Fine-step CLI outputs, and the point case in closed form."""
        self.refs = {}
        for kind, cmd, cfg, steps in CLI_OPS:
            rc, out = self._run(cmd, cfg, steps * CLI_REF_FACTOR, f"ref-{kind}.json")
            if rc != 0:
                raise RuntimeError(f"reference {kind} run exited with {rc}")
            self.refs[kind] = out
        with open(os.path.join(self.configs, "point_case.json")) as fh:
            cfg = json.load(fh)
        n = cfg["dims"]["N"]
        rank = (cfg["dims"]["rank_even"], cfg["dims"]["rank_odd"])
        A0 = np.array(cfg["superconnection"]["forms"][0]["components"][""][0]["matrix"])
        end = SuperPoint.from_json_dict(n, {
            "t": {"": float(cfg["endpoint"]["t"])}, "theta": cfg["endpoint"]["theta"]})
        self.closed_form = point_closed_form(n, rank, A0, end)

    def _run(self, cmd, cfg, steps, out_name):
        out = os.path.join(self.tmpdir, out_name)
        argv = [cmd, "--config", os.path.join(self.configs, cfg),
                "--steps", str(steps), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out

    def kind(self, i):
        return CLI_OPS[self.order[i % len(CLI_OPS)]]

    def op(self, i):
        kind, cmd, cfg, steps = self.kind(i)
        return self._run(cmd, cfg, steps, f"op-{kind}.json")

    def check(self, i, result):
        rc, out = result
        kind = self.kind(i)[0]
        if rc != 0:
            return False, 0.0
        with open(out) as fh:
            got = json.load(fh)
        with open(self.refs[kind]) as fh:
            ref = json.load(fh)
        if kind == "point_case":
            err = _map(got).distance(self.closed_form)
            return err < CLI_TOL, err
        if kind == "default":
            return _map(got).distance(_map(ref)) < CLI_TOL, 0.0
        if kind == "sweep":
            rule = _sweep_rule([e["distance_to_limit"] for e in got["entries"]])
            dev = max(_map(e).distance(_map(r))
                      for e, r in zip(got["entries"], ref["entries"]))
            return rule and dev < CLI_TOL, 0.0
        dev = max(abs(a.get(k, 0.0) - b.get(k, 0.0))
                  for a, b in zip(got["value"], ref["value"]) for k in a.keys() | b.keys())
        return len(got["value"]) == len(ref["value"]) and dev < CLI_TOL, 0.0

    def finish(self):
        """One verify run of the built-in suite; all 17 checks must pass."""
        out = os.path.join(self.tmpdir, "verify.json")
        argv = ["verify", "--config", os.path.join(self.configs, "default.json"), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        with open(out) as fh:
            report = json.load(fh)
        return rc == 0 and report["passed"] == report["total"] == 17

    def close(self):
        os.chdir(self.cwd)


def _sweep_rule(d: list[float]) -> bool:
    """The verify rule for sweeps: distances to the limit fall as lambda
    halves, each successive ratio within SWEEP_RATIO."""
    lo, hi = SWEEP_RATIO
    return all(lo <= a / b <= hi for a, b in zip(d, d[1:]))


def _map(doc) -> GradedMatrix:
    return GradedMatrix.from_json_dict(doc["map"]["matrix"])


WORKLOADS = {
    "chart-roundtrip": ChartRoundtrip,
    "point-kernel": PointKernel,
    "sweep": Sweep,
    "cli": Cli,
}
