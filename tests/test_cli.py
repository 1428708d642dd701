"""The config-driven command line."""

import contextlib
import functools
import io
import json
import math
import operator
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import supertransport.cli as cli
from supertransport.cli import main
from supertransport.grassmann import GradedMatrix, GrassmannElement, Parity, graded_expm
from supertransport.transport import TransportMap
from supertransport.verify import CheckResult

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(args):
    return main(list(args))


def _form2_key(key):
    """A default.json edit that renames the 2-form component "1|2"."""
    def edit(cfg):
        comps = cfg["superconnection"]["forms"][1]["components"]
        comps[key] = comps.pop("1|2")
    return edit


def _circle(plane):
    """A default.json edit that sets a circle path in the given plane."""
    return lambda cfg: cfg.update(path={"kind": "circle", "center": [0.0, 0.0], "radius": 0.5,
                                        "omega": 1.0, "eta": [0.0, 0.0], "plane": plane})


# R^{1|1}, rank 1|1: an even coefficient for dx, an off-diagonal one for dz
ODD_CHART = {
    "schema": 1,
    "dims": {"p": 1, "q": 1, "N": 3, "rank_even": 1, "rank_odd": 1},
    "superconnection": {"connection": [
        [{"exponents": [0], "matrix": [[0.2, 0.0], [0.0, -0.1]]}],
        [{"exponents": [0], "matrix": [[0.0, 0.4], [0.5, 0.0]]}],
    ]},
    "path": {"kind": "line", "start": [0.1, {"2": 0.3}], "velocity": [0.8, {"3": 0.2}],
             "eta": [{"1": 0.5}, 0.6], "t_end": 1.0},
    "endpoint": {"t": 1.0, "theta": {"1": 0.7}},
}


class TestTransport:
    def test_point_case_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        code = run_cli(["transport", "--config", str(CONFIGS / "point_case.json"),
                        "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        tm = TransportMap.from_json_dict(data["map"])
        n = 2
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        closed = graded_expm(
            GradedMatrix.from_real(n, -(A0 @ A0), (1, 1), (1, 1), Parity.EVEN)
            + GradedMatrix.from_real(n, A0, (1, 1), (1, 1), Parity.ODD).scale_left(
                GrassmannElement.generator(n, 1)))
        assert tm.matrix.distance(closed) < 1e-8

    def test_empty_superconnection_is_identity(self, tmp_path):
        cfg = {
            "schema": 1,
            "dims": {"p": 0, "q": 0, "N": 2, "rank_even": 1, "rank_odd": 1},
            "endpoint": {"t": 1.0, "theta": 0.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "map.json"
        assert run_cli(["transport", "--config", str(path), "--out", str(out)]) == 0
        tm = TransportMap.from_json_dict(json.loads(out.read_text())["map"])
        assert tm.matrix.distance(GradedMatrix.identity(2, (1, 1))) == 0.0

    def test_chart_with_odd_coordinates_matches_library(self, tmp_path):
        # the CLI wrapped every connection in a Superconnection, which takes
        # ordinary charts only, so any q > 0 exited 2
        from supertransport.geometry import Connection, GrassmannPoly, SuperPath
        from supertransport.grassmann import PolyMap
        from supertransport.superfield import SuperPoint
        from supertransport.transport import sp
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ODD_CHART))
        out = tmp_path / "map.json"
        assert run_cli(["transport", "--config", str(path), "--steps", "10", "--out", str(out)]) == 0
        got = TransportMap.from_json_dict(json.loads(out.read_text())["map"])
        n, rank, G = 3, (1, 1), GrassmannElement
        conn = Connection(1, 1, rank, [
            GrassmannPoly(1, 1, {(): PolyMap.constant(1, np.array(K))}, rank=rank)
            for K in ([[0.2, 0.0], [0.0, -0.1]], [[0.0, 0.4], [0.5, 0.0]])])
        line = SuperPath.line(n, [G.scalar(n, 0.1), G.monomial(n, (2,), 0.3)],
                              [G.scalar(n, 0.8), G.monomial(n, (3,), 0.2)],
                              [G.monomial(n, (1,), 0.5), G.scalar(n, 0.6)], 1.0, p=1, q=1)
        end = SuperPoint(G.one(n), G.monomial(n, (1,), 0.7))
        want = sp(line, conn, end, steps=10)
        assert np.array_equal(got.matrix.comps, want.matrix.comps)

    def test_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "map.json"
        run_cli(["transport", "--config", str(CONFIGS / "default.json"),
                 "--steps", "100", "--out", str(out)])
        data = json.loads(out.read_text())
        tm = TransportMap.from_json_dict(data["map"])
        again = json.loads(json.dumps(tm.to_json_dict()))
        tm2 = TransportMap.from_json_dict(again)
        assert np.array_equal(tm.matrix.comps, tm2.matrix.comps)


class TestErrors:
    def test_schema_violation_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 2, "dims": {}}))
        assert run_cli(["transport", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("cfg", [
        {"schema": 2, "dims": {}},
        {"schema": 1, "dims": {"p": "two", "N": 2, "rank_even": 1, "rank_odd": 1}},
        {"dims": {"p": 2, "N": 2, "rank_even": 1, "rank_odd": 1}},
    ])
    def test_schema_violation_message(self, tmp_path, capsys, cfg):
        import jsonschema
        with pytest.raises(jsonschema.ValidationError) as raised:
            jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        want = f"config schema violation at {list(raised.value.absolute_path)}: {raised.value.message}"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["transport", "--config", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config", "message": want}

    def test_schema_checked_once(self, tmp_path, monkeypatch, capsys):
        import jsonschema
        cls = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
        check_schema = cls.check_schema
        calls = []

        def counted(schema, *args, **kwargs):
            calls.append(schema)
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", counted)
        cli._config_validator.cache_clear()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 2, "dims": {}}))
        assert run_cli(["transport", "--config", str(bad)]) == 1
        assert run_cli(["transport", "--config", str(CONFIGS / "point_case.json"),
                        "--steps", "8", "--out", str(tmp_path / "map.json")]) == 0
        assert calls == [cli.CONFIG_SCHEMA]

    def test_missing_file_exit_1(self):
        assert run_cli(["transport", "--config", "/no/such/file.json"]) == 1

    def test_missing_config_key_exit_1(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "default.json").read_text())
        cfg["path"] = {"kind": "circle", "radius": 0.5, "omega": 1.0, "eta": [0.0, 0.0]}
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["transport", "--config", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and "center" in err["message"]

    def test_library_key_error_is_not_a_config_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("raised inside the library")

        monkeypatch.setattr(cli, "sp", broken)
        with pytest.raises(KeyError, match="inside the library"):
            run_cli(["transport", "--config", str(CONFIGS / "default.json")])

    @pytest.mark.parametrize("command, config, edit", [
        ("flow", "flow_demo.json",  # exponent vector longer than p = 1
         lambda cfg: cfg["flow"]["coefficients"][1][0].update(exponents=[0, 0])),
        ("flow", "flow_demo.json",  # odd index beyond q = 1
         lambda cfg: cfg["flow"]["coefficients"][0][0].update(odd_indices=[2])),
        ("transport", "default.json",  # odd index on an ordinary chart
         lambda cfg: cfg["superconnection"]["connection"][0][0].update(odd_indices=[1])),
        ("flow", "flow_demo.json",  # repeated odd index
         lambda cfg: cfg["flow"]["coefficients"][0][0].update(odd_indices=[1, 1])),
    ], ids=["exponent-length", "odd-index-beyond-q", "odd-index-with-q-0", "repeated-odd-index"])
    def test_bad_polynomial_terms_exit_1(self, tmp_path, capsys, command, config, edit):
        cfg = json.loads((CONFIGS / config).read_text())
        edit(cfg)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(bad)]) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["path"].update(eta=[{"7": 0.5}, {"2": 0.4}]), "increasing indices"),
        (lambda cfg: cfg["endpoint"].update(theta={"1|1": 0.7}), "increasing indices"),
        (_form2_key("1|x"), "increasing indices"),
        (_form2_key("1|3"), "increasing indices"),
        # e2 e1 = -e1 e2: read as +0.3 e1 e2 before keys were checked
        (lambda cfg: cfg["endpoint"].update(t={"": 1.0, "2|1": 0.3}), "increasing indices"),
        (lambda cfg: cfg["endpoint"].update(t={"": 1.0, "1|2": 0.3, "2|1": 0.5}),
         "increasing indices"),
        (_circle([0, 5]), "circle plane"),
        (_circle([0, 0]), "circle plane"),
        # these ended in tracebacks before the path fields were typed and
        # the table lengths checked
        (_circle(5), "['path', 'plane']"),
        (lambda cfg: _circle([0, 1])(cfg) or cfg["path"].update(radius="x"),
         "['path', 'radius']"),
        (lambda cfg: cfg["path"].update(t_end="x"), "['path', 't_end']"),
        (lambda cfg: cfg["path"]["eta"][1].update({"2": None}), "['path', 'eta', 1, '2']"),
        (lambda cfg: cfg["path"].update(start=[0.1, []]), "['path', 'start', 1]"),
        (lambda cfg: cfg["superconnection"]["connection"][0][0]["matrix"].__setitem__(0, []),
         "rows differ"),
        (lambda cfg: cfg.update(path={"kind": "sampled", "t0": 0.0, "h": 0.1, "nodes": 12,
                                      "even": [[0.0] * 12, [0.0] * 11],
                                      "theta": [[0.0] * 12] * 2}), "12 values each"),
    ], ids=["generator-beyond-N", "repeated-generator", "form-key-not-an-index",
            "form-key-beyond-p", "decreasing-generators", "monomial-twice",
            "circle-plane-beyond-p", "circle-plane-repeated", "circle-plane-not-a-list",
            "circle-radius-not-a-number", "path-t_end-not-a-number", "eta-coefficient-null",
            "line-start-list", "ragged-matrix", "short-sample-table"])
    def test_malformed_keys_and_plane_exit_1(self, tmp_path, capsys, edit, message):
        cfg = json.loads((CONFIGS / "default.json").read_text())
        edit(cfg)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["transport", "--config", str(bad), "--steps", "8"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and message in err["message"]

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["flow"]["init"].__setitem__(0, "x"),
        lambda cfg: cfg["flow"].update(steps="x"),
        lambda cfg: cfg["flow"]["coefficients"][0][0].update(value=None),
    ], ids=["init", "steps", "term-value"])
    def test_bad_flow_fields_exit_1(self, tmp_path, capsys, edit):
        # each ended in a ValueError, TypeError or AttributeError traceback
        # before the flow section was typed in the schema
        cfg = json.loads((CONFIGS / "flow_demo.json").read_text())
        edit(cfg)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["flow", "--config", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and "config schema violation at ['flow'" in err["message"]

    @pytest.mark.parametrize("init", [[0.5], [0.5, {"1": 0.5}, {"2": 0.5}]], ids=["short", "long"])
    def test_flow_init_of_the_wrong_length_exit_1(self, tmp_path, capsys, init):
        # it ended as {"error": "numerical"} with exit 2, from the flow itself
        cfg = json.loads((CONFIGS / "flow_demo.json").read_text())
        cfg["flow"]["init"] = init
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["flow", "--config", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config", "message": "flow init needs 2 coordinates"}

    @pytest.mark.parametrize("command, config, edit", [
        ("flow", "flow_demo.json", lambda cfg: cfg["flow"].update(init=[0.5, 0.5])),
        ("transport", "default.json", lambda cfg: cfg["path"].update(eta=[0.5, 0.5])),
        ("transport", "default.json", lambda cfg: cfg["endpoint"].update(theta=0.5)),
        # an odd coordinate's eta is even
        ("transport", ODD_CHART, lambda cfg: cfg["path"].update(eta=[{"1": 0.5}, {"2": 0.6}])),
    ], ids=["flow-init", "path-eta", "endpoint-theta", "odd-coordinate-eta"])
    def test_values_of_the_wrong_parity_exit_1(self, tmp_path, capsys, command, config, edit):
        # each exited 2 as a numerical error, from the library's parity checks
        cfg = json.loads(json.dumps(config) if isinstance(config, dict)
                         else (CONFIGS / config).read_text())
        edit(cfg)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(bad), "--steps", "8"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and "wrong parity" in err["message"]

    def test_library_parity_error_exit_2(self, tmp_path, capsys):
        # a 0-form term with an even block is found by the library, not the CLI
        cfg = json.loads((CONFIGS / "default.json").read_text())
        cfg["superconnection"]["forms"][0]["components"][""][0]["matrix"] = [[0.3, 0.4], [0.5, 0.0]]
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["transport", "--config", str(bad), "--steps", "8"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "numerical"

    @pytest.mark.parametrize("command", ["transport", "sweep", "verify"])
    def test_theta_needs_room_above_n_exit_1(self, tmp_path, capsys, monkeypatch, command):
        # pullbacks along a path with coordinates, and so verify, adjoin theta
        # as generator N + 1; the tables keep that slot above the schema's
        # N <= 12, so N = 12 runs and N = 13 is rejected before any work
        class Reached(Exception):
            pass

        reached = []

        def record(*args, **kwargs):
            reached.append(kwargs["n"] if command == "verify" else args[0].n)
            raise Reached
        for name in ("sp", "adiabatic_sweep", "run_suite"):
            monkeypatch.setattr(cli, name, record)
        cfg = json.loads((CONFIGS / "default.json").read_text())
        cfg["dims"]["N"] = 12
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(Reached):
            run_cli([command, "--config", str(path), "--steps", "12"])
        assert reached == [12]
        cfg["dims"]["N"] = 13
        path.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(path), "--steps", "12"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config", "message": "config schema violation at "
                       "['dims', 'N']: 13 is greater than the maximum of 12"}
        assert reached == [12]

    def test_schema_states_the_generator_limit(self):
        from supertransport.grassmann import MAX_GENERATORS
        assert cli.CONFIG_SCHEMA["properties"]["dims"]["properties"]["N"]["maximum"] == MAX_GENERATORS

    @pytest.mark.parametrize("command", ["transport", "sweep"])
    def test_form_parts_need_an_ordinary_chart_exit_1(self, tmp_path, capsys, command):
        # a form part needs an ordinary chart, and sweep scales the form part
        cfg = json.loads(json.dumps(ODD_CHART))
        if command == "transport":
            cfg["superconnection"]["forms"] = [{"degree": 0, "components": {"": [
                {"exponents": [0], "matrix": [[0.0, 0.4], [0.5, 0.0]]}]}}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(path), "--steps", "8"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and "ordinary chart (q = 0)" in err["message"]

    def test_point_case_runs_at_twelve_generators(self, tmp_path):
        # over a point nothing is adjoined, so N = 12 is in range
        cfg = json.loads((CONFIGS / "point_case.json").read_text())
        cfg["dims"]["N"] = 12
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert run_cli(["transport", "--config", str(path), "--steps", "4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["map"]["matrix"]["n"] == 12

    def test_numerical_error_exit_2(self, tmp_path):
        cfg = json.loads((CONFIGS / "default.json").read_text())
        cfg["endpoint"] = {"t": 5.0, "theta": 0.0}  # beyond the path window
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["transport", "--config", str(bad)]) == 2

    def test_overflowed_map_exit_2(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "point_case.json").read_text())
        cfg["superconnection"]["forms"][0]["components"][""][0]["matrix"] = [[0.0, 300.0], [300.0, 0.0]]
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["transport", "--config", str(bad), "--steps", "40"]) == 2
        assert caught == []
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "numerical", "message": "transport map is not finite"}]


class TestFlow:
    def test_parity_checks_do_not_grow_with_the_steps(self, monkeypatch, capsys):
        # coordinates are checked where they enter, not at every RK stage
        from supertransport import geometry
        present, calls = geometry.parities_present, []
        monkeypatch.setattr(geometry, "parities_present",
                            lambda *args: calls.append(1) or present(*args))
        counts = []
        for steps in (17, 34, 68):
            calls.clear()
            assert run_cli(["flow", "--config", str(CONFIGS / "flow_demo.json"),
                            "--steps", str(steps)]) == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1] == counts[2]

    def test_odd_flow_value(self, tmp_path, capsys):
        assert run_cli(["flow", "--config", str(CONFIGS / "flow_demo.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "flow_odd"
        # the group law: (1 + 0.5 + theta2 * 0.5 theta1, 0.5 theta1 + theta2)
        x = GrassmannElement.from_json_dict(3, out["value"][0])
        assert abs(x.body - 1.5) < 1e-14
        assert abs(x.terms().get((1, 2), 0.0) + 0.5) < 1e-14

    def test_even_flow_csv(self, tmp_path):
        cfg = {
            "schema": 1,
            "dims": {"p": 1, "q": 0, "N": 2, "rank_even": 1, "rank_odd": 0},
            "flow": {
                "parity": "even",
                "coefficients": [[{"exponents": [1], "value": 1.0}]],
                "init": [1.0],
                "t_end": 1.0,
                "steps": 512,
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "traj.csv"
        assert run_cli(["flow", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 514
        final = float(lines[-1].split(",")[1])
        assert abs(final - math.e) < 1e-8


class TestVerify:
    def test_verify_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--config", str(CONFIGS / "default.json"),
                        "--steps", "60", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] == report["total"] >= 10
        text = capsys.readouterr().out
        assert "PASS" in text and "seed=0" in text

    def test_verify_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(["verify", "--config", str(CONFIGS / "default.json"),
                     "--steps", "60", "--out", str(out)])
            outs.append(json.loads(out.read_text()))
        assert outs[0] == outs[1]

    def test_tolerance_report_ranks_exact_failures_first(self, monkeypatch, capsys):
        results = [CheckResult("loose", 1e-13, 1e-12, 0), CheckResult("exact_pass", 0.0, 0.0, 0),
                   CheckResult("group_associativity", 2e-17, 0.0, 0),
                   CheckResult("tight", 9e-13, 1e-12, 0), CheckResult("nan", math.nan, 1e-12, 0)]
        monkeypatch.setattr(cli, "run_suite", lambda **kwargs: results)
        assert run_cli(["verify", "--tolerance-report"]) == 2
        report = capsys.readouterr().out.splitlines()[-5:]
        assert [line.split()[-1] for line in report] == [
            "group_associativity", "nan", "tight", "loose", "exact_pass"]
        assert [line.split()[1] for line in report[:3]] == ["inf", "inf", "9.00e-01"]


class TestParser:
    def test_consecutive_calls_share_no_argument_state(self, monkeypatch, capsys):
        # the parser is built once; each call must read as a fresh one
        results = [CheckResult("exact_pass", 0.0, 0.0, 0), CheckResult("loose", 1e-13, 1e-12, 0)]
        monkeypatch.setattr(cli, "run_suite", lambda **kwargs: results)
        calls = [["verify", "--tolerance-report", "--seed", "3"],
                 ["transport", "--config", str(CONFIGS / "point_case.json"), "--steps", "8"],
                 ["verify"]]

        def outcome(argv):
            code = run_cli(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        cli._parser.cache_clear()
        assert [outcome(argv) for argv in calls] == fresh
        assert cli._parser.cache_info().misses == 1
        assert "margin" in fresh[0][1] and "margin" not in fresh[2][1]
        assert "(seed=3)" in fresh[0][1] and "(seed=0)" in fresh[2][1]


class TestSweep:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli(["sweep", "--config", str(CONFIGS / "default.json"),
                        "--steps", "100", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        dists = [e["distance_to_limit"] for e in data["entries"]]
        assert all(a > b for a, b in zip(dists, dists[1:]))


SHIPPED_RUNS = [("default.json", "transport"), ("default.json", "sweep"),
                ("point_case.json", "transport"), ("flow_demo.json", "flow")]
NON_CANONICAL_KEYS = ["2|1", "1|1", "0", "01", "1|", "x", "9"]


def _positions(node, path=()):
    """Key paths of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


@st.composite
def mutated_runs(draw):
    """A shipped run whose config has one value replaced, or one object key
    renamed to a non-canonical Grassmann key."""
    name, command = draw(st.sampled_from(SHIPPED_RUNS))
    cfg = json.loads((CONFIGS / name).read_text())
    path = draw(st.sampled_from(list(_positions(cfg))))
    parent = functools.reduce(operator.getitem, path[:-1], cfg)
    key = path[-1]
    if isinstance(parent, dict) and draw(st.booleans()):
        parent[draw(st.sampled_from([k for k in NON_CANONICAL_KEYS if k not in parent]))] = \
            parent.pop(key)
        return command, cfg
    # wrong types, NaN, an empty list, out-of-range indices and sizes
    choices = ["x", None, True, {}, math.nan, [], -1, 0, 99]
    if path == ("dims", "N"):  # never grow the algebra
        choices = [c for c in choices if not (type(c) is int and c > parent[key])]
    if isinstance(parent, list) and len(parent) > 1:
        choices.append(parent[1 if key == 0 else 0])  # a repeated entry
    parent[key] = draw(st.sampled_from(choices))
    return command, cfg


@settings(max_examples=200, deadline=None)
@given(mutated_runs())
def test_mutated_configs_exit_with_a_code(run):
    command, cfg = run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--steps", "2",
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code:
        report = json.loads(err.getvalue().strip().splitlines()[-1])
        assert report["error"] == ("config" if code == 1 else "numerical")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "supertransport.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
