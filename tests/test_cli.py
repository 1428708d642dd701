"""The config-driven command line."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supertransport.cli as cli
from supertransport.cli import main
from supertransport.grassmann import GradedMatrix, GrassmannElement, Parity, graded_expm
from supertransport.transport import TransportMap

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(args):
    return main(list(args))


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

    def test_numerical_error_exit_2(self, tmp_path):
        cfg = json.loads((CONFIGS / "default.json").read_text())
        cfg["endpoint"] = {"t": 5.0, "theta": 0.0}  # beyond the path window
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["transport", "--config", str(bad)]) == 2


class TestFlow:
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


class TestSweep:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli(["sweep", "--config", str(CONFIGS / "default.json"),
                        "--steps", "100", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        dists = [e["distance_to_limit"] for e in data["entries"]]
        assert all(a > b for a, b in zip(dists, dists[1:]))


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "supertransport.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
