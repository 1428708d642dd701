"""Config-driven command line: transport, flow, verify, and sweep runs.

The configuration is a JSON document (schema version 1) describing the
chart dimensions, the transported data, a path builder, and an endpoint;
see configs/ in the repository for examples.  Results are written as JSON
(transport maps, sweep tables, verify reports) or CSV (trajectories).

Exit codes: 0 success, 1 configuration error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, SuperTransportError
from .geometry import (
    Connection,
    Curve,
    DifferentialForm,
    GrassmannPoly,
    SuperPath,
    SuperVectorField,
    Superconnection,
)
from .flows import flow_even, flow_odd
from .grassmann import GrassmannElement, Parity, PolyMap
from .superfield import Grid, SuperPoint
from .transport import DEFAULT_STEPS, adiabatic_sweep, sp
from .verify import run_suite

try:
    import jsonschema
except ImportError:  # pragma: no cover - mirror always provides it
    jsonschema = None


_GRASSMANN_VALUE = {
    "oneOf": [
        {"type": "number"},
        {"type": "object", "patternProperties": {r"^(\d+(\|\d+)*)?$": {"type": "number"}},
         "additionalProperties": False},
    ]
}

_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}

_POLY_TERM = {
    "type": "object",
    "properties": {
        "exponents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "matrix": _MATRIX,
        "value": {"type": "number"},
        "odd_indices": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["exponents"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "dims": {
            "type": "object",
            "properties": {
                "p": {"type": "integer", "minimum": 0},
                "q": {"type": "integer", "minimum": 0},
                "N": {"type": "integer", "minimum": 1, "maximum": 12},
                "rank_even": {"type": "integer", "minimum": 0},
                "rank_odd": {"type": "integer", "minimum": 0},
            },
            "required": ["p", "N", "rank_even", "rank_odd"],
        },
        "superconnection": {
            "type": "object",
            "properties": {
                "connection": {"type": "array", "items": {"type": "array", "items": _POLY_TERM}},
                "forms": {"type": "array", "items": {
                    "type": "object",
                    "properties": {
                        "degree": {"type": "integer", "minimum": 0},
                        "components": {"type": "object",
                                       "additionalProperties": {"type": "array", "items": _POLY_TERM}},
                    },
                    "required": ["degree", "components"],
                }},
            },
        },
        "path": {"type": "object", "properties": {"kind": {"type": "string"}},
                 "required": ["kind"]},
        "endpoint": {"type": "object",
                     "properties": {"t": _GRASSMANN_VALUE, "theta": _GRASSMANN_VALUE}},
        "solver": {"type": "object", "properties": {"steps": {"type": "integer", "minimum": 2}}},
        "sweep": {"type": "object",
                  "properties": {"lambdas": {"type": "array",
                                             "items": {"type": "number", "exclusiveMinimum": 0}}}},
        "flow": {"type": "object"},
        "verify": {"type": "object",
                   "properties": {"seed": {"type": "integer"},
                                  "steps": {"type": "integer", "minimum": 10}}},
    },
    "required": ["schema", "dims"],
}


class _ConfigSection(dict):
    """A JSON object read from the configuration: a missing key is a
    configuration error, unlike a KeyError raised inside the library."""

    def __missing__(self, key):
        raise ConfigError(f"configuration lacks the key {key!r}")


@dataclass
class Dims:
    p: int
    q: int
    n: int
    rank: tuple[int, int]


@functools.cache
def _config_validator():
    """Validator for CONFIG_SCHEMA; the schema itself is checked once."""
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def _validate(config: dict):
    if jsonschema is None:
        if config.get("schema") != 1:
            raise ConfigError("config must declare schema version 1")
        return
    # the error jsonschema.validate would raise, from the prebuilt validator
    exc = jsonschema.exceptions.best_match(_config_validator().iter_errors(config))
    if exc is not None:
        raise ConfigError(f"config schema violation at {list(exc.absolute_path)}: {exc.message}")


def _dims(config: dict) -> Dims:
    d = config["dims"]
    return Dims(int(d["p"]), int(d.get("q", 0)), int(d["N"]),
                (int(d["rank_even"]), int(d["rank_odd"])))


def _grassmann(value, n: int) -> GrassmannElement:
    if isinstance(value, (int, float)):
        return GrassmannElement.scalar(n, float(value))
    return GrassmannElement.from_json_dict(n, value)


def _poly_terms(terms: list, p: int, q: int, rank, require_shape: bool = True) -> GrassmannPoly:
    by_odd: dict[tuple[int, ...], dict] = {}
    r = rank[0] + rank[1]
    for term in terms:
        expo = tuple(int(e) for e in term["exponents"])
        if len(expo) != p:
            raise ConfigError(f"exponent vector {expo} does not match p={p}")
        odd = tuple(sorted(int(i) - 1 for i in term.get("odd_indices", [])))
        if "matrix" in term:
            coeff = np.asarray(term["matrix"], dtype=float)
            if require_shape and coeff.shape != (r, r):
                raise ConfigError(f"matrix shape {coeff.shape} does not match rank {r}")
        else:
            coeff = np.full((r, r), 0.0)
            coeff[:] = float(term.get("value", 0.0)) * np.eye(r)
        slot = by_odd.setdefault(odd, {})
        slot[expo] = slot.get(expo, np.zeros((r, r))) + coeff
    gp_terms = {odd: PolyMap(p, slot) for odd, slot in by_odd.items()}
    if not gp_terms:
        gp_terms = {(): PolyMap.zero(p, (r, r))}
    return GrassmannPoly(p, q, gp_terms, rank=rank)


def _superconnection(config: dict, dims: Dims) -> Superconnection:
    sc_cfg = config.get("superconnection", {})
    conn_cfg = sc_cfg.get("connection")
    if conn_cfg is None:
        conn = Connection.zero(dims.p, dims.q, dims.rank)
    else:
        if len(conn_cfg) != dims.p + dims.q:
            raise ConfigError(f"connection needs {dims.p + dims.q} coefficient lists")
        coeffs = [_poly_terms(terms, dims.p, dims.q, dims.rank) for terms in conn_cfg]
        conn = Connection(dims.p, dims.q, dims.rank, coeffs)
    forms = []
    for form_cfg in sc_cfg.get("forms", []):
        degree = int(form_cfg["degree"])
        comps = {}
        for key, terms in form_cfg["components"].items():
            idx = tuple(int(s) for s in key.split("|")) if key else ()
            poly = _poly_terms(terms, dims.p, 0, dims.rank)
            comps[idx] = poly.terms.get((), PolyMap.zero(dims.p, (sum(dims.rank),) * 2))
        endo_parity = Parity((1 + degree) % 2)
        forms.append(DifferentialForm(degree, dims.p, dims.rank, endo_parity, comps))
    return Superconnection(conn, tuple(forms))


def _path(config: dict, dims: Dims) -> SuperPath:
    cfg = config.get("path")
    if cfg is None:
        if dims.p + dims.q:
            raise ConfigError("a path section is required for charts with coordinates")
        return SuperPath(0, 0, dims.n, [], [], float(config.get("t_end", 1.0)))
    kind = cfg["kind"]
    n = dims.n
    t_end = float(cfg.get("t_end", 1.0))
    ncoords = dims.p + dims.q

    def gvals(key, default=0.0):
        vals = cfg.get(key, [default] * ncoords)
        if len(vals) != ncoords:
            raise ConfigError(f"path field {key!r} needs {ncoords} entries")
        return [_grassmann(v, n) for v in vals]

    if kind == "line":
        return SuperPath.line(n, gvals("start"), gvals("velocity"), gvals("eta"),
                              t_end, p=dims.p, q=dims.q)
    if kind == "polynomial":
        even = [[_grassmann(c, n) for c in coeffs] for coeffs in cfg["even"]]
        theta = [[_grassmann(c, n) for c in coeffs] for coeffs in cfg["theta"]]
        if len(even) != ncoords or len(theta) != ncoords:
            raise ConfigError(f"polynomial path needs {ncoords} coefficient lists")
        return SuperPath.from_polynomials(n, even, theta, t_end, p=dims.p, q=dims.q)
    if kind == "circle":
        if dims.q:
            raise ConfigError("circle paths target ordinary charts")
        return SuperPath.circle(n, [float(c) for c in cfg["center"]],
                                float(cfg["radius"]), float(cfg["omega"]),
                                gvals("eta"), t_end,
                                plane=tuple(cfg.get("plane", (0, 1))),
                                phase=float(cfg.get("phase", 0.0)))
    if kind == "sampled":
        grid = Grid(float(cfg["t0"]), float(cfg["h"]), int(cfg["nodes"]))
        a_tables = cfg["even"]
        b_tables = cfg["theta"]
        if len(a_tables) != ncoords or len(b_tables) != ncoords:
            raise ConfigError(f"sampled path needs {ncoords} value tables")
        a = [Curve.from_samples(n, grid, [_grassmann(v, n) for v in tab]) for tab in a_tables]
        b = [Curve.from_samples(n, grid, [_grassmann(v, n) for v in tab]) for tab in b_tables]
        return SuperPath(dims.p, dims.q, n, a, b, t_end)
    raise ConfigError(f"unknown path kind {kind!r}")


def _endpoint(config: dict, dims: Dims) -> SuperPoint:
    cfg = config.get("endpoint")
    if cfg is None:
        return SuperPoint.at(dims.n, float(config.get("t_end", 1.0)))
    return SuperPoint(_grassmann(cfg.get("t", 1.0), dims.n),
                      _grassmann(cfg.get("theta", 0.0), dims.n))


def _vector_field(cfg: dict, dims: Dims) -> SuperVectorField:
    parity = Parity.ODD if cfg.get("parity") == "odd" else Parity.EVEN
    coeff_cfg = cfg["coefficients"]
    if len(coeff_cfg) != dims.p + dims.q:
        raise ConfigError(f"vector field needs {dims.p + dims.q} coefficients")
    coeffs = []
    for terms in coeff_cfg:
        by_odd: dict[tuple[int, ...], dict] = {}
        for term in terms:
            expo = tuple(int(e) for e in term["exponents"])
            odd = tuple(sorted(int(i) - 1 for i in term.get("odd_indices", [])))
            by_odd.setdefault(odd, {})[expo] = float(term.get("value", 0.0))
        gp_terms = {odd: PolyMap(dims.p, slot) for odd, slot in by_odd.items()}
        if not gp_terms:
            gp_terms = {(): PolyMap.zero(dims.p)}
        coeffs.append(GrassmannPoly(dims.p, dims.q, gp_terms))
    return SuperVectorField(dims.p, dims.q, parity, coeffs)


# -- subcommands -----------------------------------------------------------------


def _cmd_transport(config: dict, args) -> dict:
    dims = _dims(config)
    sc = _superconnection(config, dims)
    path = _path(config, dims)
    end = _endpoint(config, dims)
    steps = args.steps or int(config.get("solver", {}).get("steps", DEFAULT_STEPS))
    if dims.q:
        data = sc.connection if not sc.forms else None
        if data is None:
            raise ConfigError("form parts require an ordinary chart (q = 0)")
        tm = sp(path, data, end, steps=steps)
    else:
        tm = sp(path, sc, end, steps=steps)
    return {"result": "transport", "map": tm.to_json_dict()}


def _cmd_sweep(config: dict, args) -> dict:
    dims = _dims(config)
    sc = _superconnection(config, dims)
    path = _path(config, dims)
    end = _endpoint(config, dims)
    steps = args.steps or int(config.get("solver", {}).get("steps", DEFAULT_STEPS))
    lambdas = config.get("sweep", {}).get("lambdas", [2.0 ** -k for k in range(7)])
    entries, limit = adiabatic_sweep(path, sc, lambdas, end, steps=steps)
    return {
        "result": "sweep",
        "limit": limit.to_json_dict(),
        "entries": [
            {"lambda": e.lam, "map": e.map.to_json_dict(), "distance_to_limit": e.distance_to_limit}
            for e in entries
        ],
    }


def _cmd_flow(config: dict, args) -> dict:
    cfg = config.get("flow")
    if cfg is None:
        raise ConfigError("flow subcommand needs a flow section")
    dims = _dims(config)
    field = _vector_field(cfg, dims)
    init = [_grassmann(v, dims.n) for v in cfg["init"]]
    steps = args.steps or int(cfg.get("steps", DEFAULT_STEPS))
    if field.parity is Parity.ODD:
        end_cfg = cfg.get("endpoint", {})
        end = SuperPoint(_grassmann(end_cfg.get("t", cfg.get("t_end", 1.0)), dims.n),
                         _grassmann(end_cfg.get("theta", 0.0), dims.n))
        values = flow_odd(field, init, end, steps=steps)
        return {"result": "flow_odd",
                "endpoint": end.to_json_dict(),
                "value": [v.to_json_dict() for v in values]}
    traj = flow_even(field, init, float(cfg.get("t_end", 1.0)), steps)
    out = args.out or "trajectory.csv"
    traj.to_csv(out)
    return {"result": "flow_even", "csv": out, "nodes": len(traj.times)}


def _cmd_verify(config: dict, args) -> dict:
    cfg = config.get("verify", {})
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    steps = args.steps or int(cfg.get("steps", 150))
    results = run_suite(seed=seed, steps=steps, n=_dims(config).n)
    for r in results:
        print(r.line())
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed (seed={seed})")
    report = {"result": "verify", "seed": seed, "passed": passed,
              "total": len(results), "checks": [r.as_dict() for r in results]}
    if args.tolerance_report:
        worst = sorted(results, key=lambda r: r.tolerance and r.residual / r.tolerance,
                       reverse=True)
        for r in worst[:5]:
            margin = r.residual / r.tolerance if r.tolerance else float("inf")
            print(f"  margin {margin:9.2e} of tolerance: {r.name}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supertransport",
        description="parallel transport along superpaths: transport, flow, verify, sweep")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("transport", "solve for the transport map of the configured problem"),
        ("flow", "integrate the configured vector field"),
        ("verify", "run the built-in identity suite"),
        ("sweep", "adiabatic sweep of the form part"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=(name != "verify"),
                       help="path to the JSON configuration")
        p.add_argument("--out", help="output file (JSON; CSV for even flows)")
        p.add_argument("--steps", type=int, help="override the solver step count")
        p.add_argument("--seed", type=int, help="seed for randomized checks (verify)")
        p.add_argument("--tolerance-report", action="store_true",
                       help="print residual/tolerance margins (verify)")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh, object_hook=_ConfigSection)
        else:
            config = {"schema": 1, "dims": {"p": 2, "q": 0, "N": 2,
                                            "rank_even": 1, "rank_odd": 1}}
        _validate(config)
        handler = {"transport": _cmd_transport, "flow": _cmd_flow,
                   "verify": _cmd_verify, "sweep": _cmd_sweep}[args.command]
        result = handler(config, args)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 1
    except SuperTransportError as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "message": str(exc)}) + "\n")
        return 2

    if args.command == "verify" and result["passed"] < result["total"]:
        exit_code = 2
    else:
        exit_code = 0
    if args.out and result.get("result") != "flow_even":
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    elif args.command != "verify":
        json.dump(result, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
