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
import math
import sys
from dataclasses import dataclass

import jsonschema
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
from .grassmann import MAX_GENERATORS, GrassmannElement, Parity, PolyMap, parse_key
from .superfield import Grid, SuperPoint
from .transport import DEFAULT_STEPS, adiabatic_sweep, sp
from .verify import run_suite


# a number, or an object of numbers under monomial keys (the key patterns
# apply to objects only)
_GRASSMANN_VALUE = {"type": ["number", "object"], "additionalProperties": False,
                    "patternProperties": {r"^(\d+(\|\d+)*)?$": {"type": "number"}}}

_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_GRASSMANN_LIST = {"type": "array", "items": _GRASSMANN_VALUE}
_GRASSMANN_TABLES = {"type": "array", "items": _GRASSMANN_LIST}
_ENDPOINT = {"type": "object", "properties": {"t": _GRASSMANN_VALUE, "theta": _GRASSMANN_VALUE}}

_POLY_TERM = {
    "type": "object",
    "properties": {
        "exponents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "matrix": {"type": "array", "items": _NUMBERS},
        "value": _NUMBER,
        "odd_indices": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["exponents"],
    "additionalProperties": False,
}
_POLY_LISTS = {"type": "array", "items": {"type": "array", "items": _POLY_TERM}}

CONFIG_SCHEMA = {
    # draft 7 has every keyword used here, and its metaschema is checked
    # several times faster than the 2020-12 default, once per CLI run
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "dims": {
            "type": "object",
            "properties": {
                "p": {"type": "integer", "minimum": 0},
                "q": {"type": "integer", "minimum": 0},
                "N": {"type": "integer", "minimum": 1, "maximum": MAX_GENERATORS},
                "rank_even": {"type": "integer", "minimum": 0},
                "rank_odd": {"type": "integer", "minimum": 0},
            },
            "required": ["p", "N", "rank_even", "rank_odd"],
        },
        "superconnection": {
            "type": "object",
            "properties": {
                "connection": _POLY_LISTS,
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
        # every field any path kind reads
        "path": {"type": "object", "required": ["kind"], "properties": {
            "kind": {"type": "string"}, "t_end": _NUMBER, "radius": _NUMBER, "omega": _NUMBER,
            "phase": _NUMBER, "t0": _NUMBER, "h": _NUMBER, "nodes": {"type": "integer"},
            "start": _GRASSMANN_LIST, "velocity": _GRASSMANN_LIST, "eta": _GRASSMANN_LIST,
            "even": _GRASSMANN_TABLES, "theta": _GRASSMANN_TABLES, "center": _NUMBERS,
            "plane": {"type": "array", "items": {"type": "integer"}}}},
        "endpoint": _ENDPOINT,
        "t_end": _NUMBER,
        "solver": {"type": "object", "properties": {"steps": {"type": "integer", "minimum": 2}}},
        "sweep": {"type": "object",
                  "properties": {"lambdas": {"type": "array",
                                             "items": {"type": "number", "exclusiveMinimum": 0}}}},
        "flow": {"type": "object", "properties": {
            "parity": {"type": "string"}, "coefficients": _POLY_LISTS, "init": _GRASSMANN_LIST,
            "endpoint": _ENDPOINT, "t_end": _NUMBER, "steps": {"type": "integer", "minimum": 2}}},
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

    @property
    def parities(self) -> list[Parity]:
        """The coordinates' parities: p even ones, then q odd ones."""
        return [Parity.EVEN] * self.p + [Parity.ODD] * self.q


@functools.cache
def _config_validator():
    """Validator for CONFIG_SCHEMA; the schema itself is checked once."""
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def _validate(config: dict):
    # the error jsonschema.validate would raise, from the prebuilt validator
    exc = jsonschema.exceptions.best_match(_config_validator().iter_errors(config))
    if exc is not None:
        raise ConfigError(f"config schema violation at {list(exc.absolute_path)}: {exc.message}")


def _dims(config: dict) -> Dims:
    d = config["dims"]
    return Dims(int(d["p"]), int(d.get("q", 0)), int(d["N"]),
                (int(d["rank_even"]), int(d["rank_odd"])))


def _key_indices(key: str, top: int) -> tuple[int, ...]:
    """:func:`parse_key` of a Grassmann-monomial or form-component key; a
    malformed key is a configuration error."""
    try:
        return parse_key(key, top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _grassmann(value, n: int, parity: Parity) -> GrassmannElement:
    """A configured Grassmann number for a slot of the given parity; a value
    of the other parity is a configuration error."""
    if isinstance(value, (int, float)):
        elem = GrassmannElement.scalar(n, float(value))
    else:
        elem = GrassmannElement.from_terms(n, {_key_indices(k, n): float(c)
                                               for k, c in value.items()})
    if not (elem.is_odd() if parity is Parity.ODD else elem.is_even()):
        raise ConfigError(f"value {value!r} has the wrong parity: its slot takes "
                          f"{parity.name.lower()} values")
    return elem


def _superpoint(t, theta, n: int) -> SuperPoint:
    return SuperPoint(_grassmann(t, n, Parity.EVEN), _grassmann(theta, n, Parity.ODD))


def _poly_terms(terms: list, p: int, q: int, rank=None) -> GrassmannPoly:
    """A list of polynomial terms as a function on R^{p|q}: scalar-valued
    ("value") without a rank, (r x r)-valued ("matrix", or "value" times the
    identity) with one.  Equal monomials add up."""
    shape = () if rank is None else (sum(rank),) * 2
    by_odd: dict[tuple[int, ...], dict] = {}
    for term in terms:
        expo = tuple(int(e) for e in term["exponents"])
        if len(expo) != p:
            raise ConfigError(f"exponent vector {expo} does not match p={p}")
        odd = tuple(int(i) - 1 for i in term.get("odd_indices", []))
        if list(odd) != sorted(set(odd)) or any(j >= q for j in odd):
            raise ConfigError(f"odd indices {[j + 1 for j in odd]} must increase strictly "
                              f"within 1..{q}")
        if "matrix" in term:
            if len({len(row) for row in term["matrix"]}) > 1:
                raise ConfigError("matrix rows differ in length")
            coeff = np.asarray(term["matrix"], dtype=float)
        else:
            coeff = float(term.get("value", 0.0)) * (np.eye(shape[0]) if shape else 1.0)
        if np.shape(coeff) != shape:
            raise ConfigError(f"matrix shape {coeff.shape} does not match {shape}")
        slot = by_odd.setdefault(odd, {})
        slot[expo] = slot.get(expo, 0.0) + coeff
    gp_terms = {odd: PolyMap(p, slot) for odd, slot in by_odd.items()}
    return GrassmannPoly(p, q, gp_terms or {(): PolyMap.zero(p, shape)}, rank=rank)


def _connection_data(config: dict, dims: Dims) -> Connection | Superconnection:
    """The configured connection, paired with its form part as a
    Superconnection over an ordinary chart; a chart with odd coordinates
    (q > 0) takes the bare Connection and no forms."""
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
            idx = _key_indices(key, dims.p)
            poly = _poly_terms(terms, dims.p, 0, dims.rank)
            comps[idx] = poly.terms.get((), PolyMap.zero(dims.p, (sum(dims.rank),) * 2))
        endo_parity = Parity((1 + degree) % 2)
        forms.append(DifferentialForm(degree, dims.p, dims.rank, endo_parity, comps))
    if not dims.q:
        return Superconnection(conn, tuple(forms))
    if forms:
        raise ConfigError("form parts require an ordinary chart (q = 0)")
    return conn


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

    # x_i(t) + theta*y_i(t): x_i has the parity of coordinate i, y_i the other
    x_par = dims.parities
    y_par = [par.flipped() for par in x_par]

    def gvals(key, parities):
        vals = cfg.get(key, [0.0] * ncoords)
        if len(vals) != ncoords:
            raise ConfigError(f"path field {key!r} needs {ncoords} entries")
        return [_grassmann(v, n, par) for v, par in zip(vals, parities)]

    if kind == "line":
        return SuperPath.line(n, gvals("start", x_par), gvals("velocity", x_par),
                              gvals("eta", y_par), t_end, p=dims.p, q=dims.q)
    if kind == "polynomial":
        if len(cfg["even"]) != ncoords or len(cfg["theta"]) != ncoords:
            raise ConfigError(f"polynomial path needs {ncoords} coefficient lists")
        even = [[_grassmann(c, n, par) for c in coeffs] for coeffs, par in zip(cfg["even"], x_par)]
        theta = [[_grassmann(c, n, par) for c in coeffs]
                 for coeffs, par in zip(cfg["theta"], y_par)]
        return SuperPath.from_polynomials(n, even, theta, t_end, p=dims.p, q=dims.q)
    if kind == "circle":
        if dims.q:
            raise ConfigError("circle paths target ordinary charts")
        plane = tuple(cfg.get("plane", (0, 1)))
        if len(plane) != 2 or plane[0] == plane[1] or not set(plane) <= set(range(dims.p)):
            raise ConfigError(f"circle plane {plane} is not 2 distinct axes in 0..{dims.p - 1}")
        return SuperPath.circle(n, [float(c) for c in cfg["center"]],
                                float(cfg["radius"]), float(cfg["omega"]),
                                gvals("eta", y_par), t_end, plane=plane,
                                phase=float(cfg.get("phase", 0.0)))
    if kind == "sampled":
        grid = Grid(float(cfg["t0"]), float(cfg["h"]), int(cfg["nodes"]))
        a_tables = cfg["even"]
        b_tables = cfg["theta"]
        if len(a_tables) != ncoords or len(b_tables) != ncoords:
            raise ConfigError(f"sampled path needs {ncoords} value tables")
        if any(len(tab) != grid.nodes for tab in a_tables + b_tables):
            raise ConfigError(f"sampled path tables need {grid.nodes} values each")
        a = [Curve.from_samples(n, grid, [_grassmann(v, n, par) for v in tab])
             for tab, par in zip(a_tables, x_par)]
        b = [Curve.from_samples(n, grid, [_grassmann(v, n, par) for v in tab])
             for tab, par in zip(b_tables, y_par)]
        return SuperPath(dims.p, dims.q, n, a, b, t_end)
    raise ConfigError(f"unknown path kind {kind!r}")


def _endpoint(config: dict, dims: Dims) -> SuperPoint:
    cfg = config.get("endpoint")
    if cfg is None:
        return SuperPoint.at(dims.n, float(config.get("t_end", 1.0)))
    return _superpoint(cfg.get("t", 1.0), cfg.get("theta", 0.0), dims.n)


def _vector_field(cfg: dict, dims: Dims) -> SuperVectorField:
    parity = Parity.ODD if cfg.get("parity") == "odd" else Parity.EVEN
    coeff_cfg = cfg["coefficients"]
    if len(coeff_cfg) != dims.p + dims.q:
        raise ConfigError(f"vector field needs {dims.p + dims.q} coefficients")
    coeffs = [_poly_terms(terms, dims.p, dims.q) for terms in coeff_cfg]
    return SuperVectorField(dims.p, dims.q, parity, coeffs)


# -- subcommands -----------------------------------------------------------------


def _cmd_transport(config: dict, args) -> dict:
    dims = _dims(config)
    data = _connection_data(config, dims)
    path = _path(config, dims)
    end = _endpoint(config, dims)
    steps = args.steps or int(config.get("solver", {}).get("steps", DEFAULT_STEPS))
    tm = sp(path, data, end, steps=steps)
    return {"result": "transport", "map": tm.to_json_dict()}


def _cmd_sweep(config: dict, args) -> dict:
    dims = _dims(config)
    if dims.q:
        raise ConfigError("sweep scales a form part, so it needs an ordinary chart (q = 0)")
    sc = _connection_data(config, dims)
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
    if len(cfg["init"]) != dims.p + dims.q:
        raise ConfigError(f"flow init needs {dims.p + dims.q} coordinates")
    init = [_grassmann(v, dims.n, par) for v, par in zip(cfg["init"], dims.parities)]
    steps = args.steps or int(cfg.get("steps", DEFAULT_STEPS))
    if field.parity is Parity.ODD:
        end_cfg = cfg.get("endpoint", {})
        end = _superpoint(end_cfg.get("t", cfg.get("t_end", 1.0)), end_cfg.get("theta", 0.0),
                          dims.n)
        values = flow_odd(field, init, end, steps=steps)
        return {"result": "flow_odd",
                "endpoint": end.to_json_dict(),
                "value": [v.to_json_dict() for v in values]}
    traj = flow_even(field, init, float(cfg.get("t_end", 1.0)), steps)
    out = args.out or "trajectory.csv"
    traj.to_csv(out)
    return {"result": "flow_even", "csv": out, "nodes": len(traj.times)}


def _margin(r) -> float:
    """Residual over tolerance; inf for a failure at tolerance 0 or a NaN residual."""
    if r.tolerance and not math.isnan(r.residual):
        return r.residual / r.tolerance
    return 0.0 if r.passed else math.inf


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
        for r in sorted(results, key=_margin, reverse=True)[:5]:
            print(f"  margin {_margin(r):9.2e} of tolerance: {r.name}")
    return report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parse_args fills a fresh namespace."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
