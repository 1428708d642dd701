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


_REQUIRED = object()


def _invalid(path, value, what: str) -> ConfigError:
    """The error for a value that its reader does not take: a config value at
    its key path (a list), or a command-line option (its name)."""
    where = path if isinstance(path, str) else f"config value at {path}"
    return ConfigError(f"{where}: {value!r} {what}")


def _number(value, path) -> float:
    """A JSON number that a float holds; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(path, value, "is not a number")
    try:
        return float(value)
    except OverflowError:
        raise _invalid(path, value, "is too large for a float") from None


def _integer(value, path, low: int | None = None, high: int | None = None) -> int:
    """A JSON integer in low..high; a float of integral value, such as 2.0, counts."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(path, value, "is not an integer")
    if low is not None and value < low:
        raise _invalid(path, value, f"is less than the minimum of {low}")
    if high is not None and value > high:
        raise _invalid(path, value, f"is greater than the maximum of {high}")
    return value


def _entries(value, path) -> list[tuple]:
    """A JSON array as (entry, key path) pairs."""
    if not isinstance(value, list):
        raise _invalid(path, value, "is not an array")
    return [(v, path + [i]) for i, v in enumerate(value)]


def _section(value, path) -> _ConfigSection:
    """A JSON object, which takes its key path here for its readers' errors."""
    if not isinstance(value, _ConfigSection):
        raise _invalid(path, value, "is not an object")
    value.path = path
    return value


class _ConfigSection(dict):
    """A JSON object read from the configuration.  Its readers check each
    value where the CLI reads it: a missing key, or a value of the wrong type
    or range, is a configuration error, unlike a KeyError raised inside the
    library.  Keys that no reader asks for are ignored."""

    path: list = []

    def __missing__(self, key):
        raise ConfigError(f"configuration lacks the key {key!r}")

    def at(self, key, default=_REQUIRED) -> tuple:
        """The value under key (the default when it is absent) and its key path."""
        return (self[key] if default is _REQUIRED else self.get(key, default)), self.path + [key]

    def integer(self, key, default=_REQUIRED, low: int | None = None,
                high: int | None = None) -> int:
        return _integer(*self.at(key, default), low, high)

    def number(self, key, default=_REQUIRED) -> float:
        return _number(*self.at(key, default))

    def entries(self, key, default=_REQUIRED) -> list[tuple]:
        return _entries(*self.at(key, default))

    def section(self, key, required: bool = False) -> _ConfigSection:
        """The object under key; an optional one that is absent reads as empty."""
        return _section(*self.at(key, _REQUIRED if required else _ConfigSection()))


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


def _dims(config: _ConfigSection) -> Dims:
    d = config.section("dims", required=True)
    return Dims(d.integer("p", low=0), d.integer("q", 0, low=0),
                d.integer("N", low=1, high=MAX_GENERATORS),
                (d.integer("rank_even", low=0), d.integer("rank_odd", low=0)))


def _key_indices(key: str, top: int) -> tuple[int, ...]:
    """:func:`parse_key` of a Grassmann-monomial or form-component key; a
    malformed key is a configuration error."""
    try:
        return parse_key(key, top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _grassmann(value, path, n: int, parity: Parity) -> GrassmannElement:
    """A configured Grassmann number, a number or an object of numbers under
    monomial keys, for a slot of the given parity; a value of the other
    parity is a configuration error."""
    if isinstance(value, _ConfigSection):
        elem = GrassmannElement.from_terms(n, {_key_indices(k, n): _number(c, path + [k])
                                               for k, c in value.items()})
    else:
        elem = GrassmannElement.scalar(n, _number(value, path))
    if not (elem.is_odd() if parity is Parity.ODD else elem.is_even()):
        raise ConfigError(f"value {value!r} has the wrong parity: its slot takes "
                          f"{parity.name.lower()} values")
    return elem


def _superpoint(t: tuple, theta: tuple, n: int) -> SuperPoint:
    """The point at the (value, key path) pairs t and theta."""
    return SuperPoint(_grassmann(*t, n, Parity.EVEN), _grassmann(*theta, n, Parity.ODD))


_TERM_KEYS = frozenset({"exponents", "matrix", "value", "odd_indices"})


def _poly_terms(terms, path, p: int, q: int, rank=None) -> GrassmannPoly:
    """A list of polynomial terms as a function on R^{p|q}: scalar-valued
    ("value") without a rank, (r x r)-valued ("matrix", or "value" times the
    identity) with one.  Equal monomials add up."""
    shape = () if rank is None else (sum(rank),) * 2
    by_odd: dict[tuple[int, ...], dict] = {}
    for term in (_section(*entry) for entry in _entries(terms, path)):
        extra = sorted(set(term) - _TERM_KEYS)
        if extra:
            raise ConfigError(f"config value at {term.path} has unknown keys {extra}")
        expo = tuple(_integer(*e, low=0) for e in term.entries("exponents"))
        if len(expo) != p:
            raise ConfigError(f"exponent vector {expo} does not match p={p}")
        odd = tuple(_integer(*i, low=1) - 1 for i in term.entries("odd_indices", []))
        if list(odd) != sorted(set(odd)) or any(j >= q for j in odd):
            raise ConfigError(f"odd indices {[j + 1 for j in odd]} must increase strictly "
                              f"within 1..{q}")
        if "matrix" in term:
            rows = [[_number(*c) for c in _entries(*row)] for row in term.entries("matrix")]
            if len({len(row) for row in rows}) > 1:
                raise ConfigError("matrix rows differ in length")
            coeff = np.asarray(rows, dtype=float)
        else:
            coeff = term.number("value", 0.0) * (np.eye(shape[0]) if shape else 1.0)
        if np.shape(coeff) != shape:
            raise ConfigError(f"matrix shape {coeff.shape} does not match {shape}")
        slot = by_odd.setdefault(odd, {})
        slot[expo] = slot.get(expo, 0.0) + coeff
    gp_terms = {odd: PolyMap(p, slot) for odd, slot in by_odd.items()}
    return GrassmannPoly(p, q, gp_terms or {(): PolyMap.zero(p, shape)}, rank=rank)


def _connection_data(config: _ConfigSection, dims: Dims) -> Connection | Superconnection:
    """The configured connection, paired with its form part as a
    Superconnection over an ordinary chart; a chart with odd coordinates
    (q > 0) takes the bare Connection and no forms."""
    sc_cfg = config.section("superconnection")
    if "connection" not in sc_cfg:
        conn = Connection.zero(dims.p, dims.q, dims.rank)
    else:
        lists = sc_cfg.entries("connection")
        if len(lists) != dims.p + dims.q:
            raise ConfigError(f"connection needs {dims.p + dims.q} coefficient lists")
        coeffs = [_poly_terms(*terms, dims.p, dims.q, dims.rank) for terms in lists]
        conn = Connection(dims.p, dims.q, dims.rank, coeffs)
    forms = []
    for form_cfg in (_section(*entry) for entry in sc_cfg.entries("forms", [])):
        degree = form_cfg.integer("degree", low=0)
        components = form_cfg.section("components", required=True)
        comps = {}
        for key in components:
            idx = _key_indices(key, dims.p)
            poly = _poly_terms(*components.at(key), dims.p, 0, dims.rank)
            comps[idx] = poly.terms.get((), PolyMap.zero(dims.p, (sum(dims.rank),) * 2))
        endo_parity = Parity((1 + degree) % 2)
        forms.append(DifferentialForm(degree, dims.p, dims.rank, endo_parity, comps))
    if not dims.q:
        return Superconnection(conn, tuple(forms))
    if forms:
        raise ConfigError("form parts require an ordinary chart (q = 0)")
    return conn


def _path(config: _ConfigSection, dims: Dims) -> SuperPath:
    if "path" not in config:
        if dims.p + dims.q:
            raise ConfigError("a path section is required for charts with coordinates")
        return SuperPath(0, 0, dims.n, [], [], config.number("t_end", 1.0))
    cfg = config.section("path")
    kind = cfg["kind"]
    n = dims.n
    t_end = cfg.number("t_end", 1.0)
    ncoords = dims.p + dims.q

    # x_i(t) + theta*y_i(t): x_i has the parity of coordinate i, y_i the other
    x_par = dims.parities
    y_par = [par.flipped() for par in x_par]

    def gvals(key, parities):
        vals = cfg.entries(key, [0.0] * ncoords)
        if len(vals) != ncoords:
            raise ConfigError(f"path field {key!r} needs {ncoords} entries")
        return [_grassmann(*v, n, par) for v, par in zip(vals, parities)]

    def gtables(key, parities):
        tables = cfg.entries(key)
        if len(tables) != ncoords:
            raise ConfigError(f"{kind} path field {key!r} needs {ncoords} lists")
        return [[_grassmann(*v, n, par) for v in _entries(*tab)]
                for tab, par in zip(tables, parities)]

    if kind == "line":
        return SuperPath.line(n, gvals("start", x_par), gvals("velocity", x_par),
                              gvals("eta", y_par), t_end, p=dims.p, q=dims.q)
    if kind == "polynomial":
        return SuperPath.from_polynomials(n, gtables("even", x_par), gtables("theta", y_par),
                                          t_end, p=dims.p, q=dims.q)
    if kind == "circle":
        if dims.q:
            raise ConfigError("circle paths target ordinary charts")
        plane = tuple(_integer(*e) for e in cfg.entries("plane", [0, 1]))
        if len(plane) != 2 or plane[0] == plane[1] or not set(plane) <= set(range(dims.p)):
            raise ConfigError(f"circle plane {plane} is not 2 distinct axes in 0..{dims.p - 1}")
        return SuperPath.circle(n, [_number(*c) for c in cfg.entries("center")],
                                cfg.number("radius"), cfg.number("omega"),
                                gvals("eta", y_par), t_end, plane=plane,
                                phase=cfg.number("phase", 0.0))
    if kind == "sampled":
        grid = Grid(cfg.number("t0"), cfg.number("h"), cfg.integer("nodes"))
        a_tables = gtables("even", x_par)
        b_tables = gtables("theta", y_par)
        if any(len(tab) != grid.nodes for tab in a_tables + b_tables):
            raise ConfigError(f"sampled path tables need {grid.nodes} values each")
        a = [Curve.from_samples(n, grid, tab) for tab in a_tables]
        b = [Curve.from_samples(n, grid, tab) for tab in b_tables]
        return SuperPath(dims.p, dims.q, n, a, b, t_end)
    raise ConfigError(f"unknown path kind {kind!r}")


def _endpoint(config: _ConfigSection, dims: Dims) -> SuperPoint:
    if "endpoint" not in config:
        return SuperPoint.at(dims.n, config.number("t_end", 1.0))
    cfg = config.section("endpoint")
    return _superpoint(cfg.at("t", 1.0), cfg.at("theta", 0.0), dims.n)


def _vector_field(cfg: _ConfigSection, dims: Dims) -> SuperVectorField:
    parity = cfg.get("parity", "even")
    if parity not in ("even", "odd"):
        raise _invalid(cfg.path + ["parity"], parity, 'is not "even" or "odd"')
    coeff_cfg = cfg.entries("coefficients")
    if len(coeff_cfg) != dims.p + dims.q:
        raise ConfigError(f"vector field needs {dims.p + dims.q} coefficients")
    coeffs = [_poly_terms(*terms, dims.p, dims.q) for terms in coeff_cfg]
    return SuperVectorField(dims.p, dims.q, Parity.ODD if parity == "odd" else Parity.EVEN,
                            coeffs)


def _integer_option(args, cfg: _ConfigSection, key: str, default: int, low: int) -> int:
    """The section's integer under key, or the --key option when given; both
    are held to the same minimum."""
    if getattr(args, key) is None:
        return cfg.integer(key, default, low=low)
    return _integer(getattr(args, key), f"--{key}", low=low)


# -- subcommands -----------------------------------------------------------------


def _cmd_transport(config: _ConfigSection, args) -> dict:
    dims = _dims(config)
    data = _connection_data(config, dims)
    path = _path(config, dims)
    end = _endpoint(config, dims)
    steps = _integer_option(args, config.section("solver"), "steps", DEFAULT_STEPS, 2)
    tm = sp(path, data, end, steps=steps)
    return {"result": "transport", "map": tm.to_json_dict()}


def _cmd_sweep(config: _ConfigSection, args) -> dict:
    dims = _dims(config)
    if dims.q:
        raise ConfigError("sweep scales a form part, so it needs an ordinary chart (q = 0)")
    sc = _connection_data(config, dims)
    path = _path(config, dims)
    end = _endpoint(config, dims)
    steps = _integer_option(args, config.section("solver"), "steps", DEFAULT_STEPS, 2)
    lambdas = config.section("sweep").entries("lambdas", [2.0 ** -k for k in range(7)])
    for lam, where in lambdas:
        if _number(lam, where) <= 0:
            raise _invalid(where, lam, "is not greater than 0")
    entries, limit = adiabatic_sweep(path, sc, [lam for lam, _ in lambdas], end, steps=steps)
    return {
        "result": "sweep",
        "limit": limit.to_json_dict(),
        "entries": [
            {"lambda": e.lam, "map": e.map.to_json_dict(), "distance_to_limit": e.distance_to_limit}
            for e in entries
        ],
    }


def _cmd_flow(config: _ConfigSection, args) -> dict:
    cfg = config.section("flow", required=True)
    dims = _dims(config)
    field = _vector_field(cfg, dims)
    init = cfg.entries("init")
    if len(init) != dims.p + dims.q:
        raise ConfigError(f"flow init needs {dims.p + dims.q} coordinates")
    init = [_grassmann(*v, dims.n, par) for v, par in zip(init, dims.parities)]
    steps = _integer_option(args, cfg, "steps", DEFAULT_STEPS, 2)
    t_end = cfg.number("t_end", 1.0)
    if field.parity is Parity.ODD:
        end_cfg = cfg.section("endpoint")
        end = _superpoint(end_cfg.at("t", t_end), end_cfg.at("theta", 0.0), dims.n)
        values = flow_odd(field, init, end, steps=steps)
        return {"result": "flow_odd",
                "endpoint": end.to_json_dict(),
                "value": [v.to_json_dict() for v in values]}
    traj = flow_even(field, init, t_end, steps)
    out = args.out or "trajectory.csv"
    traj.to_csv(out)
    return {"result": "flow_even", "csv": out, "nodes": len(traj.times)}


def _margin(r) -> float:
    """Residual over tolerance; inf for a failure at tolerance 0 or a NaN residual."""
    if r.tolerance and not math.isnan(r.residual):
        return r.residual / r.tolerance
    return 0.0 if r.passed else math.inf


def _cmd_verify(config: _ConfigSection, args) -> dict:
    cfg = config.section("verify")
    seed = _integer_option(args, cfg, "seed", 0, 0)
    steps = _integer_option(args, cfg, "steps", 150, 10)
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


def _config(filename: str | None) -> _ConfigSection:
    """The configuration in the file, or the built-in one without a file;
    "schema": 1 names the only format there is."""
    if not filename:
        return _ConfigSection(dims=_ConfigSection(p=2, q=0, N=2, rank_even=1, rank_odd=1))
    with open(filename) as fh:
        try:
            config = _section(json.load(fh, object_hook=_ConfigSection), [])
        except ValueError as exc:  # not JSON, not UTF-8, or an integer past 4300 digits
            raise ConfigError(str(exc)) from None
    version, path = config.at("schema")
    if version != 1 or isinstance(version, bool):
        raise _invalid(path, version, "is not 1, the config format version")
    return config


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
        config = _config(args.config)
        handler = {"transport": _cmd_transport, "flow": _cmd_flow,
                   "verify": _cmd_verify, "sweep": _cmd_sweep}[args.command]
        result = handler(config, args)
    except (ConfigError, FileNotFoundError) as exc:
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
