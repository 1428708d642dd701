"""Outside-in tracing of the library's layers.

The tracer wraps public functions of the library's modules and rebinds each
wrapper in every module namespace that holds the original object, so a call
is seen whichever module's binding the caller goes through (``transport``
calls ``grassmann.graded_mul_stacks`` through its own import, and
``geometry.superconnection_coefficient`` reaches ``connection_coefficient``
through ``geometry``'s binding).  The library source is not edited.

A span is (name, start, end, parent span, op id) plus two work counters that
are computed from argument shapes.  Spans stay in flat in-memory arrays and
are written once, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Every benchmark time is process CPU time.  On a shared VM the hypervisor
# can take the CPU away for a fifth of a run (steal time); wall time then
# measures the neighbours, while process CPU time leaves the stolen
# intervals out.  The code under test is single-threaded and compute-bound,
# so on an idle machine the two agree.
CLOCK = time.process_time

# Layer (= module) -> wrapped public functions.
LAYERS = {
    "grassmann": ["mul_stacks", "graded_mul_stacks", "mul_components", "scale_stack",
                  "taylor_eval_stack"],
    "geometry": ["connection_coefficient", "lift_pullback", "endomorphism_term"],
    "superfield": ["fd4_stack", "interpolate_stack"],
    "transport": ["solve_parallel", "sp", "ps", "reverse_transport", "adiabatic_sweep"],
    "flows": ["flow_odd", "flow_even"],
    "cli": ["main"],
    "verify": ["run_suite"],
}
RING_KERNELS = ("grassmann.mul_stacks", "grassmann.scale_stack", "grassmann.mul_components")
ASSEMBLERS = ("geometry.connection_coefficient", "geometry.lift_pullback",
              "geometry.endomorphism_term")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _ring_work(r: int, k: int, c: int, n: int) -> tuple[float, float]:
    """Computed flops and bytes of a ring product over 3**n key pairs.

    Each pair is one (r x k)(k x c) product: 2rkc flops, and 8(rk + kc + rc)
    bytes for the two gathered operands and the product.  Cache effects are
    ignored, so both numbers are computed, not measured.
    """
    pairs = 3 ** n
    return 2.0 * pairs * r * k * c, 8.0 * pairs * (r * k + k * c + r * c)


def _work_mul_stacks(args, kwargs):
    n, a, b = args[0], args[1], args[2]
    return _ring_work(a.shape[1], a.shape[2], b.shape[2], n)


def _work_scale_stack(args, kwargs):
    n, m = args[0], args[2]
    return _ring_work(m.shape[1], 1, m.shape[2], n)


def _work_mul_components(args, kwargs):
    return _ring_work(1, 1, 1, args[0])


def _work_assembly(args, kwargs):
    grid = _arg(args, kwargs, 2, "grid")
    return float(grid.nodes), 0.0


def _work_march(args, kwargs):
    field, end = _arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "end")
    grid = field.grid
    return float(abs(grid.index_of(end.t.body) - grid.index_of(0.0)) // 2), 0.0


WORK = {
    "grassmann.mul_stacks": _work_mul_stacks,
    "grassmann.scale_stack": _work_scale_stack,
    "grassmann.mul_components": _work_mul_components,
    "geometry.connection_coefficient": _work_assembly,
    "geometry.lift_pullback": _work_assembly,
    "geometry.endomorphism_term": _work_assembly,
    "transport.solve_parallel": _work_march,
}


class Tracer:
    """Span recorder for the functions in ``LAYERS`` of supertransport.

    ``install`` rebinds the wrappers, ``uninstall`` restores the originals;
    between the two every call of a wrapped function becomes a span tagged
    with the current ``op`` id.  ``cli.main`` spans are named by subcommand.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.bytes = array("d")
        self.op = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        wrappers = {}
        for layer, fns in LAYERS.items():
            mod = sys.modules[f"supertransport.{layer}"]
            for fn in fns:
                orig = getattr(mod, fn)
                wrappers[id(orig)] = (orig, self._wrap(orig, f"{layer}.{fn}"))
        for mod in list(sys.modules.values()):
            try:
                items = list(vars(mod).items())
            except TypeError:
                continue
            for attr, val in items:
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._sites.append((mod, attr, hit[0], hit[1]))

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        fixed = self._nid(name)
        work_of = WORK.get(name)
        is_cli = name == "cli.main"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed
            if is_cli:
                argv = _arg(args, kwargs, 0, "argv") or ["?"]
                nid = self._nid(f"cli.main:{argv[0]}")
            work, nbytes = work_of(args, kwargs) if work_of is not None else (0.0, 0.0)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.work.append(work)
            self.bytes.append(nbytes)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    @property
    def bound_names(self) -> list[str]:
        """Every module-qualified binding the tracer rebinds."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._sites)

    def install(self):
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self._sites:
            setattr(mod, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "work": np.frombuffer(self.work).copy(),
            "bytes": np.frombuffer(self.bytes).copy(),
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray],
              mask: np.ndarray) -> dict[str, dict]:
    """Per span name, over the spans selected by ``mask``: calls, total time,
    self time and summed work counters.

    Self time is a span's duration minus the durations of its direct child
    spans; calls of one thread never overlap, so children cover disjoint
    intervals of their parent.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_t = dur - covered
    out = {}
    nid = spans["name_id"]
    for i, name in enumerate(names):
        sel = mask & (nid == i)
        out[name] = {
            "calls": int(sel.sum()),
            "s": float(dur[sel].sum()),
            "self_s": float(self_t[sel].sum()),
            "work": float(spans["work"][sel].sum()),
            "bytes": float(spans["bytes"][sel].sum()),
        }
    return out


def layer_shares(names: list[str], spans: dict[str, np.ndarray], mask: np.ndarray,
                 total_s: float) -> dict[str, float]:
    """Share of ``total_s`` spent inside each layer's outermost spans.

    A span counts when its parent belongs to another layer (or it has none),
    so time is not counted twice for calls nested within one layer.
    """
    layer_of = np.array([name.split(".")[0] for name in names])
    lay = layer_of[spans["name_id"]]
    parent = spans["parent"]
    parent_lay = np.where(parent >= 0, lay[np.maximum(parent, 0)], "")
    dur = spans["end"] - spans["start"]
    top = mask & (lay != parent_lay)
    return {layer: float(dur[top & (lay == layer)].sum() / total_s)
            for layer in dict.fromkeys(layer_of)}
