"""In-memory span tracing of g2lab's layers, applied from outside the package.

A traced run wraps the public functions of each layer module once, then
rebinds every attribute of every loaded ``g2lab.*`` module that *is* one of
the original function objects, so aliases bound at import time (``deform.mul``,
``clifford.mul``, ``field.metric_from_3form``) are traced as well as names that
are resolved at call time.  ``PhiField.data`` is patched on its class.  Each
span records its name, start, end and parent span; spans stay in memory until
the run writes them out.  ``Patch.restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from math import ceil

LAYERS = ("octonion", "exterior", "g2linear", "deform", "connection",
          "cartan", "field", "clifford")

# the integrators whose step count is derived from (t_end, h)
RK4_FUNCTIONS = ("integrate_geodesic", "geodesic_with_frame",
                 "parallel_transport")

# failures counted by connection.failures
CONNECTION_FAILURES = ("LeftDomain", "NoConvergence")


def rk4_steps(t_end: float, h: float) -> int:
    """Fixed RK4 step count for an integration over t_end at step h.

    Mirrors the integrator's rule (``connection._steps_for``, a private
    helper a faster engine may replace): the step is shrunk so that a whole
    number of steps covers t_end, and a ratio within 1e-12 of an integer
    counts as that integer.
    """
    return max(1, ceil(abs(t_end) / h - 1e-12))


def _rk4_steps_of_call(signature: inspect.Signature, name: str):
    """Return a function computing the RK4 step count of one call."""
    def steps(args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments
        if name == "parallel_transport":
            ts = params["path"].ts
            t_end = float(ts[-1]) - float(ts[0])
        else:
            t_end = params["t_end"]
        return rk4_steps(t_end, params["h"])
    return steps


def _batch_rows(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    return int(a.shape[0])


class Tracer:
    """Collects spans as ``[name_id, start, end, parent, extra]`` lists.

    ``extra`` holds a per-call quantity measured from the arguments (RK4
    steps, batch rows), or None.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.failures: list[tuple[int, BaseException]] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.failures = []
        self._stack = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, extra=None):
        sid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            value = extra(args, kwargs) if extra is not None else None
            span = [sid, clock(), 0.0, stack[-1] if stack else -1, value]
            idx = len(self.spans)
            self.spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, at the innermost span it left
                if not any(seen is exc for _, seen in self.failures):
                    self.failures.append((idx, exc))
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def records(self) -> list[dict]:
        """The spans in a form that can be written as JSON."""
        return [{"name": self.names[s[0]], "start": s[1], "end": s[2],
                 "parent": s[3], "extra": s[4]} for s in self.spans]


class Patch:
    """Every binding a traced run replaced, so that it can be put back."""

    def __init__(self) -> None:
        self.bindings: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.bindings:
            owner, attr, original = self.bindings.pop()
            setattr(owner, attr, original)


def _public_functions(module):
    for attr, obj in sorted(vars(module).items()):
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == module.__name__):
            yield attr, obj


def install(tracer: Tracer) -> Patch:
    """Wrap every layer's public functions, ``PhiField.data`` and
    ``cli.run_suite``, and rebind every alias of each in ``g2lab.*``."""
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"g2lab.{layer}")
        for attr, fn in _public_functions(module):
            extra = None
            if layer == "connection" and attr in RK4_FUNCTIONS:
                extra = _rk4_steps_of_call(inspect.signature(fn), attr)
            elif layer == "octonion" and attr == "mul_batch":
                extra = _batch_rows
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn, extra))
    cli = importlib.import_module("g2lab.cli")
    wrappers[id(cli.run_suite)] = (cli.run_suite,
                                   tracer.wrap("cli.run_suite", cli.run_suite))

    patch = Patch()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "g2lab"
                                     or name.startswith("g2lab."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patch.set(module, attr, hit[1])
    phifield = importlib.import_module("g2lab.field").PhiField
    patch.set(phifield, "data",
              tracer.wrap("field.PhiField.data", phifield.data))
    return patch


# -- analysis -----------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, idx: int, target: int) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == target:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of the spans collected so far."""
    spans = tracer.spans
    names = tracer.names
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    extra_by_name: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        name = names[s[0]]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        if s[4] is not None:
            extra_by_name[name] = extra_by_name.get(name, 0) + s[4]

    out: dict[str, float] = {}
    for layer in LAYERS + ("cli",):
        out[f"{layer}.self_s"] = sum(
            (v for k, v in self_by_name.items() if k.startswith(layer + ".")),
            0.0)

    def count(name):
        return calls.get(name, 0)

    def own(name):
        return self_by_name.get(name, 0.0)

    for fn in ("integrate_geodesic", "geodesic_with_frame", "exp_inverse",
               "fit_fundamental_tensors"):
        out[f"connection.{fn}.calls"] = count(f"connection.{fn}")
        out[f"connection.{fn}.self_s"] = own(f"connection.{fn}")
    for fn in ("exp_map", "loop_product"):
        out[f"connection.{fn}.calls"] = count(f"connection.{fn}")
    out["connection.curvature_data.self_s"] = own("connection.curvature_data")
    out["connection.rk4_steps"] = sum(
        extra_by_name.get(f"connection.{fn}", 0) for fn in RK4_FUNCTIONS)

    ids = {name: i for i, name in enumerate(names)}
    exp_inverse = ids.get("connection.exp_inverse", -1)
    fit = ids.get("connection.fit_fundamental_tensors", -1)
    shots = frames = 0
    for i, s in enumerate(spans):
        name = names[s[0]]
        if name == "connection.exp_map" and _has_ancestor(spans, i,
                                                          exp_inverse):
            shots += 1
        elif (name == "connection.geodesic_with_frame"
              and _has_ancestor(spans, i, fit)):
            frames += 1
    n_inv = count("connection.exp_inverse")
    n_fit = count("connection.fit_fundamental_tensors")
    out["connection.exp_inverse.shots_per_call"] = shots / n_inv if n_inv else 0.0
    out["connection.frames_per_fit"] = frames / n_fit if n_fit else 0.0
    out["connection.failures"] = sum(
        1 for idx, exc in tracer.failures
        if names[spans[idx][0]].startswith("connection.")
        and type(exc).__name__ in CONNECTION_FAILURES)

    for fn in ("antisymmetrize", "wedge", "hodge"):
        out[f"exterior.{fn}.calls"] = count(f"exterior.{fn}")
        out[f"exterior.{fn}.self_s"] = own(f"exterior.{fn}")
    for fn in ("metric_from_3form", "split3"):
        out[f"g2linear.{fn}.calls"] = count(f"g2linear.{fn}")
        out[f"g2linear.{fn}.self_s"] = own(f"g2linear.{fn}")
    out["g2linear.bilinear_7form.self_s"] = own("g2linear.bilinear_7form")
    out["g2linear.contraction_identity_residuals.self_s"] = own(
        "g2linear.contraction_identity_residuals")
    out["g2linear.pullback_3form.calls"] = count("g2linear.pullback_3form")
    out["deform.sigma.calls"] = count("deform.sigma")
    out["deform.bundle_mul.calls"] = count("deform.bundle_mul")
    out["deform.bundle_mul.self_s"] = own("deform.bundle_mul")
    out["field.g2_torsion.calls"] = count("field.g2_torsion")
    out["field.nabla_phi.self_s"] = own("field.nabla_phi")

    data = ids.get("field.PhiField.data", -1)
    metric = ids.get("g2linear.metric_from_3form", -1)
    computed = {s[3] for s in spans if s[0] == metric and s[3] >= 0
                and spans[s[3]][0] == data}
    n_data = count("field.PhiField.data")
    out["field.phifield_data.calls"] = n_data
    out["field.phifield_cache_hit_frac"] = (
        (n_data - len(computed)) / n_data if n_data else 0.0)

    rows = extra_by_name.get("octonion.mul_batch", 0)
    out["octonion.mul_batch.calls"] = count("octonion.mul_batch")
    out["octonion.mul_batch.rows"] = rows
    out["octonion.mul_batch.self_s"] = own("octonion.mul_batch")
    # two (rows, 8) float64 operands read and one written per call
    out["octonion.mul_batch.bytes_computed"] = rows * 3 * 64
    out["octonion.mul.calls"] = count("octonion.mul")
    out["octonion.mul.self_s"] = own("octonion.mul")
    out["clifford.clifford_mul.calls"] = count("clifford.clifford_mul")
    out["clifford.clifford_mul.self_s"] = own("clifford.clifford_mul")
    return out
