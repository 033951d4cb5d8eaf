"""Span tracing of gclm from outside the package.

``Tracer.install()`` replaces the public functions and methods of the gclm
modules, and the numpy.fft / scipy.fft transforms, by wrappers that record
one span per call: name, start, end, parent span and two size fields.
Spans are kept in flat arrays in memory; ``uninstall()`` restores every
original.  ``layer_metrics`` turns the spans of one benchmark round into
the per-layer metrics listed in BENCHMARK.json, and ``self_check`` tests
that the counters add up.

Nothing inside gclm is changed: a layer is seen only where the package
calls a public name, so private helpers (``Rhs._phys``) are charged to the
public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

GCLM_MODULES = ("spectral", "dynamics", "exact", "tracker", "collapse",
                "harness")

#: one-dimensional transforms wrapped in each FFT module
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

#: real transforms; fft.gflop counts 2.5 n log2 n flops for these and
#: 5 n log2 n for complex ones (computed, not measured)
REAL_FFTS = ("rfft", "irfft")

#: public names the per-layer metrics are read from; a missing one is
#: reported as an absent layer instead of silently reading zero
REQUIRED = (
    "dynamics.Rhs.__call__", "dynamics.rk8_step", "dynamics.adaptive_dt",
    "dynamics.simulate", "spectral.SpectralField.zero_pad",
    "spectral.c_omega_q", "spectral.velocity_line", "spectral.norms",
    "spectral.write_snapshot", "spectral.read_snapshot",
    "tracker.fit_fourier_decay", "tracker.aaa_approximate",
    "collapse.fit_collapse", "harness.run",
    "exact.SchochetState.classify", "exact.SchochetState.advance",
    "exact.SchochetState.field", "exact.DoublePoleState.classify",
    "exact.DoublePoleState.advance", "exact.DoublePoleState.field",
    "numpy.fft.fft", "numpy.fft.ifft",
)

#: grid sizes N with a dynamics.rhs_us.n<N> metric (every N the three
#: workloads visit)
RHS_GRID_SIZES = (64, 128, 256, 512)

FLOPS_NOTE = ("fft.gflop is computed, not measured: 5 n log2 n flops per "
              "complex and 2.5 n log2 n per real transform of length n")

#: unit of every per-layer metric, in the order they are reported
METRIC_UNITS = {
    "fft.calls": "count", "fft.s": "s", "fft.points": "count",
    "fft.gflop": "GFLOP", "fft.share": "ratio",
    "dynamics.rhs_calls": "count", "dynamics.rhs_s": "s",
    **{f"dynamics.rhs_us.n{n}": "us" for n in RHS_GRID_SIZES},
    "dynamics.rk8_attempted": "count", "dynamics.steps_accepted": "count",
    "dynamics.step_accept_ratio": "ratio", "dynamics.rk8_self_s": "s",
    "dynamics.refinements": "count", "dynamics.n_final": "modes",
    "spectral.zero_pad_calls": "count",
    "dynamics.adaptive_dt_calls": "count", "dynamics.adaptive_dt_s": "s",
    "spectral.c_omega_q_calls": "count", "spectral.c_omega_q_s": "s",
    "spectral.velocity_line_calls": "count",
    "spectral.velocity_line_s": "s",
    "spectral.norms_s": "s", "tracker.decay_fit_calls": "count",
    "tracker.decay_fit_s": "s",
    "tracker.aaa_s": "s", "tracker.aaa_degree": "count",
    "spectral.snapshot_write_s": "s", "spectral.snapshot_read_s": "s",
    "spectral.snapshot_bytes": "bytes", "collapse.fit_s": "s",
    "harness.run_self_s": "s", "harness.artifact_bytes": "bytes",
    "exact.classify_s": "s", "exact.advance_s": "s", "exact.field_s": "s",
    "trace.wall_s": "s", "trace.setup_s": "s", "trace.spans": "count", "trace.overhead_s": "s",
    "trace.absent_layers": "count", "trace.selfcheck_ok": "bool",
}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# hooks: (wrapped args, kwargs, result) -> (size_a, size_b, attrs or None)

def _fft_sizes(func):
    """Transform length n and batch count of a 1-d transform along axis."""
    def hook(args, kwargs, out):
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        if n is None:
            n = np.shape(args[0])[axis] if func == "rfft" else out.shape[axis]
        return int(n), out.size // out.shape[axis], None
    return hook


def _rhs_sizes(args, kwargs, out):
    return int(getattr(args[0], "n", 0)), 0, None


def _simulate_attrs(args, kwargs, out):
    _, state = out
    return 0, 0, {"steps": int(state.step),
                  "refinements": int(state.n_refinements),
                  "n_final": int(state.field.grid_size)}


def _aaa_attrs(args, kwargs, out):
    return 0, 0, {"degree": max(len(out.support_points) - 1, 0)}


def _snapshot_write_attrs(args, kwargs, out):
    fh = kwargs.get("fh", args[2] if len(args) > 2 else None)
    return 0, 0, {"bytes": _file_bytes(fh)}


def _run_attrs(args, kwargs, out):
    return 0, 0, {"bytes": sum(_file_bytes(p) for p in out.values())}


HOOKS = {
    "dynamics.Rhs.__call__": _rhs_sizes,
    "dynamics.simulate": _simulate_attrs,
    "tracker.aaa_approximate": _aaa_attrs,
    "spectral.write_snapshot": _snapshot_write_attrs,
    "harness.run": _run_attrs,
}


class Tracer:
    """Records spans of calls into gclm while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size_a = array("q")
        self.size_b = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- span recording ---------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Open a span by hand (rounds and operations of the benchmark)."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.size_a.append(0)
        self.size_b.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        nid = self._id(name)
        stack = self._stack
        name_ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end
        size_a, size_b, attrs = self.size_a, self.size_b, self.attrs
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            size_a.append(0)
            size_b.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                try:
                    a, b, extra = hook(args, kwargs, out)
                except (AttributeError, IndexError, TypeError, ValueError) as e:
                    a, b, extra = 0, 0, {"hook_error": repr(e)}
                size_a[idx] = a
                size_b[idx] = b
                if extra:
                    attrs[idx] = extra
            return out

        return wrapper

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new) -> None:
        """Point every gclm module-level alias of ``original`` at ``new``
        (covers ``from gclm.x import f`` and ``from numpy.fft import fft``)."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gclm"
                                   or modname.startswith("gclm.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, new)

    def _wrap_function(self, module, attr: str, name: str, hook=None) -> None:
        original = module.__dict__[attr]
        new = self._wrap(original, name, hook)
        self._rebind(original, new)
        if module.__dict__.get(attr) is original:
            self._patch(module, attr, new)
        self.wrapped.add(name)

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            hook = HOOKS.get(name)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, hook))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, hook))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, hook)
            else:
                continue
            self._patch(cls, attr, new)
            self.wrapped.add(name)

    def install(self) -> None:
        for short in GCLM_MODULES:
            module = importlib.import_module(f"gclm.{short}")
            for attr in getattr(module, "__all__", ()):
                obj = module.__dict__.get(attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    self._wrap_function(module, attr, name, HOOKS.get(name))
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException):
                    self._wrap_class(obj, short)
        for modname in ("numpy.fft", "scipy.fft"):
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            for attr in FFT_FUNCTIONS:
                if attr in module.__dict__:
                    self._wrap_function(module, attr, f"{modname}.{attr}",
                                        _fft_sizes(attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absent(self) -> list[str]:
        return [n for n in REQUIRED if n not in self.wrapped]

    # -- output -----------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Copies of spans [lo, hi) as numpy arrays (a view would pin the
        growing buffers); parents stay absolute indices."""
        sl = slice(lo, len(self.start) if hi is None else hi)
        return {name: np.array(getattr(self, name)[sl])
                for name in ("name_id", "parent", "start", "end", "size_a",
                             "size_b")}

    def save(self, path) -> None:
        """Write every span (numpy .npz, one array per field)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# per-layer metrics of one round

def layer_metrics(tracer: Tracer, root: int, hi: int) -> dict:
    """Per-layer metrics of the round whose root span is ``root``; its
    spans are the contiguous block [root, hi)."""
    s = tracer.arrays(root, hi)
    dur = s["end"] - s["start"]
    names = tracer.names
    local_parent = s["parent"] - root  # root's own parent becomes negative
    has_parent = local_parent >= 0
    child_time = np.bincount(local_parent[has_parent],
                             weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time

    def ids(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def mask(pred):
        return np.isin(s["name_id"], ids(pred))

    def named(name):
        return mask(lambda n: n == name)

    def attr_values(sel, key):
        return [tracer.attrs.get(int(i), {}).get(key, 0)
                for i in np.nonzero(sel)[0] + root]

    wall = float(dur[0])
    m = {}

    # FFTs called directly from spectral or dynamics code
    parent_id = np.where(has_parent,
                         s["name_id"][np.clip(local_parent, 0, None)], -1)
    fft = mask(lambda n: n.startswith(("numpy.fft.", "scipy.fft."))) & \
        np.isin(parent_id, ids(lambda n: n.startswith(("spectral.",
                                                      "dynamics."))))
    real = np.isin(s["name_id"][fft],
                   ids(lambda n: n.rsplit(".", 1)[-1] in REAL_FFTS))
    n_fft = s["size_a"][fft].astype(float)
    batch = s["size_b"][fft].astype(float)
    flops = np.where(real, 2.5, 5.0) * n_fft * np.log2(
        np.maximum(n_fft, 1.0)) * batch
    m["fft.calls"] = int(np.count_nonzero(fft))
    m["fft.s"] = float(dur[fft].sum())
    m["fft.points"] = int((n_fft * batch).sum())
    m["fft.gflop"] = float(flops.sum() / 1e9)
    m["fft.share"] = m["fft.s"] / wall

    rhs = named("dynamics.Rhs.__call__")
    m["dynamics.rhs_calls"] = int(np.count_nonzero(rhs))
    m["dynamics.rhs_s"] = float(dur[rhs].sum())
    for n in RHS_GRID_SIZES:
        at_n = rhs & (s["size_a"] == n)
        k = np.count_nonzero(at_n)
        m[f"dynamics.rhs_us.n{n}"] = float(dur[at_n].sum() / k * 1e6) \
            if k else 0.0

    rk8 = named("dynamics.rk8_step")
    sim = named("dynamics.simulate")
    m["dynamics.rk8_attempted"] = int(np.count_nonzero(rk8))
    m["dynamics.steps_accepted"] = sum(attr_values(sim, "steps"))
    m["dynamics.step_accept_ratio"] = (
        m["dynamics.steps_accepted"] / m["dynamics.rk8_attempted"]
        if m["dynamics.rk8_attempted"] else 0.0)
    m["dynamics.rk8_self_s"] = float(self_time[rk8].sum())
    m["dynamics.refinements"] = sum(attr_values(sim, "refinements"))
    m["dynamics.n_final"] = max(attr_values(sim, "n_final"), default=0)
    m["spectral.zero_pad_calls"] = int(np.count_nonzero(
        named("spectral.SpectralField.zero_pad")))
    adt = named("dynamics.adaptive_dt")
    m["dynamics.adaptive_dt_calls"] = int(np.count_nonzero(adt))
    m["dynamics.adaptive_dt_s"] = float(dur[adt].sum())

    for short, full in (("c_omega_q", "spectral.c_omega_q"),
                        ("velocity_line", "spectral.velocity_line")):
        sel = named(full)
        m[f"spectral.{short}_calls"] = int(np.count_nonzero(sel))
        m[f"spectral.{short}_s"] = float(dur[sel].sum())
    m["spectral.norms_s"] = float(dur[named("spectral.norms")].sum())
    dfit = named("tracker.fit_fourier_decay")
    m["tracker.decay_fit_calls"] = int(np.count_nonzero(dfit))
    m["tracker.decay_fit_s"] = float(dur[dfit].sum())

    aaa = named("tracker.aaa_approximate")
    m["tracker.aaa_s"] = float(dur[aaa].sum())
    m["tracker.aaa_degree"] = max(attr_values(aaa, "degree"), default=0)
    wsnap = named("spectral.write_snapshot")
    m["spectral.snapshot_write_s"] = float(dur[wsnap].sum())
    m["spectral.snapshot_read_s"] = float(
        dur[named("spectral.read_snapshot")].sum())
    m["spectral.snapshot_bytes"] = sum(attr_values(wsnap, "bytes"))
    m["collapse.fit_s"] = float(dur[named("collapse.fit_collapse")].sum())
    run = named("harness.run")
    run_local = np.nonzero(run)[0]
    sim_in_run = sim & np.isin(local_parent, run_local)
    m["harness.run_self_s"] = float(dur[run].sum() - dur[sim_in_run].sum())
    m["harness.artifact_bytes"] = sum(attr_values(run, "bytes"))

    for method in ("classify", "advance", "field"):
        sel = mask(lambda n, method=method: n.startswith("exact.")
                   and n.endswith("." + method))
        m[f"exact.{method}_s"] = float(dur[sel].sum())

    m["trace.wall_s"] = wall
    m["trace.spans"] = int(dur.size)
    return m


def self_check(m: dict) -> list[str]:
    """Counter identities every round must satisfy; returns violations."""
    bad = []
    rhs, rk8 = m["dynamics.rhs_calls"], m["dynamics.rk8_attempted"]
    if rhs != 11 * rk8:
        bad.append(f"dynamics.rhs_calls {rhs} != 11 x rk8_attempted {rk8}")
    acc, ref = m["dynamics.steps_accepted"], m["dynamics.refinements"]
    if rk8 != acc + ref:
        bad.append(f"dynamics.rk8_attempted {rk8} != steps_accepted {acc}"
                   f" + refinements {ref}")
    return bad

