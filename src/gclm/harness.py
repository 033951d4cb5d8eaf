"""Experiment orchestration: config files, run modes, artifacts, plots.

A run is described by a flat key-value config with sections::

    [run]
    mode = simulate            # simulate|oracle_compare|critical_sweep|exact_only
    domain = circle            # circle|line
    output_dir = runs/demo

    [params]
    a = 0.5
    sigma = 1.0
    nu = 1.0

    [initial]
    kind = two_mode            # two_mode|pole_family|file
    amplitude = 4.0

    [controls]
    t_end = 1.2

Complex numbers are written ``re,im``.  All floats are echoed with full
precision (repr) so a manifest replays bit-exactly.  The environment
variable GCLM_OUTPUT_ROOT relocates relative output directories.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import io
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

import gclm
from gclm import collapse as collapse_mod
from gclm import exact, tracker
from gclm.dynamics import (
    COLLAPSE_DELTA_FACTOR,
    TAIL_TOL,
    TAIL_TRUST,
    RunControls,
    TerminalStatus,
    TimeSeries,
    simulate,
)
from gclm.spectral import (
    Domain,
    GclmParams,
    SpectralField,
    open_stream,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "Mode",
    "RunConfig",
    "ConfigError",
    "two_mode_field",
    "check_sweep",
    "parse_config",
    "write_config",
    "run",
    "emit_plots",
]


class Mode(enum.Enum):
    SIMULATE = "simulate"
    ORACLE_COMPARE = "oracle_compare"
    CRITICAL_SWEEP = "critical_sweep"
    EXACT_ONLY = "exact_only"


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass
class RunConfig:
    mode: Mode
    domain: Domain
    params: GclmParams
    initial: dict
    controls: RunControls
    output_dir: str
    sweep: dict = dc_field(default_factory=dict)


def two_mode_field(amplitude: float, grid_size: int,
                   domain: Domain = Domain.CIRCLE) -> SpectralField:
    """Two-mode initial data w0 = -A (sin x + sin(2x)/2)."""
    return SpectralField.from_function(
        lambda x: -amplitude * (np.sin(x) + 0.5 * np.sin(2.0 * x)),
        grid_size, domain)


# ---------------------------------------------------------------------------
# config parsing / echoing

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        return f"{v.real!r},{v.imag!r}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_scalar(text: str):
    """Best-effort typed parse: bool, int, complex 're,im', float, string."""
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


#: [controls] keys of older manifests whose knobs are now constants
RETIRED_CONTROLS = {"tail_tol": TAIL_TOL, "tail_trust": TAIL_TRUST,
                    "collapse_delta_factor": COLLAPSE_DELTA_FACTOR}


def check_sweep(sweep: dict) -> None:
    """Raise ConfigError unless a [sweep] section's values are valid."""
    lo, hi = sweep.get("bracket_lo"), sweep.get("bracket_hi")
    tol = sweep.get("tol", 0.1)
    num = (int, float)  # type(), not isinstance: a bool is no number
    if not (type(lo) in num and type(hi) in num and 0 < lo < hi < np.inf):
        raise ConfigError("sweep.bracket_lo/bracket_hi must be finite "
                          "numbers with 0 < lo < hi")
    if not (type(tol) in num and 0 < tol < np.inf):
        raise ConfigError("sweep.tol must be a positive finite number")
    if type(sweep.get("validate_bracket", True)) is not bool:
        raise ConfigError("sweep.validate_bracket must be true or false")


def parse_config(source) -> RunConfig:
    """Parse a config file (path, file object, or literal text)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if isinstance(source, (str, os.PathLike)) and "\n" not in str(source):
        if not Path(source).exists():
            raise ConfigError(f"config file not found: {source}")
        cp.read(source)
    elif isinstance(source, str):
        cp.read_string(source)
    else:
        cp.read_file(source)
    try:
        run_sec = cp["run"]
        mode = Mode(run_sec.get("mode", "simulate").lower())
        domain = Domain(run_sec.get("domain", "circle").lower())
        output_dir = run_sec.get("output_dir", "run_output")
    except (KeyError, ValueError) as e:
        raise ConfigError(f"[run] section invalid: {e}") from e

    def section(name: str) -> dict:
        return ({k: _parse_scalar(v) for k, v in cp.items(name)}
                if cp.has_section(name) else {})
    pvals = section("params")
    try:
        params = GclmParams(**{k: float(pvals[k]) for k in pvals})
        params.validate(domain)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"[params] section invalid: {e}") from e

    cvals = section("controls")
    if cvals.pop("sample_every", None) is not None:  # older configs
        warnings.warn("controls.sample_every is retired: samples follow a "
                      "time grid and max|w| growth", DeprecationWarning, 2)
    retired = {k: cvals.pop(k) for k in RETIRED_CONTROLS if k in cvals}
    for key, value in retired.items():
        if value != RETIRED_CONTROLS[key]:  # a replay would change the run
            raise ConfigError(f"controls.{key} is retired and fixed at "
                              f"{RETIRED_CONTROLS[key]!r}; this config sets "
                              f"{value!r}")
    for key in retired:
        warnings.warn(f"controls.{key} is retired: fixed at "
                      f"{RETIRED_CONTROLS[key]!r}", DeprecationWarning, 2)
    try:
        controls = RunControls(**cvals)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"[controls] section invalid: {e}") from e

    initial = section("initial")
    kind = initial.get("kind", "two_mode")
    key = {"two_mode": "amplitude", "pole_family": "family", "file": "path"}
    if kind not in key:
        raise ConfigError(f"initial.kind invalid: {kind!r}")
    if kind != "pole_family" and mode in (Mode.ORACLE_COMPARE,
                                          Mode.EXACT_ONLY):
        raise ConfigError(f"mode {mode.value} needs initial.kind = "
                          f"pole_family, not {kind!r}")
    if key[kind] not in initial:
        raise ConfigError(f"initial.{key[kind]} required for {kind} data")

    sweep = section("sweep")
    if mode is Mode.CRITICAL_SWEEP:
        check_sweep(sweep)
    return RunConfig(mode=mode, domain=domain, params=params,
                     initial=initial, controls=controls,
                     output_dir=output_dir, sweep=sweep)


def write_config(config: RunConfig, fh) -> None:
    with open_stream(fh, "w") as stream:
        w = stream.write
        w("[run]\n")
        w(f"mode = {config.mode.value}\n")
        w(f"domain = {config.domain.value}\n")
        w(f"output_dir = {config.output_dir}\n")
        sections = {"params": dataclasses.asdict(config.params),
                    "controls": dataclasses.asdict(config.controls),
                    "initial": config.initial, "sweep": config.sweep}
        for name, values in sections.items():
            if values:
                w(f"\n[{name}]\n")
                for k, v in values.items():
                    if v is not None:  # an unset control keeps its default
                        w(f"{k} = {_fmt(v)}\n")


def config_text(config: RunConfig) -> str:
    buf = io.StringIO()
    write_config(config, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# initial data construction

def _family_state(config: RunConfig):
    initial = config.initial
    kwargs = {k: v for k, v in initial.items()
              if k not in ("kind", "family")}
    try:
        state = exact.family_from_name(initial["family"], **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"[initial] section invalid: {e}") from e
    if state.domain is not config.domain:
        raise ConfigError(
            f"family {initial['family']} lives on the "
            f"{state.domain.value}, config says {config.domain.value}")
    return state


def _resolved_field(state, controls: RunControls) -> SpectralField:
    """A closed-form state sampled at the smallest power-of-two multiple
    of n0, up to n_max, whose spectral tail is within TAIL_TOL of its peak."""
    field = state.field(controls.n0)
    while (2 * field.grid_size <= controls.n_max and field.tail_magnitude()
           > TAIL_TOL * np.max(np.abs(field.coeffs))):
        field = state.field(2 * field.grid_size)
    return field


def _initial_field(config: RunConfig) -> SpectralField:
    kind = config.initial.get("kind", "two_mode")
    if kind == "two_mode":
        return two_mode_field(float(config.initial["amplitude"]),
                              config.controls.n0, config.domain)
    if kind == "pole_family":
        return _resolved_field(_family_state(config), config.controls)
    field, _ = read_snapshot(str(config.initial["path"]))
    if field.domain is not config.domain:
        raise ConfigError("snapshot domain disagrees with config")
    return field


# ---------------------------------------------------------------------------
# the run modes

def _json_default(o):
    if isinstance(o, (TerminalStatus, Mode, Domain, exact.Kind)):
        return o.value
    if isinstance(o, complex):
        return [o.real, o.imag]
    if isinstance(o, np.ndarray):
        return o.tolist()
    if dataclasses.is_dataclass(o):
        return dataclasses.asdict(o)
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not serializable: {type(o)}")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")


def output_root(config: RunConfig) -> Path:
    root = os.environ.get("GCLM_OUTPUT_ROOT")
    out = Path(config.output_dir)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _write_manifest(path: Path, config: RunConfig, wall: float,
                    status: str, stop_reason: str | None) -> None:
    with open(path, "w") as fh:
        fh.write("# gclm manifest v1\n")
        fh.write(f"gclm_version = {gclm.__version__}\n")
        fh.write(f"numpy_version = {np.__version__}\n")
        fh.write(f"python_version = {sys.version.split()[0]}\n")
        fh.write(f"wall_time_seconds = {wall!r}\n")
        fh.write(f"status = {status}\n")
        if stop_reason is not None:
            fh.write(f"stop_reason = {stop_reason}\n")
        fh.write("## begin config\n")
        fh.write(config_text(config))
        fh.write("## end config\n")


def manifest_config_text(path) -> str:
    """Extract the verbatim config echo from a manifest file."""
    text = Path(path).read_text()
    start = text.index("## begin config\n") + len("## begin config\n")
    end = text.index("## end config\n")
    return text[start:end]


def _aaa_record(field: SpectralField, t: float) -> dict:
    """AAA fit of every node, to the accuracy the snapshot's tail allows."""
    peak = float(np.max(np.abs(field.coeffs)))
    tol = max(tracker.AAA_TOL, tracker.AAA_TAIL_FACTOR
              * field.tail_magnitude() / peak) if peak else tracker.AAA_TOL
    fit = tracker.aaa_approximate(field.grid(), field.values(), tol=tol)
    near = [p for p in fit.poles_near_axis() if abs(p.real) <= np.pi]
    return {
        "t": t,
        "tol": tol,
        "poles": [[p.real, p.imag] for p in fit.poles],
        "residues": [[r.real, r.imag] for r in fit.residues],
        "max_error": fit.max_error,
        "non_converged": fit.non_converged,
        "nearest_pole_distance": float(abs(near[0].imag)) if near else None,
    }


def run(config: RunConfig) -> dict:
    """Execute one configured experiment; returns artifact paths."""
    t_start = time.perf_counter()
    out = output_root(config)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}

    def emit(name, fname):
        artifacts[name] = str(out / fname)
        return out / fname

    def snapshot(name, field, t):
        write_snapshot(field, t, str(emit(name, name + ".txt")))

    stop_reason = None
    if config.mode is Mode.EXACT_ONLY:
        state = _family_state(config)
        cl = state.classify()
        _write_json(emit("fit", "fit.json"), {
            "family": config.initial["family"],
            "classification": dataclasses.asdict(cl),
        })
        snapshot("snapshot_initial", _resolved_field(state, config.controls),
                 0.0)
        status = cl.kind.value
    elif config.mode in (Mode.SIMULATE, Mode.ORACLE_COMPARE):
        judge, errors = None, []
        if config.mode is Mode.ORACLE_COMPARE:
            state = _family_state(config)
            # the oracle judges only a run of the equation it solves
            solves = state.gclm_params()
            for name in ("a", "sigma", "nu"):
                got, want = getattr(config.params, name), getattr(solves, name)
                if got != want:
                    raise ConfigError(
                        f"params.{name} = {got!r}, but family "
                        f"{config.initial['family']} solves {name} = {want!r}")

            def judge(t, field):
                ex = state.advance(t).field(field.grid_size).values()
                err = np.max(np.abs(field.values() - ex)) / np.max(np.abs(ex))
                errors.append((float(t), float(err)))
        field0 = _initial_field(config)
        snapshot("snapshot_initial", field0, 0.0)
        series, final = simulate(field0, config.params, config.controls,
                                 judge)
        series.to_csv(str(emit("series", "series.csv")))
        snapshot("snapshot_final", final.field, final.t)
        stop_reason = final.stop_reason
        fit_payload = {"terminal_status": series.terminal_status.value,
                       "stop_reason": stop_reason, "t_final": final.t,
                       "n_final": final.field.grid_size}
        try:
            fit_payload["collapse"] = collapse_mod.fit_collapse(series)
        except collapse_mod.NoCollapseSignalError as e:
            fit_payload["collapse"] = None
            fit_payload["collapse_note"] = str(e)
        fit_payload["decay"] = final.fit  # simulate's fit of final.field
        if final.fit is None:
            fit_payload["decay_note"] = (
                f"the decay fit needs at least {tracker.MIN_WINDOW_MODES} "
                f"modes above {tracker.FLOOR_TOL:g} of the peak in the k "
                f"window [N/4, N/3]")
        if judge is not None:
            with open(emit("oracle", "oracle.csv"), "w") as fh:
                fh.write("t,rel_linf_error\n" + "".join(
                    f"{t!r},{e!r}\n" for t, e in errors))
            fit_payload.update(family=config.initial["family"],
                               max_rel_error=max(e for _, e in errors),
                               n_comparisons=len(errors))
        _write_json(emit("fit", "fit.json"), fit_payload)
        _write_json(emit("aaa", "aaa.json"),
                    _aaa_record(final.field, final.t))
        status = series.terminal_status.value
    elif config.mode is Mode.CRITICAL_SWEEP:
        sweep = config.sweep
        result = collapse_mod.critical_amplitude(
            lambda a: two_mode_field(a, config.controls.n0, config.domain),
            config.params, (sweep["bracket_lo"], sweep["bracket_hi"]),
            sweep.get("tol", 0.1), config.controls,
            validate_bracket=sweep.get("validate_bracket", True))
        _write_json(emit("critical", "critical.json"), {
            "a": config.params.a,
            "sigma": config.params.sigma,
            "nu": config.params.nu,
            "A_no_blowup": result.lower,
            "A_blowup": result.upper,
            "probes": [dataclasses.asdict(p) for p in result.probes],
        })
        status = f"bracket=({result.lower!r},{result.upper!r})"
    _write_manifest(emit("manifest", "manifest.txt"), config,
                    time.perf_counter() - t_start, status, stop_reason)
    return artifacts


# ---------------------------------------------------------------------------
# plot-script emission

_PLOT_HEADER = """\
#!/usr/bin/env python3
# Auto-generated plotting script; reads only files in its own directory.
import json, os
import numpy as np
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))

def load_series():
    path = os.path.join(here, "series.csv")
    with open(path) as fh:
        status = fh.readline().strip().split("=", 1)[1]
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    cols = {name: data[:, i] for i, name in enumerate(names)}
    return status, cols

def load_fit():
    path = os.path.join(here, "fit.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)

def load_snapshot(name):
    path = os.path.join(here, name)
    with open(path) as fh:
        fh.readline()
        t = float(fh.readline())
        n = int(fh.readline())
        rows = np.loadtxt(fh)
    coeffs = rows[:, 0] + 1j * rows[:, 1]   # k = -n .. n-1
    m = 2 * n
    x = -np.pi + 2 * np.pi * np.arange(m) / m
    # the grid starts at x = -pi: e^{ikx_j} = (-1)^k e^{2 pi i kj/m}
    k = np.arange(-n, n)
    vals = np.fft.ifft(np.fft.ifftshift(coeffs * (-1.0) ** k)).real * m
    return t, n, coeffs, x, vals
"""

_PLOT_BODIES = {
    "plot_amplitude.py": """\
status, cols = load_series()
fit = load_fit()
plt.figure()
if fit.get("collapse"):
    tc = fit["collapse"]["t_c"]
    tau = tc - cols["t"]
    plt.loglog(tau, cols["max_abs_omega"], "o-", ms=3)
    beta = fit["collapse"]["beta"]
    plt.loglog(tau, fit["collapse"]["amplitude"] * tau**(-beta), "--",
               label=f"slope -beta = {-beta:.3f}")
    plt.xlabel("t_c - t")
    plt.legend()
else:
    plt.semilogy(cols["t"], cols["max_abs_omega"], "o-", ms=3)
    plt.xlabel("t")
plt.ylabel("max |omega|")
plt.title(f"amplitude history ({status})")
plt.savefig(os.path.join(here, "amplitude.png"), dpi=150)
""",
    "plot_delta.py": """\
status, cols = load_series()
fit = load_fit()
ok = np.isfinite(cols["delta_x"])
plt.figure()
if fit.get("collapse"):
    tc = fit["collapse"]["t_c"]
    tau = tc - cols["t"][ok]
    plt.loglog(tau, cols["delta_x"][ok], "o-", ms=3)
    alpha = fit["collapse"]["alpha"]
    plt.title(f"delta_x, fitted alpha = {alpha:.3f}")
    plt.xlabel("t_c - t")
else:
    plt.semilogy(cols["t"][ok], cols["delta_x"][ok], "o-", ms=3)
    plt.title("singularity distance")
    plt.xlabel("t")
plt.ylabel("delta_x")
plt.savefig(os.path.join(here, "delta.png"), dpi=150)
""",
    "plot_spectrum.py": """\
t, n, coeffs, x, vals = load_snapshot("snapshot_final.txt")
k = np.arange(1, n)
mag = np.abs(coeffs[n + 1:])
plt.figure()
plt.semilogy(k, np.maximum(mag, 1e-300), ".", ms=2)
fit = load_fit()
if fit.get("decay"):
    d = fit["decay"]
    kk = np.linspace(1, n - 1, 200)
    plt.semilogy(kk, d["amplitude"] * np.exp(-d["delta"] * kk) / kk**d["p"],
                 "--", label=f"C e^(-{d['delta']:.3g} k) / k^{d['p']:.3g}")
    plt.legend()
plt.xlabel("k")
plt.ylabel("|omega_k|")
plt.title(f"spectrum at t = {t:.6g}")
plt.savefig(os.path.join(here, "spectrum.png"), dpi=150)
""",
    "plot_profile.py": """\
status, cols = load_series()
fit = load_fit()
t, n, coeffs, x, vals = load_snapshot("snapshot_final.txt")
c = fit["collapse"]
tau = c["t_c"] - t
x_c = x[np.argmax(np.abs(vals))]
xi = (x - x_c) / tau**c["alpha"]
plt.figure()
plt.plot(xi, tau**c["beta"] * vals, "-")
plt.xlim(-20, 20)
plt.xlabel("xi = (x - x_c) / (t_c - t)^alpha")
plt.ylabel("(t_c - t)^beta omega")
plt.title(f"rescaled profile at t_c - t = {tau:.3g}")
plt.savefig(os.path.join(here, "profile.png"), dpi=150)
""",
}


def emit_plots(artifact_dir) -> list:
    """Write plotting scripts next to a run's artifacts.

    Collapse runs get profile/spectrum/delta/amplitude scripts, global runs
    amplitude/delta only.  Raises FileNotFoundError listing the expected
    artifacts when none are present.
    """
    out = Path(artifact_dir)
    series_path = out / "series.csv"
    if not series_path.exists():
        raise FileNotFoundError(
            f"no artifacts in {out}; expected series.csv (plus fit.json and "
            f"snapshot_final.txt) as written by a simulate run")
    series = TimeSeries.from_csv(str(series_path))
    collapsed = series.terminal_status is TerminalStatus.COLLAPSE_DETECTED
    names = ["plot_amplitude.py", "plot_delta.py"]
    if collapsed:
        names += ["plot_spectrum.py", "plot_profile.py"]
    paths = []
    for name in names:
        path = out / name
        path.write_text(_PLOT_HEADER + "\n" + _PLOT_BODIES[name])
        paths.append(str(path))
    return paths
