"""Time integration of the dissipative gCLM equation.

Pseudo-spectral right-hand sides on the circle and on the compactified real
line (x = tan(q/2)), the 12-stage order-8 DOP853 Runge-Kutta stepper
(explicit, or Lawson on the circle's diagonal dissipation) with its
embedded error estimate, and an adaptive driver. Each step is the smallest
of cfl times the tableau's stability limit (intervals 5.96 imaginary, 6.39
negative real), a Lawson stage-growth cap set by round-off, and the step
DOP853's own error estimate asks for; a step whose estimate exceeds the
tolerance is rejected and retried shorter. The number of modes doubles
whenever the spectral tail rises above round-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853

from gclm import tracker
from gclm.spectral import (
    FIELDS,
    Domain,
    GclmParams,
    SpectralField,
    check_grid_size,
    norms,
    open_stream,
    operators,
)

__all__ = [
    "RK8_A",
    "RK8_B",
    "RK8_C",
    "RK8_E3",
    "RK8_E5",
    "TerminalStatus",
    "RunControls",
    "SimState",
    "TimeSeries",
    "Rhs",
    "Step",
    "rk8_step",
    "adaptive_dt",
    "simulate",
]


# ---------------------------------------------------------------------------
# DOP853's 12-stage, order-8 tableau and its embedded 5th- and 3rd-order
# error weights (Hairer, Norsett & Wanner, Solving ODEs I, II.5), copied
# read-only from scipy's shared, writeable arrays. The weights have 13
# entries; the last, for the slope at the new state, is zero, so the
# estimate sums the 12 stages.

def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


RK8_A, RK8_B, RK8_C = (_frozen(x) for x in (DOP853.A, DOP853.B, DOP853.C))
RK8_E3, RK8_E5 = _frozen(DOP853.E3), _frozen(DOP853.E5)
_RK8_E = _frozen(np.vstack((RK8_E5, RK8_E3))[:, :RK8_B.size])

#: largest c_j - c_i over the nonzero a_ij (1/12): the nodes are not
#: monotone, so a Lawson stage multiplies mode k by up to
#: exp(_LAWSON_SPAN * dt * L_k)
_LAWSON_SPAN = float(max(RK8_C[j] - RK8_C[i]
                         for i, j in zip(*np.nonzero(RK8_A))))

#: stability intervals of the tableau on the imaginary and negative real
#: axes (5.9604 and 6.3937; Hairer & Wanner, Solving ODEs II, IV.2)
_STAB_IMAG = 5.96
_STAB_REAL = 6.39


# ---------------------------------------------------------------------------
# right-hand sides, operating on raw coefficient arrays for speed

class Rhs:
    """Evaluates d(w_hat)/dt for a fixed domain, parameter set and N.

    The fields come from one stacked inverse transform and the result from
    one forward transform of the grid terms, the line's dissipation among
    them. ``diss`` records the dissipation treatment: the diagonal symbol
    nu |k|^sigma, applied exactly by Lawson steps, on the circle with
    nu != 0; None elsewhere, where any dissipation is explicit. ``grid``
    keeps the grid fields (``names``, in order) of the state last
    evaluated, which :func:`adaptive_dt` reads.
    """

    def __init__(self, domain: Domain, params: GclmParams, grid_size: int):
        params.validate(domain)
        self.params = params
        self.n = grid_size
        self.ops = operators(grid_size, domain)
        #: the grid fields of the nonlinear term (w + omega_av) u_x - a u w_x
        self.names = FIELDS if params.a != 0.0 else FIELDS[:2]
        #: 0**0 = 1, so sigma = 0 damps the mean too
        self.diss = (params.nu * self.ops.kabs**params.sigma
                     if domain is Domain.CIRCLE and params.nu != 0.0
                     else None)
        self.grid: np.ndarray | None = None

    def __call__(self, c: np.ndarray) -> np.ndarray:
        p, ops = self.params, self.ops
        self.grid = ops.fields(c, self.names)
        w, ux, *adv = self.grid
        nl = (w + p.omega_av) * ux
        if adv:
            u, wx = adv
            nl = nl - p.a * u * wx
        if ops.domain is Domain.LINE and p.nu != 0.0:
            # sigma applications of (1 + cos q) d_q H^q (d_q H^q has the
            # symbol |k|), the last one left on the grid for nl's transform
            g = w
            for j in range(int(round(p.sigma))):
                g = ops.jac * ops.phys(ops.kabs * (ops.spec(g) if j else c))
            nl = nl - p.nu * g
        out = ops.spec(nl)
        if ops.domain is Domain.LINE:
            return out
        out[0] = 0.0  # exact mean conservation
        return out if self.diss is None else out - self.diss * c


class Step(NamedTuple):
    """One attempted :func:`rk8_step`."""

    c: np.ndarray  # coefficients at the new state
    f: np.ndarray  # rhs(c): the next step's first stage
    error: float  # DOP853's error estimate for a unit scale


def _error_norm(e5: np.ndarray, e3: np.ndarray) -> float:
    """scipy's DOP853 error norm, over dt, of the weighted stage sums e5
    and e3 for a unit scale; with the uniform scale s it is dt * this / s.
    It vanishes with e5 (tested first: 0.01 n3 may underflow)."""
    n5, n3 = np.vdot(e5, e5).real, np.vdot(e3, e3).real
    if n5 == 0.0:
        return 0.0
    return float(n5 / np.sqrt((n5 + 0.01 * n3) * e5.size))


def rk8_step(c: np.ndarray, dt: float, rhs: Rhs,
             lin: np.ndarray | None = None,
             f0: np.ndarray | None = None) -> Step:
    """One DOP853 order-8 step on the coefficient array, with its error
    estimate.

    ``f0`` is rhs(c) when known (the previous step's ``Step.f``); else it
    is evaluated. The step then takes 12 evaluations: 11 stages and the new
    state, whose slope is returned as the next step's first stage.

    ``lin=None`` gives the explicit step. A diagonal symbol ``lin = L``,
    whose -L c is part of ``rhs``, gives the Lawson (integrating-factor)
    step of the same tableau: it integrates v = e^{tL} c, so L is applied
    exactly and imposes no stability limit. With E(s) = exp(-s dt L), stage
    i is Y_i = E(c_i) (c + dt sum_j a_ij K_j) with
    K_j = E(c_j)^-1 (rhs(Y_j) + L Y_j), the new state is
    E(1) (c + dt sum_i b_i K_i), and the error, formed from the K_j in the
    v frame, is mapped back by E(1) (the last node is 1). Since
    a_ij != 0 for some c_j > c_i, a stage amplifies mode k by up to
    exp(dt L_k / 12); the caller bounds dt (see :func:`adaptive_dt`).
    """
    if lin is not None:
        # E(c_i), one row per stage; the exponent is capped where exp
        # would underflow, so that a zero field stays zero (0/0 otherwise)
        decay = np.exp(-np.minimum(RK8_C[:, None] * (dt * lin), 700.0))
    a = dt * RK8_A
    k = np.empty((RK8_B.size, c.size), dtype=complex)
    k[0] = rhs(c) if f0 is None else f0
    if lin is not None:
        k[0] += lin * c
    for i in range(1, RK8_B.size):
        y = c + a[i, :i] @ k[:i]
        if lin is None:
            k[i] = rhs(y)
        else:
            e = decay[i]
            y = e * y
            k[i] = (rhs(y) + lin * y) / e
    out = c + (dt * RK8_B) @ k
    err = _RK8_E @ k
    if lin is not None:
        out *= decay[-1]
        err *= decay[-1]
    return Step(out, rhs(out), dt * _error_norm(*err))


# ---------------------------------------------------------------------------
# step size from the stability interval and the round-off cap

def adaptive_dt(rhs: Rhs, cfl: float, dt_max: float = np.inf) -> float:
    """Step-size limit at the state ``rhs`` last evaluated (its ``grid``):
    cfl times the largest step the tableau keeps stable, and dt_max.

    Advection has imaginary eigenvalues up to |a| max|u dq/dx| N and uses
    the imaginary-axis stability interval 5.96; stretching gives the
    accuracy limit 1 / max|u_x|. Lawson steps (``rhs.diss`` set) have no
    stability limit from the dissipation. A stage multiplies the round-off
    of the top mode, about eps max|w_k|, by exp(span dt max diss), with
    span = 1/12 the largest node gap of the tableau; keeping that below
    TAIL_TOL max|w_k| caps dt at ln(TAIL_TOL / eps) / (span max diss)
    (ln(TAIL_TOL / eps) = 8.41), not scaled by cfl. Otherwise the line's
    dissipation nu ((1 + cos q) d_q H^q)^sigma, whose factor has real
    eigenvalues in [0, 2N], uses the negative-real interval 6.39.
    Degenerate pieces (zero coefficient or zero field) impose no limit; a
    zero field returns dt_max. The error estimate's limit is
    :func:`simulate`'s.
    """
    w, ux, *adv = rhs.grid
    if not np.any(w):
        return dt_max
    p = rhs.params
    stretch = np.max(np.abs(ux))
    speed = abs(p.a) * np.max(np.abs(rhs.ops.jac * adv[0])) if adv else 0.0
    limits = [1.0 / stretch] if stretch > 0 else []
    if speed > 0:
        limits.append(_STAB_IMAG / (speed * rhs.n))
    if rhs.diss is not None:  # Lawson round-off cap, outside cfl
        dt_max = min(dt_max, _LAWSON_GROWTH / (_LAWSON_SPAN
                                               * np.max(rhs.diss)))
    elif p.nu > 0:
        limits.append(_STAB_REAL / (p.nu * (2 * rhs.n)**p.sigma))
    return min(cfl * min(limits), dt_max) if limits else dt_max


# ---------------------------------------------------------------------------
# simulation driver

#: sampling of :func:`simulate`: time-grid intervals and max|w| growth factor
SAMPLE_GRID = 32
SAMPLE_GROWTH = 1.25

#: refinement and collapse thresholds of :func:`simulate` (see there)
TAIL_TOL = 1e-12
TAIL_TRUST = 1e-3
COLLAPSE_DELTA_FACTOR = 5.0

#: largest Lawson stage growth exp(span dt max diss) that keeps round-off
#: in the top mode below TAIL_TOL of the peak: ln(TAIL_TOL / eps) = 8.41
_LAWSON_GROWTH = float(np.log(TAIL_TOL / np.finfo(float).eps))


class TerminalStatus(enum.Enum):
    REACHED_T_END = "ReachedTEnd"
    COLLAPSE_DETECTED = "CollapseDetected"
    RESOLUTION_CAP_HIT = "ResolutionCapHit"
    STEP_FAILED = "StepFailed"


@dataclass
class RunControls:
    """Run limits; samples follow the sample_dt grid and max|w| growth.

    The refinement and collapse thresholds are the module constants
    TAIL_TOL, TAIL_TRUST and COLLAPSE_DELTA_FACTOR.
    """

    t_end: float = 1.0
    cfl: float = 0.5  # share of the stability interval (<= 1) per step
    n0: int = 256
    n_max: int = 2**17
    dt_max: float = np.inf
    sample_dt: float | None = None  # None: t_end / SAMPLE_GRID

    def __post_init__(self):
        if not (0 < self.t_end < np.inf and self.dt_max > 0
                and 0 < self.cfl <= 1):
            raise ValueError("need 0 < t_end < inf, dt_max > 0, 0 < cfl <= 1")
        check_grid_size(self.n0, "n0")
        check_grid_size(self.n_max, "n_max")
        if self.n_max < self.n0:
            raise ValueError("n_max must be >= n0")
        if self.sample_dt is not None and not self.sample_dt > 0:
            raise ValueError("sample_dt must be positive when set")


@dataclass
class SimState:
    """A run's state; at its end, the state :func:`_stop` judged."""

    field: SpectralField
    t: float
    step: int = 0
    n_refinements: int = 0
    stop_reason: str = ""  # one line from the stop rule that ended the run
    fit: tracker.DecayFit | None = None  # of field; None: too clean to fit


CSV_COLUMNS = ("t", "max_abs_omega", "delta_x", "p_fit", "l2", "linf", "b0",
               "energy", "n_modes")


@dataclass
class TimeSeries:
    """Sampled diagnostics of one run; column layout matches the CSV files."""

    t: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    max_abs_omega: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    delta_x: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    p_fit: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    l2: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    linf: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    b0: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    energy: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    n_modes: np.ndarray = dc_field(default_factory=lambda: np.empty(0, int))
    terminal_status: TerminalStatus = TerminalStatus.REACHED_T_END

    def __len__(self):
        return self.t.size

    def append(self, **row):
        for name in CSV_COLUMNS:
            arr = getattr(self, name)
            setattr(self, name, np.append(arr, row[name]))

    def to_csv(self, fh) -> None:
        with open_stream(fh, "w") as stream:
            stream.write(f"# status={self.terminal_status.value}\n")
            stream.write(",".join(CSV_COLUMNS) + "\n")
            cols = [getattr(self, name) for name in CSV_COLUMNS]
            for row in zip(*cols):
                cells = [repr(int(v)) if name == "n_modes" else repr(float(v))
                         for name, v in zip(CSV_COLUMNS, row)]
                stream.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, fh) -> "TimeSeries":
        with open_stream(fh) as stream:
            status = TerminalStatus.REACHED_T_END
            header = stream.readline().strip()
            if header.startswith("#"):
                status = TerminalStatus(header.split("=", 1)[1])
                header = stream.readline().strip()
            names = header.split(",")
            if tuple(names) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV columns {names}")
            rows = [line.split(",") for line in stream if line.strip()]
        data = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
        out = cls(terminal_status=status)
        for name, col in zip(CSV_COLUMNS, data.T):
            setattr(out, name, col.astype(int) if name == "n_modes" else col)
        return out


def _decay_fit(field: SpectralField) -> tracker.DecayFit | None:
    try:
        return tracker.fit_fourier_decay(field)
    except tracker.SpectrumTooCleanError:
        return None


def _sample_row(field: SpectralField, t: float,
                fit: tracker.DecayFit | None) -> dict:
    rep = norms(field)
    delta_x = p_fit = np.nan
    if fit is not None:
        q_peak = field.grid()[np.argmax(np.abs(field.values()))]
        at_boundary = (field.domain is Domain.LINE
                       and abs(q_peak) > np.pi / 2.0)
        delta_x = tracker.delta_to_x(fit.delta, field.domain, at_boundary)
        p_fit = fit.p
    return {
        "t": t, "max_abs_omega": rep.linf, "delta_x": delta_x,
        "p_fit": p_fit, "l2": rep.l2, "linf": rep.linf, "b0": rep.b0,
        "energy": rep.kinetic_energy, "n_modes": field.grid_size,
    }


def _step_factor(err: float) -> float:
    """The standard step-size factor for the scaled error estimate err
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4): 0.9 err^(-1/8), the
    estimate being of order 7, kept within [0.2, 10]."""
    return 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err**-0.125))


def _stop(state: SimState, t_end: float, finite: bool, dt: float,
          cap_tail: float,
          fit: tracker.DecayFit | None) -> tuple[TerminalStatus, str] | None:
    """The first of :func:`simulate`'s stop rules that holds, as (status,
    reason), or None; the one place a run's outcome is decided. In order:
    1. the trial step went non-finite, or the next step, ``dt`` before
    the cut at t_end, no longer moves t (StepFailed); 2. ``cap_tail``,
    tail/peak at n_max, exceeds TAIL_TRUST (ResolutionCapHit); 3. ``fit``,
    made on sampled and capped fields, puts the singularity within
    COLLAPSE_DELTA_FACTOR grid spacings (CollapseDetected); 4. t reached
    t_end (ReachedTEnd)."""
    n, t = state.field.grid_size, state.t
    floor = COLLAPSE_DELTA_FACTOR * np.pi / n
    if not finite:
        return (TerminalStatus.STEP_FAILED, "non-finite coefficients "
                f"in the step from t = {t:.6g} at N = {n}")
    if t + dt == t:
        return (TerminalStatus.STEP_FAILED,
                f"step size underflow at t = {t:.6g}, N = {n}")
    if cap_tail > TAIL_TRUST:
        return (TerminalStatus.RESOLUTION_CAP_HIT, f"tail/peak = "
                f"{cap_tail:.2g} > {TAIL_TRUST:g} at N = {n}, t = {t:.6g}")
    if fit is not None and fit.delta < floor:
        return (TerminalStatus.COLLAPSE_DETECTED, f"delta = {fit.delta:.3g} "
                f"< {COLLAPSE_DELTA_FACTOR:g} grid spacings ({floor:.3g}) "
                f"at N = {n}, t = {t:.6g}")
    if t >= t_end - 1e-14 * t_end:
        return (TerminalStatus.REACHED_T_END,
                f"reached t_end = {t_end:.6g} at N = {n}")


def simulate(initial: SpectralField, params: GclmParams,
             controls: RunControls) -> tuple[TimeSeries, SimState]:
    """Integrate to t_end, refining resolution on tail growth.

    Steps are DOP853 order 8 (:func:`rk8_step`), Lawson where
    ``Rhs.diss`` is set (the circle with nu != 0), explicit elsewhere.
    Each is the smallest of :func:`adaptive_dt`'s limit, the step the
    last error estimate asks for (none before the first) and t_end - t.
    The RHS at each accepted state is evaluated once: it is the next
    step's first stage and gives :func:`adaptive_dt` its fields. A step
    that pushes the top of the spectrum above TAIL_TOL * max|w_k| is
    retried at doubled resolution; past n_max the run goes on at n_max
    while the tail stays within TAIL_TRUST. Otherwise DOP853's estimate,
    scaled by tol * max|w_k| with tol = max(TAIL_TOL, tail/peak) (the
    second term counts only on the cap, where the time error need not
    beat the space error), sizes the next step by :func:`_step_factor`,
    and a step whose scaled estimate exceeds 1 is retried from the same
    state. :func:`_stop`'s rules, checked at t = 0 and after every
    accepted or rejected step, set ``terminal_status`` and
    ``SimState.stop_reason``. Samples:
    t = 0; each step that passes a point k * sample_dt of the time grid or
    takes max|w| past SAMPLE_GROWTH times its last sample (evenly in
    log(t_c - t) near a collapse), never shortened to land on the grid;
    the final state. Each sampled, capped or final field is fitted once;
    the final fit is ``SimState.fit``."""
    params.validate(initial.domain)
    field = initial.copy()
    if field.grid_size < controls.n0:
        field = field.zero_pad(controls.n0 // field.grid_size)
    series = TimeSeries()
    state = SimState(field=field, t=0.0)
    sample_dt = controls.sample_dt or controls.t_end / SAMPLE_GRID
    rhs = Rhs(field.domain, params, field.grid_size)
    f0 = rhs(field.coeffs)
    dt_state = adaptive_dt(rhs, controls.cfl, controls.dt_max)
    dt_err = np.inf  # the error estimate's step; none before the first
    at_cap, cap_tail, fit, fitted = False, 0.0, _decay_fit(field), field
    series.append(**_sample_row(field, 0.0, fit))
    stop = _stop(state, controls.t_end, True, dt_state, cap_tail, fit)
    while stop is None:
        dt = min(dt_state, dt_err, controls.t_end - state.t)
        step = rk8_step(state.field.coeffs, dt, rhs, rhs.diss, f0)
        finite = np.all(np.isfinite(step.c))
        if finite:
            trial = SpectralField(step.c, state.field.domain)
            peak = np.max(np.abs(step.c))
            rel_tail = trial.tail_magnitude() / peak if peak > 0 else 0.0
            if not at_cap and rel_tail > TAIL_TOL:
                if 2 * state.field.grid_size > controls.n_max:
                    at_cap = True  # ride out the cap within the trust band
                else:
                    # rewind: drop the trial step, double resolution, retry
                    state.field = state.field.zero_pad()
                    state.n_refinements += 1
                    rhs = Rhs(rhs.ops.domain, params, state.field.grid_size)
                    f0 = rhs(state.field.coeffs)
                    dt_state = adaptive_dt(rhs, controls.cfl, controls.dt_max)
                    continue
            err = (step.error / (max(TAIL_TOL, rel_tail) * peak)
                   if peak > 0 else 0.0)
            dt_err = dt * _step_factor(err)
        if finite and err <= 1.0:
            state.field, state.t = trial, state.t + dt
            state.step += 1
            f0 = step.f  # rhs's last evaluation: adaptive_dt reads it
            dt_state = adaptive_dt(rhs, controls.cfl, controls.dt_max)
            cap_tail = rel_tail if at_cap else 0.0
            due = (state.t >= sample_dt * (series.t[-1] // sample_dt + 1.0)
                   or np.max(np.abs(trial.values()))
                   > SAMPLE_GROWTH * series.max_abs_omega[-1])
            if due or at_cap:
                fit, fitted = _decay_fit(trial), trial
            if due:
                series.append(**_sample_row(trial, state.t, fit))
        stop = _stop(state, controls.t_end, finite, min(dt_state, dt_err),
                     cap_tail, fit if fitted is state.field else None)
    state.fit = fit if fitted is state.field else _decay_fit(state.field)
    if state.t > series.t[-1]:
        series.append(**_sample_row(state.field, state.t, state.fit))
    series.terminal_status, state.stop_reason = stop
    return series, state
