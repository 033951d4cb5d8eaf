"""Time integration of the dissipative gCLM equation.

Pseudo-spectral right-hand sides on the circle and on the compactified real
line (x = tan(q/2)), an 11-stage order-8 Cooper-Verner Runge-Kutta stepper
(explicit, or Lawson on the circle's diagonal dissipation), step control
by its stability interval, and an adaptive-resolution driver that doubles
the number of modes whenever the spectral tail rises above round-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

import numpy as np

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
    "TerminalStatus",
    "RunControls",
    "SimState",
    "TimeSeries",
    "Rhs",
    "rk8_step",
    "adaptive_dt",
    "simulate",
]


# ---------------------------------------------------------------------------
# Cooper-Verner 11-stage, order-8 tableau (entries involve sqrt(21))

_R = np.sqrt(21.0)

RK8_C = np.array([
    0.0, 0.5, 0.5, (7.0 + _R) / 14.0, (7.0 + _R) / 14.0, 0.5,
    (7.0 - _R) / 14.0, (7.0 - _R) / 14.0, 0.5, (7.0 + _R) / 14.0, 1.0,
])

RK8_A = np.zeros((11, 11))
RK8_A[1, 0] = 0.5
RK8_A[2, :2] = [0.25, 0.25]
RK8_A[3, :3] = [1.0 / 7.0, (-7.0 - 3.0 * _R) / 98.0, (21.0 + 5.0 * _R) / 49.0]
RK8_A[4, :4] = [(11.0 + _R) / 84.0, 0.0, (18.0 + 4.0 * _R) / 63.0,
                (21.0 - _R) / 252.0]
RK8_A[5, :5] = [(5.0 + _R) / 48.0, 0.0, (9.0 + _R) / 36.0,
                (-231.0 + 14.0 * _R) / 360.0, (63.0 - 7.0 * _R) / 80.0]
RK8_A[6, :6] = [(10.0 - _R) / 42.0, 0.0, (-432.0 + 92.0 * _R) / 315.0,
                (633.0 - 145.0 * _R) / 90.0, (-504.0 + 115.0 * _R) / 70.0,
                (63.0 - 13.0 * _R) / 35.0]
RK8_A[7, :7] = [1.0 / 14.0, 0.0, 0.0, 0.0, (14.0 - 3.0 * _R) / 126.0,
                (13.0 - 3.0 * _R) / 63.0, 1.0 / 9.0]
RK8_A[8, :8] = [1.0 / 32.0, 0.0, 0.0, 0.0, (91.0 - 21.0 * _R) / 576.0,
                11.0 / 72.0, (-385.0 - 75.0 * _R) / 1152.0,
                (63.0 + 13.0 * _R) / 128.0]
RK8_A[9, :9] = [1.0 / 14.0, 0.0, 0.0, 0.0, 1.0 / 9.0,
                (-733.0 - 147.0 * _R) / 2205.0, (515.0 + 111.0 * _R) / 504.0,
                (-51.0 - 11.0 * _R) / 56.0, (132.0 + 28.0 * _R) / 245.0]
RK8_A[10, :10] = [0.0, 0.0, 0.0, 0.0, (-42.0 + 7.0 * _R) / 18.0,
                  (-18.0 + 28.0 * _R) / 45.0, (-273.0 - 53.0 * _R) / 72.0,
                  (301.0 + 53.0 * _R) / 72.0, (28.0 - 28.0 * _R) / 45.0,
                  (49.0 - 7.0 * _R) / 18.0]

RK8_B = np.array([1.0 / 20.0, 0, 0, 0, 0, 0, 0, 49.0 / 180.0, 16.0 / 45.0,
                  49.0 / 180.0, 1.0 / 20.0])

#: the 5 distinct nodes, and the index into them of each stage's node
_NODES, _STAGE_NODE = np.unique(RK8_C, return_inverse=True)

#: largest c_j - c_i over the nonzero a_ij (sqrt(21)/7): the nodes are not
#: monotone, so a Lawson stage multiplies mode k by up to
#: exp(_LAWSON_SPAN * dt * L_k)
_LAWSON_SPAN = float(max(RK8_C[j] - RK8_C[i]
                         for i, j in zip(*np.nonzero(RK8_A))))

#: stability intervals of the tableau on the imaginary and negative real
#: axes (3.0020 and 3.7154; Hairer & Wanner, Solving ODEs II, IV.2)
_STAB_IMAG = 3.00
_STAB_REAL = 3.71


# ---------------------------------------------------------------------------
# right-hand sides, operating on raw coefficient arrays for speed

class Rhs:
    """Evaluates d(w_hat)/dt for a fixed domain, parameter set and N.

    The fields come from one stacked inverse transform and the result from
    one forward transform of the grid terms, the line's dissipation among
    them. ``diss`` records the dissipation treatment: the diagonal symbol
    nu |k|^sigma, applied exactly by Lawson steps, on the circle with
    nu != 0; None elsewhere, where any dissipation is explicit.
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

    def __call__(self, c: np.ndarray) -> np.ndarray:
        p, ops = self.params, self.ops
        w, ux, *adv = ops.fields(c, self.names)
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


def rk8_step(c: np.ndarray, dt: float, rhs: Rhs,
             lin: np.ndarray | None = None) -> np.ndarray:
    """One Cooper-Verner order-8 step on the coefficient array.

    ``lin=None`` gives the explicit step. A diagonal symbol ``lin = L``,
    whose -L c is part of ``rhs``, gives the Lawson (integrating-factor)
    step of the same tableau: it integrates v = e^{tL} c, so L is applied
    exactly and imposes no stability limit. With E(s) = exp(-s dt L), stage
    i is Y_i = E(c_i) (c + dt sum_j a_ij K_j) with
    K_j = E(c_j)^-1 (rhs(Y_j) + L Y_j), and the step returns
    E(1) (c + dt sum_i b_i K_i). Since a_ij != 0 for some c_j > c_i, a
    stage amplifies mode k by up to exp(sqrt(21)/7 dt L_k); the caller
    bounds dt (see :func:`adaptive_dt`).
    """
    if lin is not None:
        # E(s) at the distinct nodes; the exponent is capped where exp
        # would underflow, so that a zero field stays zero (0/0 otherwise)
        decay = np.exp(-np.minimum(_NODES[:, None] * (dt * lin), 700.0))
    a = dt * RK8_A
    k = np.empty((11, c.size), dtype=complex)
    for i in range(11):
        y = c + a[i, :i] @ k[:i]
        if lin is None:
            k[i] = rhs(y)
        else:
            e = decay[_STAGE_NODE[i]]
            y = e * y
            k[i] = (rhs(y) + lin * y) / e
    out = c + (dt * RK8_B) @ k
    return out if lin is None else decay[-1] * out


# ---------------------------------------------------------------------------
# step size from the stability interval

def adaptive_dt(c: np.ndarray, rhs: Rhs, cfl: float,
                dt_max: float = np.inf) -> float:
    """Step size for coefficients c: cfl times the largest step the
    tableau keeps stable for ``rhs``.

    Advection has imaginary eigenvalues up to |a| max|u dq/dx| N and uses
    the imaginary-axis stability interval 3.00; stretching gives the
    accuracy limit 1 / max|u_x|. Lawson steps (``rhs.diss`` set) have no
    stability limit from the dissipation; instead dt <= 1 / (span max
    diss), with span = sqrt(21)/7 the largest node gap of the tableau,
    caps the stage growth of the top mode at e, and is not scaled by cfl.
    Otherwise the line's dissipation nu ((1 + cos q) d_q H^q)^sigma, whose
    factor has real eigenvalues in [0, 2N], uses the negative-real
    interval 3.71. Degenerate pieces (zero coefficient or zero field)
    impose no limit; a zero field returns dt_max.
    """
    if not np.any(c):
        return dt_max
    p = rhs.params
    ux, *u = rhs.ops.fields(c, ("ux", "u") if p.a != 0.0 else ("ux",))
    stretch = np.max(np.abs(ux))
    speed = abs(p.a) * np.max(np.abs(rhs.ops.jac * u[0])) if u else 0.0
    limits = [1.0 / stretch] if stretch > 0 else []
    if speed > 0:
        limits.append(_STAB_IMAG / (speed * rhs.n))
    if rhs.diss is not None:  # Lawson stage-growth bound, outside cfl
        dt_max = min(dt_max, 1.0 / (_LAWSON_SPAN * np.max(rhs.diss)))
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


def _stop(state: SimState, t_end: float, finite: bool, cap_tail: float,
          fit: tracker.DecayFit | None) -> tuple[TerminalStatus, str] | None:
    """The first of :func:`simulate`'s stop rules that holds, as (status,
    reason), or None; the one place a run's outcome is decided. In order:
    1. the trial step went non-finite (StepFailed); 2. ``cap_tail``,
    tail/peak at n_max, exceeds TAIL_TRUST (ResolutionCapHit); 3. ``fit``,
    made on sampled and capped fields, puts the singularity within
    COLLAPSE_DELTA_FACTOR grid spacings (CollapseDetected); 4. t reached
    t_end (ReachedTEnd)."""
    n, t = state.field.grid_size, state.t
    floor = COLLAPSE_DELTA_FACTOR * np.pi / n
    if not finite:
        return (TerminalStatus.STEP_FAILED, "non-finite coefficients "
                f"in the step from t = {t:.6g} at N = {n}")
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

    Steps are Cooper-Verner RK8 (:func:`rk8_step`), Lawson where
    ``Rhs.diss`` is set (the circle with nu != 0), explicit elsewhere, and
    sized by :func:`adaptive_dt`. A step that pushes the top of the
    spectrum above TAIL_TOL * max|w_k| is retried at doubled resolution;
    past n_max the run goes on at n_max while the tail stays within
    TAIL_TRUST. :func:`_stop`'s rules, checked at t = 0 and after every
    step, set ``terminal_status`` and ``SimState.stop_reason``. Samples:
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
    at_cap, cap_tail, fit, fitted = False, 0.0, _decay_fit(field), field
    series.append(**_sample_row(field, 0.0, fit))
    stop = _stop(state, controls.t_end, True, cap_tail, fit)
    while stop is None:
        dt = min(adaptive_dt(state.field.coeffs, rhs, controls.cfl,
                             controls.dt_max), controls.t_end - state.t)
        new_c = rk8_step(state.field.coeffs, dt, rhs, rhs.diss)
        finite = np.all(np.isfinite(new_c))
        if finite:
            trial = SpectralField(new_c, state.field.domain)
            peak = np.max(np.abs(new_c))
            rel_tail = trial.tail_magnitude() / peak if peak > 0 else 0.0
            if not at_cap and rel_tail > TAIL_TOL:
                if 2 * state.field.grid_size > controls.n_max:
                    at_cap = True  # ride out the cap within the trust band
                else:
                    # rewind: drop the trial step, double resolution, retry
                    state.field = state.field.zero_pad()
                    state.n_refinements += 1
                    rhs = Rhs(rhs.ops.domain, params, state.field.grid_size)
                    continue
            state.field, state.t = trial, state.t + dt
            state.step += 1
            cap_tail = rel_tail if at_cap else 0.0
            due = (state.t >= sample_dt * (series.t[-1] // sample_dt + 1.0)
                   or np.max(np.abs(trial.values()))
                   > SAMPLE_GROWTH * series.max_abs_omega[-1])
            if due or at_cap:
                fit, fitted = _decay_fit(trial), trial
            if due:
                series.append(**_sample_row(trial, state.t, fit))
        stop = _stop(state, controls.t_end, finite, cap_tail,
                     fit if fitted is state.field else None)
    state.fit = fit if fitted is state.field else _decay_fit(state.field)
    if state.t > series.t[-1]:
        series.append(**_sample_row(state.field, state.t, state.fit))
    series.terminal_status, state.stop_reason = stop
    return series, state
