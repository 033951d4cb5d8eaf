"""Time integration of the dissipative gCLM equation.

Pseudo-spectral right-hand sides on the circle and on the compactified real
line (x = tan(q/2)), an 11-stage order-8 Cooper-Verner Runge-Kutta stepper
(explicit, or Lawson on the circle's diagonal dissipation), CFL-based step
control, and an adaptive-resolution driver that doubles the number of
modes whenever the spectral tail rises above round-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

import numpy as np

from gclm import tracker
from gclm.spectral import (
    Domain,
    GclmParams,
    SpectralField,
    norms,
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


# ---------------------------------------------------------------------------
# right-hand sides, operating on raw coefficient arrays for speed

class Rhs:
    """Evaluates d(w_hat)/dt for a fixed domain, parameter set and N."""

    def __init__(self, domain: Domain, params: GclmParams, grid_size: int):
        params.validate(domain)
        self.domain = domain
        self.params = params
        self.n = grid_size
        self.ops = operators(grid_size, domain)
        #: circle dissipation symbol nu |k|^sigma (0**0 = 1, so sigma = 0
        #: damps the mean too)
        self.diss = params.nu * self.ops.kabs**params.sigma

    def __call__(self, c: np.ndarray) -> np.ndarray:
        p, ops = self.params, self.ops
        if self.domain is Domain.CIRCLE:
            if p.a != 0.0:
                w, hw, u, wx = ops.phys_stack(c, 4)
                nl = (w + p.omega_av) * hw - p.a * u * wx
            else:
                w, hw = ops.phys_stack(c, 2)
                nl = (w + p.omega_av) * hw
            nl_hat = ops.spec(nl)
            nl_hat[0] = 0.0  # exact mean conservation
            return nl_hat - self.diss * c if p.nu != 0.0 else nl_hat
        # compactified line
        w = ops.phys(c)
        hw = ops.phys(ops.hilbert * c)
        # (1 + cos q) u_q = H^q w + C[w], and C[w] = -H^q w at node 0 (q = -pi)
        jac_uq = hw - hw[0]
        nl = w * jac_uq
        if p.a != 0.0:
            u = ops.line_velocity(jac_uq)
            wq = ops.phys(ops.ik * c)
            nl = nl - p.a * ops.jac * u * wq
        out = ops.spec(nl)
        if p.nu != 0.0:
            # sigma applications of (1 + cos q) d_q H^q; the symbol of
            # d_q H^q is ik (-i sgn k) = |k|
            d = c
            for _ in range(int(round(p.sigma))):
                d = ops.spec(ops.jac * ops.phys(ops.kabs * d))
            out = out - p.nu * d
        return out


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
    stages = []
    for i in range(11):
        y = c
        for j in range(i):
            aij = RK8_A[i, j]
            if aij != 0.0:
                y = y + dt * aij * stages[j]
        if lin is None:
            stages.append(rhs(y))
        else:
            e = decay[_STAGE_NODE[i]]
            y = e * y
            stages.append((rhs(y) + lin * y) / e)
    out = c
    for i, bi in enumerate(RK8_B):
        if bi != 0.0:
            out = out + dt * bi * stages[i]
    return out if lin is None else decay[-1] * out


# ---------------------------------------------------------------------------
# CFL-based step size

def adaptive_dt(field: SpectralField, params: GclmParams, cfl: float,
                dt_max: float = np.inf) -> float:
    """Largest stable step from advection, stretching and dissipation rates.

    The advection and stretching limits, and the line's explicit
    dissipation limit, are scaled by cfl. On the circle the dissipation is
    stepped by Lawson RK8 (see :func:`simulate`), which has no stability
    limit from it; instead dt <= 1 / (span nu N^sigma), with span =
    sqrt(21)/7 the largest node gap of the tableau, caps the stage growth
    of the top mode at e, and is not scaled by cfl.
    Degenerate pieces (zero coefficient or zero field) impose no limit; a
    zero field returns dt_max.
    """
    c = field.coeffs
    if not np.any(c):
        return dt_max
    ops = field.ops
    dx = np.pi / field.grid_size
    limits = []
    hw = ops.phys(ops.hilbert * c)
    if field.domain is Domain.CIRCLE:
        if params.a != 0.0:
            u = ops.phys(ops.velocity * c)
            speed = abs(params.a) * np.max(np.abs(u))
            if speed > 0:
                limits.append(dx / speed)
        stretch = np.max(np.abs(hw))  # u_x = H(w)
        if stretch > 0:
            limits.append(1.0 / stretch)
        if params.nu > 0:  # Lawson stage-growth bound, outside cfl
            dt_max = min(dt_max, 1.0 / (
                _LAWSON_SPAN * params.nu * field.grid_size**params.sigma))
    else:
        jac_uq = hw - hw[0]  # (1 + cos q) u_q
        stretch = np.max(np.abs(jac_uq))
        if stretch > 0:
            limits.append(1.0 / stretch)
        if params.a != 0.0:
            u = ops.line_velocity(jac_uq)
            speed = abs(params.a) * np.max(np.abs(ops.jac * u))
            if speed > 0:
                limits.append(dx / speed)
        if params.nu > 0:
            # spectral-radius bound: each factor of (1+cos q) d/dq
            # amplifies the highest mode by at most 2/dx
            limits.append((0.5 * dx) ** params.sigma / params.nu)
    if not limits:
        return dt_max
    return min(cfl * min(limits), dt_max)


# ---------------------------------------------------------------------------
# simulation driver

class TerminalStatus(enum.Enum):
    REACHED_T_END = "ReachedTEnd"
    COLLAPSE_DETECTED = "CollapseDetected"
    RESOLUTION_CAP_HIT = "ResolutionCapHit"


@dataclass
class RunControls:
    t_end: float = 1.0
    cfl: float = 1.0 / 32.0
    n0: int = 256
    n_max: int = 2**17
    tail_tol: float = 1e-12
    tail_trust: float = 1e-3
    collapse_delta_factor: float = 5.0
    dt_max: float = np.inf
    sample_every: int = 20          # record every this many accepted steps
    sample_dt: float | None = None  # overrides sample_every when set

    def __post_init__(self):
        if self.cfl <= 0 or self.t_end <= 0:
            raise ValueError("t_end and cfl must be positive")
        if self.n_max < self.n0:
            raise ValueError("n_max must be >= n0")


@dataclass
class SimState:
    field: SpectralField
    t: float
    step: int = 0
    n_refinements: int = 0


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
        own = isinstance(fh, (str, bytes))
        stream = open(fh, "w") if own else fh
        try:
            stream.write(f"# status={self.terminal_status.value}\n")
            stream.write(",".join(CSV_COLUMNS) + "\n")
            cols = [getattr(self, name) for name in CSV_COLUMNS]
            for row in zip(*cols):
                cells = [repr(int(v)) if name == "n_modes" else repr(float(v))
                         for name, v in zip(CSV_COLUMNS, row)]
                stream.write(",".join(cells) + "\n")
        finally:
            if own:
                stream.close()

    @classmethod
    def from_csv(cls, fh) -> "TimeSeries":
        own = isinstance(fh, (str, bytes))
        stream = open(fh) if own else fh
        try:
            status = TerminalStatus.REACHED_T_END
            header = stream.readline().strip()
            if header.startswith("#"):
                status = TerminalStatus(header.split("=", 1)[1])
                header = stream.readline().strip()
            names = header.split(",")
            if tuple(names) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV columns {names}")
            rows = [line.split(",") for line in stream if line.strip()]
        finally:
            if own:
                stream.close()
        data = np.array(rows, dtype=float) if rows else np.empty((0, 9))
        out = cls(terminal_status=status)
        for i, name in enumerate(CSV_COLUMNS):
            col = data[:, i] if rows else np.empty(0)
            setattr(out, name, col.astype(int) if name == "n_modes" else col)
        return out


def _sample_row(field: SpectralField, t: float) -> dict:
    rep = norms(field)
    try:
        fit = tracker.fit_fourier_decay(field)
        vals = field.values()
        q_peak = field.grid()[np.argmax(np.abs(vals))]
        at_boundary = (field.domain is Domain.LINE
                       and abs(q_peak) > np.pi / 2.0)
        delta_x = tracker.delta_to_x(fit.delta, field.domain, at_boundary)
        p_fit = fit.p
        delta_q = fit.delta
    except tracker.SpectrumTooCleanError:
        delta_x = p_fit = delta_q = np.nan
    return {
        "t": t, "max_abs_omega": rep.linf, "delta_x": delta_x,
        "p_fit": p_fit, "l2": rep.l2, "linf": rep.linf, "b0": rep.b0,
        "energy": rep.kinetic_energy, "n_modes": field.grid_size,
        "_delta_q": delta_q,
    }


def simulate(initial: SpectralField, params: GclmParams,
             controls: RunControls) -> tuple[TimeSeries, SimState]:
    """Integrate to t_end, refining resolution on tail growth.

    Steps are Cooper-Verner RK8 (:func:`rk8_step`). On the circle with
    nu != 0 they are Lawson steps on the diagonal dissipation nu |k|^sigma,
    so dt is set by advection, stretching and the Lawson stage-growth
    bound of :func:`adaptive_dt`; on the line they are explicit.

    A step whose result pushes the top of the spectrum above
    tail_tol * max|w_k| is rewound and retried at doubled resolution.
    Once refinement would exceed n_max, integration continues at n_max as
    long as the tail stays below the (looser) tail_trust threshold, so an
    imminent collapse can still be recognised.  Termination: ReachedTEnd;
    CollapseDetected when the fitted singularity distance falls below
    collapse_delta_factor grid spacings or a stage goes non-finite;
    ResolutionCapHit when the capped tail degrades past tail_trust first.
    """
    params.validate(initial.domain)
    field = initial.copy()
    if field.grid_size < controls.n0:
        field = field.zero_pad(controls.n0 // field.grid_size)
    series = TimeSeries()
    state = SimState(field=field, t=0.0)
    sample_dt = controls.sample_dt
    lawson = field.domain is Domain.CIRCLE and params.nu != 0.0
    rhs = Rhs(field.domain, params, field.grid_size)
    at_cap = False
    next_sample = 0.0
    last_sampled = -np.inf

    def record():
        nonlocal last_sampled
        row = _sample_row(state.field, state.t)
        dq = row.pop("_delta_q")
        series.append(**row)
        last_sampled = state.t
        return dq

    def finish(status):
        if state.t > last_sampled:
            record()
        series.terminal_status = status
        return series, state

    def collapse_resolved(dq: float) -> bool:
        if not np.isfinite(dq):
            return False
        return dq < controls.collapse_delta_factor * np.pi / state.field.grid_size

    while True:
        due = (state.t >= next_sample - 1e-14) if sample_dt else \
            (state.step % controls.sample_every == 0)
        if due and state.t > last_sampled or state.step == 0 and \
                last_sampled == -np.inf:
            dq = record()
            if sample_dt:
                next_sample += sample_dt
            if collapse_resolved(dq):
                series.terminal_status = TerminalStatus.COLLAPSE_DETECTED
                return series, state
        if state.t >= controls.t_end - 1e-14 * controls.t_end:
            series.terminal_status = TerminalStatus.REACHED_T_END
            return series, state
        dt = adaptive_dt(state.field, params, controls.cfl, controls.dt_max)
        dt = min(dt, controls.t_end - state.t)
        if sample_dt and next_sample > state.t:
            dt = min(dt, next_sample - state.t)
        new_c = rk8_step(state.field.coeffs, dt, rhs,
                         rhs.diss if lawson else None)
        if not np.all(np.isfinite(new_c)):
            return finish(TerminalStatus.COLLAPSE_DETECTED)
        trial = SpectralField(new_c, state.field.domain)
        peak = np.max(np.abs(trial.coeffs))
        tail = trial.tail_magnitude() if peak > 0 else 0.0
        if not at_cap and peak > 0 and tail > controls.tail_tol * peak:
            if 2 * state.field.grid_size > controls.n_max:
                at_cap = True  # ride out the cap within the trust band
            else:
                # rewind: drop the trial step, double resolution, retry
                state.field = state.field.zero_pad()
                state.n_refinements += 1
                rhs = Rhs(state.field.domain, params, state.field.grid_size)
                continue
        state.field = trial
        state.t += dt
        state.step += 1
        if at_cap:
            if peak > 0 and tail > controls.tail_trust * peak:
                return finish(TerminalStatus.RESOLUTION_CAP_HIT)
            try:
                fit = tracker.fit_fourier_decay(state.field)
                if collapse_resolved(fit.delta):
                    return finish(TerminalStatus.COLLAPSE_DETECTED)
            except tracker.SpectrumTooCleanError:
                pass
