"""Time integration of the dissipative gCLM equation.

Pseudo-spectral right-hand sides on the circle and on the compactified real
line (x = tan(q/2)), the 12-stage order-8 DOP853 Runge-Kutta stepper with its
embedded error estimate, and adaptive runs (simulate). One stage loop takes
explicit steps and Lawson ones. A Lawson step applies the dissipation exactly
in a frame where it is diagonal: the coefficients themselves on the circle,
the eigenbasis of the line's nu ((1 + cos q) d_q H^q)^sigma
(:class:`~gclm.spectral.LineBasis`) on the line; its stages write E(c_i)^-1
times the nonlinear term alone into their rows of the stage array. A step is
the smallest of cfl (default 1: the whole interval) times the tableau's
stability limit (intervals 5.96 imaginary, 6.39 negative real) and the
stretching limit 1 / max|u_x|, a Lawson stage-growth cap set by round-off,
and the step DOP853's error estimate asks for; a step whose estimate exceeds
the tolerance is retried shorter. Circle steps with nu != 0 are Lawson ones;
a line step is a Lawson one exactly when the explicit limit of the line's
dissipation would otherwise shorten it (and N <= LINE_LAWSON_N_MAX), else it
is explicit. The number of modes doubles whenever the spectral tail rises
above round-off.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gclm import spectral, tracker
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
# error weights (Hairer, Norsett & Wanner, Solving ODEs I, II.5), written
# with repr so that they equal scipy.integrate.DOP853's arrays bit for bit
# (tested); reading those would import scipy.integrate, 0.6 s and 50 MB.
# A lists the a_ij, j < i, of each row. The weights have 13 entries; the
# last, for the slope at the new state, is zero, so the estimate sums the
# 12 stages.

def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


RK8_A = _frozen([row + (0.0,) * (12 - len(row)) for row in (
    (), (0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)])
RK8_B = _frozen([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
RK8_C = _frozen([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
RK8_E3 = _frozen([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
RK8_E5 = _frozen([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_RK8_W = _frozen(np.vstack((RK8_B, RK8_E5[:-1], RK8_E3[:-1])))

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
    one forward transform of the nonlinear term, both into work arrays
    kept between calls. The line's dissipation nu T^sigma,
    T = (1 + cos q) d_q H^q, acts on the coefficients
    (:meth:`Operators.times_jacobian`), so a call takes 2 transforms, and 4
    on the line with a != 0, whose velocity takes 2 more. A call without
    ``scale`` returns the whole right-hand side on both domains. Lawson
    steps take the dissipation exactly: ``diss`` is its diagonal symbol
    nu |k|^sigma on the circle with nu != 0 (None elsewhere), and
    ``line_diss`` its eigenvalues nu lam^sigma in the frame of
    ``ops.line_basis`` (built on first use) on the line with nu != 0 and
    N <= LINE_LAWSON_N_MAX (``line_exact``). ``line_limit`` is the explicit
    stability limit 6.39 / (nu (2N)^sigma) of the line's dissipation, whose
    T has real eigenvalues in [0, 2N); inf elsewhere. ``grid`` keeps the
    grid fields (``names``, in order) of the state last evaluated, which
    :func:`adaptive_dt` reads. A :func:`rk8_step` stage passes its row
    ``out``; a Lawson one also ``scale`` = E(c_i)^-1 in the frame where the
    dissipation is diagonal, and gets scale times the nonlinear term alone
    there: the coefficients on the circle, the basis frame on the line.
    """

    def __init__(self, domain: Domain, params: GclmParams, grid_size: int):
        params.validate(domain)
        self.params = params
        self.n = grid_size
        self.ops = operators(grid_size, domain)
        #: the grid fields of the nonlinear term (w + omega_av) u_x - a u w_x
        self.names = FIELDS if params.a != 0.0 else FIELDS[:2]
        line = domain is Domain.LINE and params.nu != 0.0
        #: 0**0 = 1, so sigma = 0 damps the mean too
        self.diss = (params.nu * self.ops.kabs**params.sigma
                     if domain is Domain.CIRCLE and params.nu != 0.0
                     else None)
        self.line_exact = line and grid_size <= spectral.LINE_LAWSON_N_MAX
        top = params.nu * (2 * grid_size)**params.sigma  # >= nu lam^sigma
        self.line_limit = _STAB_REAL / top if line else np.inf
        # the round-off cap of a Lawson stage (see adaptive_dt)
        self.lawson_cap = np.inf
        if self.diss is not None:
            self.lawson_cap = _LAWSON_GROWTH / (_LAWSON_SPAN
                                                * np.max(self.diss))
        elif self.line_exact:
            self.lawson_cap = _LAWSON_GROWTH / (_LAWSON_SPAN * top)
        self.grid: np.ndarray | None = None
        m = self.ops.grid.size
        self._work = np.empty((len(self.names), m)), np.empty(m), np.empty(m)

    @functools.cached_property
    def line_diss(self) -> np.ndarray:
        """nu lam^sigma in the frame of ``ops.line_basis``: the line's
        dissipation, diagonal there (for use where ``line_exact``)."""
        p = self.params
        out = p.nu * self.ops.line_basis.lam**p.sigma
        out.setflags(write=False)
        return out

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None,
                 scale: np.ndarray | None = None) -> np.ndarray:
        p, ops = self.params, self.ops
        grid, nl, tmp = self._work
        line = ops.domain is Domain.LINE
        w, ux, *adv = self.grid = ops.fields(c, self.names, out=grid)
        np.multiply(w + p.omega_av if p.omega_av else w, ux, out=nl)
        if adv:  # u, w_x
            nl -= np.multiply(p.a * adv[0], adv[1], out=tmp)
        res = ops.spec(nl, out=None if line and scale is not None else out)
        if not line:
            res[0] = 0.0  # exact mean conservation
        elif scale is not None:  # the nonlinear term in the basis frame
            res = ops.line_basis.to_frame(res, out=out)
        elif p.nu != 0.0:
            # sigma rounds of T, whose d_q H^q has the symbol |k|, applied
            # to the coefficients
            d = c
            for _ in range(int(round(p.sigma))):
                d = ops.times_jacobian(ops.kabs * d)
            res -= p.nu * d
        if scale is not None:
            res *= scale
        elif self.diss is not None:
            res -= self.diss * c
        return res


class Step(NamedTuple):
    """One attempted :func:`rk8_step`."""

    c: np.ndarray  # coefficients at the new state
    f: np.ndarray  # rhs(c): the next step's first stage
    error: float  # DOP853's error estimate for a unit scale


def rk8_step(c: np.ndarray, dt: float, rhs: Rhs,
             lin: np.ndarray | None = None,
             f0: np.ndarray | None = None) -> Step:
    """One DOP853 order-8 step on the coefficient array, with its error
    estimate.

    ``f0`` is rhs(c) when known (the previous step's ``Step.f``); else it
    is evaluated. The step then takes 12 evaluations: 11 stages, each into
    its row of the stage array K, and the new state, whose slope is the
    next step's first stage. Sums over K are real weights times its float
    view; one product with the rows b, e5, e3 gives the new state and error.

    ``lin=None`` gives the explicit step. Otherwise ``lin`` = L is the
    dissipation, diagonal in a frame, and the step is the Lawson
    (integrating-factor) step of the same tableau: the circle's symbol
    ``Rhs.diss``, one entry per coefficient, in the frame of the
    coefficients themselves; or the line's ``Rhs.line_diss``, one per
    float entry of the frame of ``rhs.ops.line_basis``, where the stages
    run and which costs two changes of frame per stage. It integrates
    v = e^{tL} z, z the frame coordinates, so L is applied exactly and
    imposes no stability limit. With E(s) = exp(-s dt L), stage i is
    Y_i = E(c_i) (z + dt sum_j a_ij K_j), K_j = E(c_j)^-1 N(Y_j) with N
    the right-hand side less -L Y (``rhs``'s result given a ``scale``),
    the new state is E(1) (z + dt sum_i b_i K_i), and the error, formed
    from the K_j in the v frame, is mapped back by E(1) (the last node) and
    then to the coefficients. Since a_ij != 0 for some c_j > c_i, a stage
    amplifies entry k by up to exp(dt L_k / 12); the caller bounds dt (see
    :func:`adaptive_dt`).
    """
    f = rhs(c) if f0 is None else f0
    basis = (None if lin is None or lin.size == c.size
             else rhs.ops.line_basis)
    z0 = c if basis is None else basis.to_frame(c)
    k, z = np.empty((RK8_B.size, z0.size), z0.dtype), np.empty_like(z0)
    kf, zf = k.view(float), z.view(float)
    a = dt * RK8_A
    if basis is None:
        k[0] = f
    else:
        y = np.empty_like(c)
        basis.to_frame(f, out=k[0])
    if lin is not None:
        # E(c_i), E(c_i)^-1 (complex on the circle: faster); capped so
        # that 0 stays 0
        x = np.minimum(RK8_C[:, None] * (dt * lin), 700.0)
        decay = np.exp(-x).astype(z0.dtype)
        growth = np.exp(x).astype(z0.dtype)
        k[0] += lin * z0
    for i in range(1, RK8_B.size):
        np.dot(a[i, :i], kf[:i], out=zf)
        z += z0
        if lin is not None:
            z *= decay[i]
        rhs(z if basis is None else basis.from_frame(z, out=y), out=k[i],
            scale=None if lin is None else growth[i])
    sums = (_RK8_W @ kf).view(z0.dtype)  # b, e5, e3 times K
    sums[0] *= dt
    sums[0] += z0
    if lin is not None:
        sums *= decay[-1]
    if basis is not None:
        sums = [basis.from_frame(row) for row in sums]
    out, *err = sums
    # scipy's DOP853 error norm at unit scale (the scale s divides it);
    # zero with e5, which is tested first: 0.01 n3 may underflow
    n5, n3 = (np.vdot(e, e).real for e in err)
    error = float(dt * n5 / np.sqrt((n5 + 0.01 * n3) * c.size)) if n5 else 0.0
    return Step(out, rhs(out), error)


# ---------------------------------------------------------------------------
# step size from the stability interval and the round-off cap

def adaptive_dt(rhs: Rhs, cfl: float, dt_max: float = np.inf) -> float:
    """Step-size limit at the state ``rhs`` last evaluated (its ``grid``):
    cfl times the largest step the tableau keeps stable, and dt_max.

    Advection has imaginary eigenvalues up to |a| max|u dq/dx| N and uses
    the imaginary-axis stability interval 5.96. Stretching, the field's
    own growth rate, gives the limit 1 / max|u_x|. On a = 0 circle data
    it is the only limit besides the round-off cap and the error
    estimate, and collapsing runs need it: without it a circle collapse
    reaches the resolution cap before its fit detects the collapse, and
    AAA poles move by 0.2 %. Dissipation that Lawson steps can take
    exactly (``rhs.diss`` or ``rhs.line_exact`` set) has no stability
    limit. A stage multiplies the round-off of the top mode, about
    eps max|w_k|, by exp(span dt max L), with span = 1/12 the largest node
    gap of the tableau; keeping that below TAIL_TOL max|w_k| caps dt at
    ``rhs.lawson_cap`` = ln(TAIL_TOL / eps) / (span max L)
    (ln(TAIL_TOL / eps) = 8.41), not scaled by cfl; on the line max L is
    bounded by nu (2N)^sigma. :func:`simulate` takes the line's step
    explicitly unless the explicit limit ``rhs.line_limit`` would shorten
    it; at N > LINE_LAWSON_N_MAX that limit, on the negative-real
    interval 6.39, is one of the limits here. Degenerate pieces (zero
    coefficient or zero field) impose no limit; a zero field returns
    dt_max. The error estimate's limit is :func:`simulate`'s.
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
    if not rhs.line_exact:
        limits.append(rhs.line_limit)  # inf off the dissipative line
    dt_max = min(dt_max, rhs.lawson_cap)  # outside cfl
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
    cfl: float = 1.0  # share of the stability interval (<= 1) per step
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


CSV_COLUMNS = ("t", "max_abs_omega", "delta_x", "p_fit", "l2", "b0", "energy",
               "n_modes")


@dataclass
class TimeSeries:
    """Sampled diagnostics of one run; column layout matches the CSV files."""

    t: np.ndarray
    max_abs_omega: np.ndarray
    delta_x: np.ndarray
    p_fit: np.ndarray
    l2: np.ndarray
    b0: np.ndarray
    energy: np.ndarray
    n_modes: np.ndarray
    terminal_status: TerminalStatus

    def __len__(self):
        return self.t.size

    @classmethod
    def from_rows(cls, rows: list, status: TerminalStatus) -> "TimeSeries":
        """The series of the sample rows, mappings keyed by CSV_COLUMNS."""
        return cls(**{name: np.array([row[name] for row in rows],
                                     dtype=int if name == "n_modes" else float)
                      for name in CSV_COLUMNS}, terminal_status=status)

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
        """Read the columns of CSV_COLUMNS by name; others are ignored (the
        older files' copy of max_abs_omega, linf), a missing one raises."""
        with open_stream(fh) as stream:
            status = TerminalStatus.REACHED_T_END
            header = stream.readline().strip()
            if header.startswith("#"):
                status = TerminalStatus(header.split("=", 1)[1])
                header = stream.readline().strip()
            names = header.split(",")
            missing = [name for name in CSV_COLUMNS if name not in names]
            if missing:
                raise ValueError(f"CSV columns {names} lack {missing}")
            rows = [line.split(",") for line in stream if line.strip()]
        data = np.array(rows, dtype=float).reshape(-1, len(names))
        return cls.from_rows([dict(zip(names, row)) for row in data], status)


def _decay_fit(field: SpectralField) -> tracker.DecayFit | None:
    try:
        return tracker.fit_fourier_decay(field)
    except tracker.SpectrumTooCleanError:
        return None


def _sample_row(field: SpectralField, t: float, fit: tracker.DecayFit | None,
                rhs: Rhs | None, observe) -> dict:
    """Diagnostics of ``field`` at t (w and the line's u from ``rhs.grid``
    unless rhs is None); calls ``observe(t, field)`` unless it is None."""
    grid = ({"w": field.values()} if rhs is None
            else dict(zip(rhs.names, rhs.grid)))
    rep = norms(field, grid["w"], grid.get("u"))
    if observe is not None:
        observe(t, field)
    delta_x = p_fit = np.nan
    if fit is not None:
        q_peak = field.grid()[np.argmax(np.abs(grid["w"]))]
        at_boundary = (field.domain is Domain.LINE
                       and abs(q_peak) > np.pi / 2.0)
        delta_x = tracker.delta_to_x(fit.delta, field.domain, at_boundary)
        p_fit = fit.p
    return {
        "t": t, "max_abs_omega": rep.linf, "delta_x": delta_x,
        "p_fit": p_fit, "l2": rep.l2, "b0": rep.b0,
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
    COLLAPSE_DELTA_FACTOR grid spacings (CollapseDetected; a fit with
    delta <= 0, a spectrum that does not decay, places none); 4. t
    reached t_end (ReachedTEnd)."""
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
    if fit is not None and 0.0 < fit.delta < floor:
        return (TerminalStatus.COLLAPSE_DETECTED, f"delta = {fit.delta:.3g} "
                f"< {COLLAPSE_DELTA_FACTOR:g} grid spacings ({floor:.3g}) "
                f"at N = {n}, t = {t:.6g}")
    if t >= t_end - 1e-14 * t_end:
        return (TerminalStatus.REACHED_T_END,
                f"reached t_end = {t_end:.6g} at N = {n}")


def simulate(initial: SpectralField, params: GclmParams, controls: RunControls,
             observe=None) -> tuple[TimeSeries, SimState]:
    """Integrate to t_end, refining resolution on tail growth.

    Steps are DOP853 order 8 (:func:`rk8_step`). Each is the smallest of
    :func:`adaptive_dt`'s limit, the step the last error estimate asks for
    (none before the first) and t_end - t. It is a Lawson step where
    ``Rhs.diss`` is set (the circle with nu != 0), and on the line where
    it is longer than cfl times the explicit limit ``Rhs.line_limit`` of
    the line's dissipation (only at N <= LINE_LAWSON_N_MAX, where
    adaptive_dt leaves that limit out); explicit elsewhere, and then the
    same step, bit for bit, as with no Lawson steps on the line.
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
    the final state. A row reads w (and the line's u) from the RHS's grid
    at its state, except a StepFailed run's final row, and
    ``observe(t, field)``, when given, sees each row's time and field.
    Each sampled, capped or final field is fitted once; the final fit is
    ``SimState.fit``."""
    params.validate(initial.domain)
    field = initial.copy()
    if field.grid_size < controls.n0:
        field = field.zero_pad(controls.n0 // field.grid_size)
    state = SimState(field=field, t=0.0)
    sample_dt = controls.sample_dt or controls.t_end / SAMPLE_GRID
    rhs = Rhs(field.domain, params, field.grid_size)
    f0 = rhs(field.coeffs)
    dt_state = adaptive_dt(rhs, controls.cfl, controls.dt_max)
    dt_err = np.inf  # the error estimate's step; none before the first
    at_cap, cap_tail, fit, fitted = False, 0.0, _decay_fit(field), field
    rows = [_sample_row(field, 0.0, fit, rhs, observe)]  # built at the end
    stop = _stop(state, controls.t_end, True, dt_state, cap_tail, fit)
    while stop is None:
        dt = min(dt_state, dt_err, controls.t_end - state.t)
        # Lawson on the line only where its explicit limit would bind
        lin = (rhs.line_diss if dt > controls.cfl * rhs.line_limit
               else rhs.diss)
        step = rk8_step(state.field.coeffs, dt, rhs, lin, f0)
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
            # rhs.grid[0] is w at the new state, from step.f's evaluation
            due = (state.t >= sample_dt * (rows[-1]["t"] // sample_dt + 1.0)
                   or np.max(np.abs(rhs.grid[0]))
                   > SAMPLE_GROWTH * rows[-1]["max_abs_omega"])
            if due or at_cap:
                fit, fitted = _decay_fit(trial), trial
            if due:
                rows.append(_sample_row(trial, state.t, fit, rhs, observe))
        stop = _stop(state, controls.t_end, finite, min(dt_state, dt_err),
                     cap_tail, fit if fitted is state.field else None)
    state.fit = fit if fitted is state.field else _decay_fit(state.field)
    if state.t > rows[-1]["t"]:
        if stop[0] is TerminalStatus.STEP_FAILED:
            rhs = None  # its last evaluation was the failed trial's
        rows.append(_sample_row(state.field, state.t, state.fit, rhs, observe))
    state.stop_reason = stop[1]
    return TimeSeries.from_rows(rows, stop[0]), state
