"""Fitting collapse rates and locating critical amplitudes.

``fit_collapse`` extracts (t_c, alpha, beta) from the sampled diagnostics of
a run approaching a finite-time singularity, assuming
max|w| ~ C (t_c - t)^(-beta) and delta_x ~ (t_c - t)^alpha.
``critical_amplitude`` brackets the smallest initial amplitude that blows up
by bisection over full simulations, each judged by ``VERDICT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gclm.dynamics import RunControls, TerminalStatus, TimeSeries, simulate
from gclm.spectral import GclmParams

__all__ = [
    "NoCollapseSignalError",
    "BadBracketError",
    "UndecidedProbeError",
    "VERDICT",
    "CollapseFit",
    "fit_collapse",
    "ProbeRecord",
    "CriticalAmplitude",
    "critical_amplitude",
]

#: max|w| must rise by this factor before a collapse fit is attempted
MIN_GROWTH_DECADES = 4

#: fraction of the window's log(t_c - t) range, nearest the singularity,
#: excluded from the exponent regressions (see fit_collapse)
EXPONENT_TRIM = 0.25

#: share of the samples, the last ones, that fit_collapse fits
WINDOW_FRACTION = 0.25


class NoCollapseSignalError(ValueError):
    """The amplitude never grew enough to justify a collapse-rate fit."""


class BadBracketError(ValueError):
    """Bisection endpoints do not straddle the blow-up threshold."""


class UndecidedProbeError(ValueError):
    """A bisection probe ended with a status that decides nothing."""


@dataclass
class CollapseFit:
    amplitude: float
    t_c: float
    beta: float
    alpha: float
    beta_residual: float
    alpha_residual: float
    n_samples: int
    window_fraction: float = WINDOW_FRACTION


def _fit_window(series: TimeSeries) -> np.ndarray:
    """Indices of the final window (by count), at least 5 samples."""
    n = len(series)
    lo = min(n - 5, int(n * (1.0 - WINDOW_FRACTION)))
    return np.arange(max(lo, 0), n)


def fit_collapse(series: TimeSeries) -> CollapseFit:
    """Least-squares (C, t_c, beta) on log max|w|, then alpha from delta_x.

    t_c comes from a fit over the final WINDOW_FRACTION of the samples,
    with t_c > t_final and beta >= 0, by variable projection: at fixed t_c
    the law is linear in (log C, beta), so only log(t_c - t_final) is
    searched.  The exponents are then refit linearly in log-log over the
    same window with the quarter of the log(t_c - t) range nearest the
    singularity excluded: there the singularity distance spans only a few
    grid spacings, so the grid maximum and the fitted delta are
    resolution-limited and would bias the slopes.  Raises
    NoCollapseSignalError unless max|w| grew by at least four decades over
    the series.
    """
    amp = series.max_abs_omega
    if len(series) < 8 or not np.all(amp > 0):
        raise NoCollapseSignalError("too few samples or vanishing amplitude")
    growth = np.max(amp) / amp[0]
    if growth < 10.0**MIN_GROWTH_DECADES:
        raise NoCollapseSignalError(
            f"amplitude grew only {np.log10(growth):.2f} decades")
    idx = _fit_window(series)
    t, y = series.t[idx], np.log(amp[idx])

    # variable projection: at fixed t_c = t_final + e^s the law is linear
    # in (log C, beta); scan s over [1e-12 t_final, 1e6 * the last doubling
    # time], and scan again across the best point's neighbours until they
    # are 1e-12 apart
    t_final = series.t[-1]
    lag = t_final - t
    half = np.nonzero(amp >= 0.5 * amp[-1])[0][0]
    doubling = max(t_final - series.t[half], 1e-6 * max(t_final, 1.0))

    def linear_fit(s):
        """(sum of squares, log C, beta) at each s, beta >= 0."""
        x = np.log(np.exp(np.asarray(s))[..., None] + lag)
        dx, dy = x - x.mean(-1, keepdims=True), y - y.mean()
        beta = np.maximum(-(dx @ dy) / np.sum(dx * dx, -1), 0.0)
        res = dy + beta[..., None] * dx
        return np.sum(res * res, -1), y.mean() + beta * x.mean(-1), beta

    lo, hi = np.log(1e-12 * t_final), np.log(1e6 * doubling)
    while hi - lo > 1e-12:
        scan = np.linspace(lo, hi, 121)
        i = int(np.argmin(linear_fit(scan)[0]))
        lo, hi = scan[max(i - 1, 0)], scan[min(i + 1, scan.size - 1)]
    best = scan[i]
    _, log_c, beta = (float(v) for v in linear_fit(best))
    t_c = t_final + np.exp(best)

    # exponents: linear log-log fits away from the resolution-limited tail
    log_tau = np.log(np.maximum(t_c - t, 1e-300))
    cut = log_tau.min() + EXPONENT_TRIM * (log_tau.max() - log_tau.min())
    keep = log_tau >= cut
    if np.count_nonzero(keep) < 5:
        keep = np.ones_like(keep)

    def loglog_slope(values):
        ok = keep & np.isfinite(values) & (values > 0)
        if np.count_nonzero(ok) < 3:
            return np.nan, np.nan
        design = np.column_stack([np.ones(np.count_nonzero(ok)),
                                  log_tau[ok]])
        coef, res, _, _ = np.linalg.lstsq(design, np.log(values[ok]),
                                          rcond=None)
        rms = float(np.sqrt(res[0] / np.count_nonzero(ok))) if res.size \
            else 0.0
        return float(coef[1]), rms

    slope, beta_res = loglog_slope(amp[idx])
    if np.isfinite(slope):
        beta = -slope
        log_c = np.mean(y[keep] + beta * log_tau[keep])
    alpha, alpha_res = loglog_slope(series.delta_x[idx])
    return CollapseFit(amplitude=float(np.exp(log_c)), t_c=float(t_c),
                       beta=float(beta), alpha=alpha,
                       beta_residual=beta_res, alpha_residual=alpha_res,
                       n_samples=int(idx.size))


# ---------------------------------------------------------------------------
# critical amplitude by bisection

@dataclass
class ProbeRecord:
    amplitude: float
    blew_up: bool
    status: TerminalStatus
    growth: float
    reason: str  # SimState.stop_reason of the probe run


@dataclass
class CriticalAmplitude:
    lower: float
    upper: float
    n_probes: int
    probes: list[ProbeRecord] = field(default_factory=list)


#: each terminal status's answer to "does this data blow up?"; None is
#: undecided. ReachedTEnd is uncertified: a run still growing counts too.
VERDICT = {
    TerminalStatus.COLLAPSE_DETECTED: True,
    TerminalStatus.REACHED_T_END: False,
    TerminalStatus.RESOLUTION_CAP_HIT: None,
    TerminalStatus.STEP_FAILED: None,
}


def critical_amplitude(make_initial, params: GclmParams,
                       bracket: tuple[float, float],
                       tol: float,
                       controls: RunControls,
                       validate_bracket: bool = True) -> CriticalAmplitude:
    """Bisect the initial-data amplitude between decay and blow-up.

    ``make_initial(amplitude)`` builds the initial SpectralField.  Each
    probe is one :func:`simulate` run judged by ``VERDICT``; an undecided
    one, endpoints included, raises UndecidedProbeError at once, naming
    the amplitude, status and stop reason.  The endpoints must classify
    as (no blow-up, blow-up), otherwise BadBracketError is raised;
    ``validate_bracket=False`` skips those two runs when the endpoints are
    already known.  Returns the final bracket once its width is at most
    ``tol``, which must be positive and finite; only midpoints count as
    probes.
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lower < upper")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    probes = []

    def probe(a: float) -> bool:
        series, final = simulate(make_initial(a), params, controls)
        status, amp = series.terminal_status, series.max_abs_omega
        if VERDICT[status] is None:
            raise UndecidedProbeError(f"probe at amplitude {a!r} ended "
                                      f"{status.value}: {final.stop_reason}")
        probes.append(ProbeRecord(
            amplitude=a, blew_up=VERDICT[status], status=status,
            growth=float(np.max(amp) / amp[0]), reason=final.stop_reason))
        return VERDICT[status]

    if validate_bracket:
        if probe(lo):
            raise BadBracketError(f"lower endpoint {lo} already blows up")
        if not probe(hi):
            raise BadBracketError(f"upper endpoint {hi} does not blow up")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return CriticalAmplitude(
        lower=lo, upper=hi, probes=probes,
        n_probes=len(probes) - (2 if validate_bracket else 0))
