"""The three benchmark workloads: set-up, operations and their checks.

Every input is closed-form and deterministic (two-mode data and exact
pole-family states), so the benchmark seed selects nothing here.  Each
workload object is built by its constructor (the timed set-up: importing
this module imports gclm) and hands out the operations of one round with
``operations``.  An operation returns the list of its failed checks; an
exception it raises counts the operation as failed.

Every check compares with a computation made apart from the solver (the
closed-form pole families of ``gclm.exact``, the linear decay rate) or with
a property the method must have (exact mean conservation); none compares
with a stored copy of an earlier output.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from gclm import dynamics, exact, harness, spectral

#: resolution ladder of circle_collapse: 64 -> 512 in three doublings.
#: Criterion 03 runs n0 = 256 up to 32768; this cap keeps one round near
#: nine seconds, so that every run of the benchmark repeats it.
CIRCLE_N0 = 64
CIRCLE_N_MAX = 512

CIRCLE_CONFIG = f"""\
[run]
mode = simulate
domain = circle
output_dir = unset

[params]
a = 0.5
sigma = 1.0
nu = 1.0

[initial]
kind = two_mode
amplitude = 4.0

[controls]
t_end = 1.4
n0 = {CIRCLE_N0}
n_max = {CIRCLE_N_MAX}
sample_every = 10
"""

#: collapse time of criterion 03 (a = 1/2, sigma = 1, amplitude 4)
CIRCLE_T_C = 1.15367
CIRCLE_T_C_TOL = 0.002
EXPONENT_TOL = 0.03
MEAN_TOL = 1e-12

#: line runs start at N = 64 (the double pole refines to 128 on its own)
LINE_N0 = 64
LINE_REL_TOL = 1e-6  # criterion 01
#: share of the collapse time each line run covers: criterion 01's half
#: for the Schochet state; a quarter for the double pole, whose steps cost
#: three times as much, so that a round stays near five seconds
SCHOCHET_T_SHARE = 0.5
DOUBLE_POLE_T_SHARE = 0.25

DECAY_N = 64
DECAY_T_END = 10.0
#: window of the L2 decay-rate fit; by t = 5 the k = 2 mode and the
#: nonlinear terms change the rate by far less than DECAY_RATE_TOL
DECAY_FIT_WINDOW = (5.0, 10.0)
DECAY_RATE_TOL = 1e-3


def _rel_sup_error(field, ref) -> float:
    ref_vals = ref.values()
    return float(np.max(np.abs(field.values() - ref_vals))
                 / np.max(np.abs(ref_vals)))


class CircleCollapse:
    """Criterion 03 run through ``harness.run`` plus a snapshot restart."""

    name = "circle_collapse"
    #: operations that fail on every round today, with the fault's cause
    known_faults = {
        "restart": "spectral.write_snapshot writes t with {t!r}; SimState.t "
                   "is np.float64, whose repr 'np.float64(...)' "
                   "read_snapshot cannot parse",
    }

    def __init__(self):
        self.config = harness.parse_config(CIRCLE_CONFIG)
        self.initial_mean = harness.two_mode_field(
            4.0, CIRCLE_N0).coeffs[0].real
        # similarity exponents of the collapsing a = 1/2, sigma = 1 family
        # (the default state, omega_m2_0 = 2, is the steady one)
        self.expected = exact.DoublePoleState(omega_m2_0=4.0).classify()

    def operations(self, scratch: str):
        ctx = {}
        return [("run", lambda: self._run(scratch, ctx)),
                ("restart", lambda: self._restart(ctx))]

    def _run(self, scratch, ctx):
        config = dataclasses.replace(self.config, output_dir=scratch)
        ctx["artifacts"] = artifacts = harness.run(config)
        with open(artifacts["fit"]) as fh:
            ctx["fit"] = fit = json.load(fh)
        bad = []
        if fit["terminal_status"] != "CollapseDetected":
            bad.append(f"status {fit['terminal_status']}")
        c = fit.get("collapse")
        if c is None:
            return bad + ["no collapse fit"]
        if abs(c["t_c"] - CIRCLE_T_C) > CIRCLE_T_C_TOL:
            bad.append(f"t_c {c['t_c']!r}")
        if abs(c["alpha"] - self.expected.alpha) > EXPONENT_TOL:
            bad.append(f"alpha {c['alpha']!r} vs {self.expected.alpha!r}")
        if abs(c["beta"] - self.expected.beta) > EXPONENT_TOL:
            bad.append(f"beta {c['beta']!r} vs {self.expected.beta!r}")
        for key in ("series", "aaa", "manifest", "snapshot_initial",
                    "snapshot_final"):
            if not os.path.getsize(artifacts[key]):
                bad.append(f"empty artifact {key}")
        return bad

    def _restart(self, ctx):
        # what `initial.kind = file` does with the final snapshot
        field, t = spectral.read_snapshot(ctx["artifacts"]["snapshot_final"])
        bad = []
        if field.grid_size != ctx["fit"]["n_final"]:
            bad.append(f"restored N {field.grid_size}")
        if abs(field.coeffs[0].real - self.initial_mean) > MEAN_TOL:
            bad.append(f"restored mean {field.coeffs[0].real!r}")
        if t != ctx["fit"]["t_final"]:
            bad.append(f"restored t {t!r}")
        return bad


class LineOracle:
    """Explicit runs on the compactified line against closed forms."""

    name = "line_oracle"
    known_faults = {}

    def __init__(self):
        self.cases = []
        for label, state, share in (
                ("schochet", exact.SchochetState(), SCHOCHET_T_SHARE),
                ("double_pole", exact.DoublePoleState(omega_m2_0=4.0),
                 DOUBLE_POLE_T_SHARE)):
            t_end = share * state.classify().t_c
            self.cases.append((label, {
                "initial": state.field(LINE_N0),
                "params": state.gclm_params(),
                "controls": dynamics.RunControls(t_end=t_end, n0=LINE_N0),
                "reference": state.advance(t_end),
            }))

    def operations(self, scratch: str):
        return [(label, lambda case=case: self._run(case))
                for label, case in self.cases]

    @staticmethod
    def _run(case):
        series, final = dynamics.simulate(case["initial"], case["params"],
                                          case["controls"])
        bad = []
        if series.terminal_status is not dynamics.TerminalStatus.REACHED_T_END:
            bad.append(f"status {series.terminal_status.value}")
        ref = case["reference"].field(final.field.grid_size)
        err = _rel_sup_error(final.field, ref)
        if not err <= LINE_REL_TOL:
            bad.append(f"relative sup error {err:.3g}")
        return bad


class SmallDataDecay:
    """Long dissipation-limited decay at small fixed N (criterion 05)."""

    name = "small_data_decay"
    known_faults = {}

    def __init__(self):
        self.params = spectral.GclmParams(a=0.5, sigma=1.0, nu=1.0)
        self.initial = harness.two_mode_field(0.1, DECAY_N)
        self.controls = dynamics.RunControls(t_end=DECAY_T_END, n0=DECAY_N)
        # linear decay rate nu |k|^sigma of the slowest mode, k = 1
        self.rate = self.params.nu * 1.0 ** self.params.sigma

    def operations(self, scratch: str):
        return [("decay", self._run)]

    def _run(self):
        series, final = dynamics.simulate(self.initial, self.params,
                                          self.controls)
        bad = []
        if series.terminal_status is not dynamics.TerminalStatus.REACHED_T_END:
            bad.append(f"status {series.terminal_status.value}")
        if final.field.grid_size != DECAY_N or final.n_refinements:
            bad.append(f"refined to N = {final.field.grid_size}")
        tail = series.max_abs_omega[len(series) // 2:]
        if not np.all(np.diff(tail) <= 0.0):
            bad.append("max|w| grew over the second half")
        if not series.b0[-1] < series.b0[0]:
            bad.append("b0 did not decrease")
        drift = abs(final.field.coeffs[0].real - self.initial.coeffs[0].real)
        if drift > MEAN_TOL:
            bad.append(f"mean drifted by {drift:.3g}")
        lo, hi = DECAY_FIT_WINDOW
        sel = (series.t >= lo) & (series.t <= hi)
        rate = -np.polyfit(series.t[sel], np.log(series.l2[sel]), 1)[0]
        if not abs(rate - self.rate) <= DECAY_RATE_TOL:
            bad.append(f"L2 decay rate {rate!r} vs {self.rate!r}")
        return bad


WORKLOADS = {w.name: w for w in (CircleCollapse, LineOracle, SmallDataDecay)}
