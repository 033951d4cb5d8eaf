"""Tests for config handling, run orchestration, plots, and the CLI."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gclm
from gclm import cli, exact, tracker
from gclm import collapse as collapse_mod
from gclm import harness
from gclm.dynamics import RunControls, TerminalStatus, TimeSeries
from gclm.harness import (
    ConfigError,
    Mode,
    RunConfig,
    config_text,
    emit_plots,
    manifest_config_text,
    parse_config,
    run,
    two_mode_field,
    write_config,
)
from gclm.spectral import (
    Domain,
    GclmParams,
    SpectralField,
    read_snapshot,
    write_snapshot,
)

SIM_CFG = """\
[run]
mode = simulate
domain = circle
output_dir = simrun

[params]
a = 0.0
sigma = 0.0
nu = 1.0

[initial]
kind = pole_family
family = periodic_s0
omega_m1_0 = -3.0,0.0
v_c0 = 1.0,0.0
nu = 1.0

[controls]
t_end = 1.2
n0 = 64
n_max = 4096
sample_dt = 0.01
"""

#: SIM_CFG as written into manifest.txt before the refinement and collapse
#: thresholds became constants
SIM_MANIFEST_CFG = """\
[run]
mode = simulate
domain = circle
output_dir = simrun

[params]
a = 0.0
sigma = 0.0
nu = 1.0
omega_av = 0.0

[controls]
t_end = 1.2
cfl = 0.5
n0 = 64
n_max = 4096
tail_tol = 1e-12
tail_trust = 0.001
collapse_delta_factor = 5.0
dt_max = inf
sample_dt = 0.01

[initial]
kind = pole_family
family = periodic_s0
omega_m1_0 = -3.0,0.0
v_c0 = 1.0,0.0
nu = 1.0
"""

EXACT_CFG = """\
[run]
mode = exact_only
domain = line
output_dir = exactrun

[params]
a = 0.0
sigma = 2.0
nu = 1.0

[initial]
kind = pole_family
family = schochet

[controls]
t_end = 0.01
n0 = 128
"""

#: the benchmark's circle run: a collapse is detected at N = 512, t = 1.15
COLLAPSE_CFG = ("[run]\nmode = simulate\ndomain = circle\noutput_dir = c\n"
                "[params]\na = 0.5\nsigma = 1.0\nnu = 1.0\n"
                "[initial]\nkind = two_mode\namplitude = 4.0\n"
                "[controls]\nt_end = 1.4\nn0 = 64\nn_max = 512\n")

ORACLE_CFG = """\
[run]
mode = oracle_compare
domain = line
output_dir = oraclerun

[params]
a = 0.0
sigma = 0.0
nu = 1.0

[initial]
kind = pole_family
family = onepair_s0
omega_m1_0 = -0.5,0.0
v_c0 = 1.0,0.0
nu = 1.0

[controls]
t_end = 1.0
n0 = 64
"""


class TestTwoModeField:
    def test_values(self):
        a = 3.0
        field = two_mode_field(a, 64)
        x = field.grid()
        expect = -a * (np.sin(x) + 0.5 * np.sin(2.0 * x))
        assert np.allclose(field.values(), expect, atol=1e-13)

    def test_mean_free(self):
        field = two_mode_field(1.7, 32)
        assert abs(field.coeffs[0]) < 1e-14


class TestConfigParsing:
    def test_literal_text(self):
        config = parse_config(SIM_CFG)
        assert config.mode is Mode.SIMULATE
        assert config.domain is Domain.CIRCLE
        assert config.params.nu == 1.0
        assert config.controls.t_end == 1.2
        assert config.controls.n0 == 64
        assert config.initial["family"] == "periodic_s0"
        assert config.initial["omega_m1_0"] == complex(-3.0, 0.0)
        assert isinstance(config.initial["omega_m1_0"], complex)

    def test_path_and_file_object_agree(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SIM_CFG)
        from_path = parse_config(path)
        with open(path) as fh:
            from_handle = parse_config(fh)
        assert config_text(from_path) == config_text(from_handle)

    def test_round_trip_is_bit_exact(self):
        config = RunConfig(
            mode=Mode.SIMULATE,
            domain=Domain.LINE,
            params=GclmParams(a=0.1, sigma=1.0, nu=0.7 / 3.0),
            initial={"kind": "pole_family", "family": "doublepole",
                     "omega_m2_0": complex(2.0, -1.0 / 7.0), "v_c0": 0.1},
            controls=RunControls(t_end=math.pi, cfl=1.0 / 48.0, n0=128),
            output_dir="roundtrip",
        )
        text = config_text(config)
        again = config_text(parse_config(text))
        assert again == text

    def test_retired_sample_every_is_dropped_with_a_warning(self):
        text = SIM_CFG + "sample_every = 10\n"
        with pytest.warns(DeprecationWarning,
                          match="^controls.sample_every is retired"):
            config = parse_config(text)
        assert config.controls == parse_config(SIM_CFG).controls
        assert "sample_every" not in config_text(config)

    def test_retired_thresholds_are_dropped_at_their_fixed_values(self):
        # SIM_CFG as manifests wrote it while tail_tol, tail_trust and
        # collapse_delta_factor were RunControls fields
        with pytest.warns(DeprecationWarning) as caught:
            config = parse_config(SIM_MANIFEST_CFG)
        assert sorted(str(w.message).split()[0] for w in caught) == [
            "controls.collapse_delta_factor", "controls.tail_tol",
            "controls.tail_trust"]
        # the manifest pins cfl = 0.5, which wins over the default
        pinned = parse_config(SIM_CFG.replace("[controls]\n",
                                              "[controls]\ncfl = 0.5\n"))
        assert config.controls.cfl == 0.5 != RunControls().cfl
        assert config.controls == pinned.controls
        assert config_text(config) == config_text(pinned)

    @pytest.mark.parametrize("key, lines", [
        ("tail_tol", "tail_tol = 1e-10"), ("tail_trust", "tail_trust = 0.01"),
        ("collapse_delta_factor", "collapse_delta_factor = 4.0"),
        # a key at its fixed value does not mask a later one that is not
        ("tail_trust", "tail_tol = 1e-12\ntail_trust = 0.01")])
    def test_retired_threshold_at_another_value_is_rejected(self, key,
                                                            lines):
        with pytest.raises(ConfigError, match=f"controls.{key} is retired"):
            parse_config(SIM_CFG + lines + "\n")

    def test_write_config_to_path(self, tmp_path):
        config = parse_config(ORACLE_CFG)
        path = tmp_path / "echo.cfg"
        write_config(config, path)
        assert config_text(parse_config(path)) == config_text(config)

    def test_bool_round_trip(self):
        text = SIM_CFG.replace("[controls]",
                               "[sweep]\nbracket_lo = 1.0\nbracket_hi = 2.0\n"
                               "validate_bracket = false\n\n[controls]")
        config = parse_config(text)
        assert config.sweep["validate_bracket"] is False
        assert "validate_bracket = false" in config_text(config)

    def test_missing_amplitude(self):
        text = SIM_CFG.replace("kind = pole_family", "kind = two_mode")
        with pytest.raises(ConfigError,
                           match="initial.amplitude required for two_mode"):
            parse_config(text)

    def test_missing_family(self):
        text = SIM_CFG.replace("family = periodic_s0", "")
        with pytest.raises(ConfigError, match="initial.family required"):
            parse_config(text)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match=r"\[run\] section invalid"):
            parse_config(SIM_CFG.replace("mode = simulate", "mode = flyby"))

    def test_bad_params(self):
        with pytest.raises(ConfigError, match=r"\[params\] section invalid"):
            parse_config(SIM_CFG.replace("nu = 1.0", "nu = -1.0"))

    def test_sweep_bracket_validation(self):
        base = SIM_CFG.replace("mode = simulate", "mode = critical_sweep")
        with pytest.raises(ConfigError, match="bracket_lo/bracket_hi"):
            parse_config(base)
        bad = base + "\n[sweep]\nbracket_lo = 2.0\nbracket_hi = 1.0\n"
        with pytest.raises(ConfigError, match="0 < lo < hi"):
            parse_config(bad)
        bracket = base + "\n[sweep]\nbracket_lo = 1.0\nbracket_hi = 2.0\n"
        for tol in ("0", "-0.1", "nan", "inf", "wide"):
            with pytest.raises(ConfigError, match="sweep.tol"):
                parse_config(bracket + f"tol = {tol}\n")
        assert parse_config(bracket + "tol = 0.05\n").sweep["tol"] == 0.05
        # numbers only, not words or booleans (true would read as 1)
        sweeps = ["bracket_lo = low\nbracket_hi = 2.0\n",
                  "bracket_lo = true\nbracket_hi = 2.0\n",
                  "bracket_lo = 1.0\nbracket_hi = inf\n"]
        for text in sweeps:
            with pytest.raises(ConfigError, match="bracket_lo/bracket_hi"):
                parse_config(base + "\n[sweep]\n" + text)
        with pytest.raises(ConfigError, match="sweep.tol"):
            parse_config(bracket + "tol = true\n")
        # bool('no') is True: only true/false may set validation
        for value in ("no", "1", "yes"):
            with pytest.raises(ConfigError, match="validate_bracket"):
                parse_config(bracket + f"validate_bracket = {value}\n")
        assert parse_config(bracket + "validate_bracket = false\n").sweep[
            "validate_bracket"] is False

    @pytest.mark.parametrize("old, new", [
        ("sample_dt = 0.01", "dt_max = 0.0"), ("n0 = 64", "n0 = 100"),
        ("t_end = 1.2", "t_end = inf"), ("t_end = 1.2", "t_end = nan")],
        ids=["dt_max_zero", "n0_not_power_of_two", "t_end_inf", "t_end_nan"])
    def test_controls_that_would_hang_or_be_ignored(self, old, new):
        with pytest.raises(ConfigError, match=r"\[controls\] section"):
            parse_config(SIM_CFG.replace(old, new))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(tmp_path / "nope.cfg")


class TestRunModes:
    @pytest.fixture(autouse=True)
    def _output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GCLM_OUTPUT_ROOT", str(tmp_path))
        self.root = tmp_path

    def test_exact_only_schochet(self):
        artifacts = run(parse_config(EXACT_CFG))
        fit = json.loads(Path(artifacts["fit"]).read_text())
        cl = fit["classification"]
        assert cl["kind"] == "collapse"
        assert cl["t_c"] == pytest.approx((3.0 - math.sqrt(6.0)) / 15.0,
                                          abs=1e-12)
        assert Path(artifacts["snapshot_initial"]).exists()
        assert Path(artifacts["manifest"]).exists()

    def test_manifest_replays_the_config(self):
        config = parse_config(EXACT_CFG)
        artifacts = run(config)
        echoed = parse_config(manifest_config_text(artifacts["manifest"]))
        assert config_text(echoed) == config_text(config)

    def test_simulate_artifacts_and_replay(self):
        config = parse_config(SIM_CFG)
        artifacts = run(config)
        for name in ("series", "fit", "aaa", "snapshot_initial",
                     "snapshot_final", "manifest"):
            assert Path(artifacts[name]).exists()
        with open(artifacts["series"]) as fh:
            series = TimeSeries.from_csv(fh)
        # this data collapses at t = ln 3, before t_end
        assert series.terminal_status is TerminalStatus.COLLAPSE_DETECTED
        assert series.t[-1] < math.log(3.0)

        replay = parse_config(manifest_config_text(artifacts["manifest"]))
        replay.output_dir = "simrun_replay"
        again = run(replay)
        assert (Path(again["series"]).read_bytes()
                == Path(artifacts["series"]).read_bytes())

    def test_simulate_records_its_stop_reason(self):
        artifacts = run(parse_config(SIM_CFG.replace("t_end = 1.2",
                                                     "t_end = 0.1")))
        fit = json.loads(Path(artifacts["fit"]).read_text())
        assert fit["terminal_status"] == "ReachedTEnd"
        assert fit["stop_reason"] == "reached t_end = 0.1 at N = 64"
        manifest = Path(artifacts["manifest"]).read_text().splitlines()
        assert "stop_reason = reached t_end = 0.1 at N = 64" in manifest

    def test_simulate_fits_no_field_twice(self, monkeypatch):
        # fit.json's decay is simulate's fit of the final field
        fitted, finals = [], []

        def counted(field, *args, **kwargs):
            fitted.append(hash(field.coeffs.tobytes()))
            return fit(field, *args, **kwargs)

        def recorded(*args):
            series, final = simulate(*args)
            finals.append(final)
            return series, final

        fit, simulate = tracker.fit_fourier_decay, harness.simulate
        monkeypatch.setattr(tracker, "fit_fourier_decay", counted)
        monkeypatch.setattr(harness, "simulate", recorded)
        decay = json.loads(Path(run(parse_config(SIM_CFG))["fit"])
                           .read_text())["decay"]
        assert len(set(fitted)) == len(fitted)
        expected = dataclasses.asdict(fit(finals[0].field))
        assert decay == json.loads(json.dumps(expected))

    def test_simulate_aaa_pole_matches_the_closed_form(self):
        # the final snapshot (N = 4096, t = 1.09109) is fitted on every node
        # to its own tail; the pole nearest the axis is the oracle's
        config = parse_config(SIM_CFG)
        aaa = json.loads(Path(run(config)["aaa"]).read_text())
        assert aaa["non_converged"] is False
        v_c = harness._family_state(config).advance(aaa["t"]).v_c()
        assert aaa["nearest_pole_distance"] == pytest.approx(
            2.0 * np.arctanh(v_c).real, rel=1e-3)

    def test_unresolved_closed_form_data_is_sampled_finer(self):
        # a global periodic_s0 state whose pole lies 0.1 from the axis:
        # at n0 = 64 its tail is 1.5e-5 of the peak, and the aliased
        # samples read as a collapse
        text = (SIM_CFG.replace("omega_m1_0 = -3.0", "omega_m1_0 = 0.5")
                .replace("v_c0 = 1.0,0.0", "v_c0 = 0.1,0.0")
                .replace("t_end = 1.2", "t_end = 0.5")
                .replace("sample_dt = 0.01", "sample_dt = 0.05"))
        config = parse_config(text)
        state = harness._family_state(config)
        assert state.classify().kind is exact.Kind.GLOBAL
        artifacts = run(config)
        fit = json.loads(Path(artifacts["fit"]).read_text())
        assert fit["terminal_status"] == "ReachedTEnd"
        field0, _ = read_snapshot(artifacts["snapshot_initial"])
        assert field0.grid_size == 256
        final, t = read_snapshot(artifacts["snapshot_final"])
        exact_vals = state.advance(t).field(final.grid_size).values()
        err = np.max(np.abs(final.values() - exact_vals))
        assert err < 1e-6 * np.max(np.abs(exact_vals))

    def test_oracle_compare_onepair(self):
        artifacts = run(parse_config(ORACLE_CFG))
        fit = json.loads(Path(artifacts["fit"]).read_text())
        series = TimeSeries.from_csv(artifacts["series"])
        # one comparison per sample row of the one simulate run
        assert fit["n_comparisons"] == len(series)
        assert fit["max_rel_error"] < 1e-5
        rows = Path(artifacts["oracle"]).read_text().splitlines()
        assert rows[0] == "t,rel_linf_error"
        # the t column of series.csv, cell for cell
        series_rows = Path(artifacts["series"]).read_text().splitlines()[2:]
        assert ([row.split(",")[0] for row in rows[1:]]
                == [row.split(",")[0] for row in series_rows])

    def test_oracle_compare_writes_the_artifacts_of_a_simulate_run(self):
        oracle = run(parse_config(ORACLE_CFG))
        plain = run(parse_config(ORACLE_CFG.replace(
            "mode = oracle_compare", "mode = simulate").replace(
            "output_dir = oraclerun", "output_dir = plainrun")))
        assert set(oracle) == set(plain) | {"oracle"}
        assert all(Path(path).exists() for path in oracle.values())
        # the same run: the same series, and fit.json extended by the judge
        assert (Path(oracle["series"]).read_bytes()
                == Path(plain["series"]).read_bytes())
        fit = json.loads(Path(oracle["fit"]).read_text())
        plain_fit = json.loads(Path(plain["fit"]).read_text())
        assert fit.pop("family") == "onepair_s0"
        assert fit.pop("max_rel_error") < 1e-5
        assert fit.pop("n_comparisons") > 1
        assert fit == plain_fit
        manifest = Path(oracle["manifest"]).read_text().splitlines()
        assert f"status = {fit['terminal_status']}" in manifest
        assert f"stop_reason = {fit['stop_reason']}" in manifest

    @pytest.mark.parametrize("mode", ["oracle_compare", "exact_only"])
    def test_family_modes_need_pole_family_data(self, mode, tmp_path,
                                                capsys):
        text = (ORACLE_CFG.replace("mode = oracle_compare", f"mode = {mode}")
                .replace("kind = pole_family", "kind = two_mode")
                .replace("family = onepair_s0", "amplitude = 1.0"))
        message = (f"mode {mode} needs initial.kind = pole_family, "
                   f"not 'two_mode'")
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as info:
            cli.main(["run", str(cfg)])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"gclm: error: {message}\n"

    def test_oracle_compare_rejects_params_of_another_equation(self):
        text = ORACLE_CFG.replace("sigma = 0.0", "sigma = 1.0")
        with pytest.raises(ConfigError, match="params.sigma"):
            run(parse_config(text))

    def test_oracle_compare_rejects_a_family_of_another_domain(self):
        text = (ORACLE_CFG.replace("domain = line", "domain = circle")
                .replace("t_end = 1.0", "t_end = 0.05"))
        with pytest.raises(ConfigError, match="lives on the line"):
            run(parse_config(text))

    def test_critical_sweep(self, monkeypatch):
        def fake_critical(make_initial, params, bracket, tol, controls,
                          validate_bracket=True):
            make_initial(bracket[0])
            return collapse_mod.CriticalAmplitude(
                lower=1.5, upper=1.5 + tol, n_probes=4,
                probes=[collapse_mod.ProbeRecord(
                    amplitude=1.5, blew_up=False,
                    status=TerminalStatus.REACHED_T_END, growth=0.5,
                    reason="reached t_end = 1.2 at N = 64")])

        monkeypatch.setattr(collapse_mod, "critical_amplitude", fake_critical)
        text = (SIM_CFG.replace("mode = simulate", "mode = critical_sweep")
                       .replace("kind = pole_family", "kind = two_mode")
                       .replace("family = periodic_s0", "amplitude = 2.0")
                + "\n[sweep]\nbracket_lo = 1.0\nbracket_hi = 2.0\ntol = 0.05\n")
        artifacts = run(parse_config(text))
        payload = json.loads(Path(artifacts["critical"]).read_text())
        assert payload["A_no_blowup"] == 1.5
        assert payload["A_blowup"] == pytest.approx(1.55)
        assert payload["probes"][0]["status"] == "ReachedTEnd"
        assert payload["probes"][0]["reason"] == ("reached t_end = 1.2 "
                                                  "at N = 64")

    def test_file_initial_data(self):
        field = two_mode_field(0.2, 64)
        snap = self.root / "w0.txt"
        write_snapshot(field, 0.0, str(snap))
        text = (SIM_CFG.replace("kind = pole_family", "kind = file")
                       .replace("family = periodic_s0",
                                f"path = {snap}")
                       .replace("omega_m1_0 = -3.0,0.0", "")
                       .replace("v_c0 = 1.0,0.0", "")
                       .replace("nu = 1.0\n\n[controls]", "\n[controls]")
                       .replace("t_end = 1.2", "t_end = 0.05"))
        artifacts = run(parse_config(text))
        with open(artifacts["series"]) as fh:
            series = TimeSeries.from_csv(fh)
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert series.max_abs_omega[0] == pytest.approx(
            np.max(np.abs(field.values())), rel=1e-12)


class TestAaaRecord:
    @pytest.mark.parametrize("state, n", [
        (exact.PeriodicPoleState(-3.0, 1.0, 1.0).advance(0.5), 64),
        *[(exact.OnePairS1State(omega_m1_0=-2.0, v_c0=0.5).advance(t), n)
          for n in (64, 256) for t in (0.0, 0.2)]],
        ids=["circle", "line_64_t0", "line_64_t02", "line_256_t0",
             "line_256_t02"])
    def test_pole_matches_the_closed_form(self, state, n):
        # the pole i v_c in x = tan(q/2) lies at q = 2i artanh(v_c)
        record = harness._aaa_record(state.field(n), state.t)
        pole = 2j * np.arctanh(state.v_c())
        poles = np.array([complex(*p) for p in record["poles"]])
        assert record["non_converged"] is False
        assert np.min(np.abs(poles - pole)) < 1e-8
        assert record["nearest_pole_distance"] == pytest.approx(
            abs(pole.imag), abs=1e-8)

    def test_narrow_feature_is_fitted_on_every_node(self):
        # a Gaussian of width 4e-4 at N = 8192 spans a handful of nodes;
        # the fit sees all of them and meets the tolerance of its tail
        n = 8192
        x = SpectralField.from_grid(np.zeros(2 * n)).grid()
        x0 = x[n + 4]
        field = SpectralField.from_grid(
            np.sin(x) + np.exp(-(((x - x0) / 4e-4) ** 2)))
        record = harness._aaa_record(field, 0.0)
        assert record["non_converged"] is False
        assert record["max_error"] <= record["tol"] * np.max(
            np.abs(field.values()))


class TestEmitPlots:
    def _series(self, status):
        rows = []
        for t in np.linspace(0.0, 1.0, 20):
            amp = np.exp(5.0 * t)
            rows.append(dict(t=t, max_abs_omega=amp, delta_x=0.3 * (1.1 - t),
                             p_fit=0.0, l2=amp, b0=amp, energy=1.0,
                             n_modes=256))
        return TimeSeries.from_rows(rows, status)

    def test_collapse_run_gets_four_scripts(self, tmp_path):
        self._series(TerminalStatus.COLLAPSE_DETECTED).to_csv(
            str(tmp_path / "series.csv"))
        paths = emit_plots(tmp_path)
        names = sorted(Path(p).name for p in paths)
        assert names == ["plot_amplitude.py", "plot_delta.py",
                         "plot_profile.py", "plot_spectrum.py"]

    def test_global_run_gets_two_scripts(self, tmp_path):
        self._series(TerminalStatus.REACHED_T_END).to_csv(
            str(tmp_path / "series.csv"))
        names = sorted(Path(p).name for p in emit_plots(tmp_path))
        assert names == ["plot_amplitude.py", "plot_delta.py"]

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="series.csv"):
            emit_plots(tmp_path)

    @pytest.fixture
    def pyplot_calls(self, monkeypatch):
        """matplotlib is not a dependency: the generated scripts get a
        pyplot whose every function does nothing but record its call."""
        calls = []
        plt = types.ModuleType("matplotlib.pyplot")
        plt.__getattr__ = lambda name: (
            lambda *args, **kwargs: calls.append((name, args)))
        mpl = types.ModuleType("matplotlib")
        mpl.pyplot = plt
        monkeypatch.setitem(sys.modules, "matplotlib", mpl)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
        return calls

    def test_scripts_run_on_a_collapse_run(self, tmp_path, monkeypatch,
                                           pyplot_calls):
        # fit.json holds a collapse fit, so all four scripts are emitted
        monkeypatch.setenv("GCLM_OUTPUT_ROOT", str(tmp_path))
        out = Path(run(parse_config(COLLAPSE_CFG))["series"]).parent
        for path in emit_plots(out):
            namespace = {"__file__": path, "__name__": "__main__"}
            exec(compile(Path(path).read_text(), path, "exec"), namespace)
            assert namespace["fit"]["collapse"]
        pngs = [Path(args[0]).name for name, args in pyplot_calls
                if name == "savefig"]
        assert sorted(pngs) == ["amplitude.png", "delta.png", "profile.png",
                                "spectrum.png"]

    @pytest.mark.parametrize("n", [64, 32768])
    def test_snapshot_loader_matches_field_values(self, tmp_path,
                                                  pyplot_calls, n):
        rng = np.random.default_rng(n)
        snap = tmp_path / "snapshot_final.txt"
        write_snapshot(SpectralField.from_grid(rng.standard_normal(2 * n)),
                       np.float64(0.75), str(snap))
        script = tmp_path / "plot_profile.py"
        script.write_text(harness._PLOT_HEADER)
        namespace = {"__file__": str(script), "__name__": "plot_profile"}
        exec(compile(script.read_text(), str(script), "exec"), namespace)
        t, n_read, _, x, vals = namespace["load_snapshot"](snap.name)
        field, t_ref = read_snapshot(str(snap))
        assert (t, n_read) == (t_ref, n)
        assert np.allclose(x, field.grid(), rtol=0.0, atol=1e-15)
        ref = field.values()
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert gclm.__version__ == project["version"]


class TestCli:
    def test_run_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GCLM_OUTPUT_ROOT", str(tmp_path))
        cfg = tmp_path / "exact.cfg"
        cfg.write_text(EXACT_CFG)
        assert cli.main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "fit:" in out and "manifest:" in out

    def test_plots_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GCLM_OUTPUT_ROOT", str(tmp_path))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG.replace("t_end = 1.2", "t_end = 0.05"))
        assert cli.main(["run", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["plots", str(tmp_path / "simrun")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert any(p.endswith("plot_amplitude.py") for p in printed)

    def test_user_errors_end_with_a_message(self, tmp_path, monkeypatch,
                                            capsys):
        # exit status 2 and one line on stderr, no traceback
        def error(argv):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
            return capsys.readouterr().err

        monkeypatch.setenv("GCLM_OUTPUT_ROOT", str(tmp_path))
        missing = tmp_path / "nonexistent.cfg"
        assert error(["run", str(missing)]) == (
            f"gclm: error: config file not found: {missing}\n")
        # a probe held at N = 64 hits the cap: the sweep is undecided
        rows = "a=0.5 sigma=1 lo=3 hi=4 tol=0.1 n_max=64 validate=0"
        assert error(["table1", "--rows", rows]).startswith(
            "gclm: error: probe at amplitude 3.5 ended ResolutionCapHit: "
            "tail/peak = ")
        # both endpoints decay below the threshold
        rows = "a=0.5 sigma=1 lo=1 hi=2 tol=0.5 t_end=1"
        assert error(["table1", "--rows", rows]) == (
            "gclm: error: upper endpoint 2.0 does not blow up\n")
        # a pole family's [initial] key or value it does not take
        cfg = tmp_path / "bad.cfg"
        for family, line, message in [
                ("schochet", "x1_o = 0,-1", "SchochetState.__init__() got "
                 "an unexpected keyword argument 'x1_o'"),
                ("schochet", "corrected = false", "SchochetState.__init__() "
                 "got an unexpected keyword argument 'corrected'"),
                ("doublepole", "v_c0 = -1.0",
                 "v_c0 must be positive, got -1.0")]:
            cfg.write_text(EXACT_CFG.replace("family = schochet",
                                             f"family = {family}\n{line}"))
            assert error(["run", str(cfg)]) == (
                f"gclm: error: [initial] section invalid: {message}\n")
        # a table1 row that does not parse or names an invalid control
        assert error(["table1", "--rows", "a=0.5 sigma"]) == (
            "gclm: error: bad row item 'sigma'; expected key=value\n")
        assert error(["table1", "--rows", "a=0.5 sigma=1 lo=3 hi=4 n0=100"]) \
            == ("gclm: error: row 0 invalid: n0 must be a power of two >= 8, "
                "got 100\n")
        # a table1 row whose bracket or tolerance is invalid
        assert error(["table1", "--rows", "a=0.5 sigma=1 lo=4 hi=3"]) == (
            "gclm: error: row 0 invalid: sweep.bracket_lo/bracket_hi must "
            "be finite numbers with 0 < lo < hi\n")
        assert error(["table1", "--rows", "a=0.5 sigma=1 lo=3 hi=4 tol=-1"]) \
            == ("gclm: error: row 0 invalid: sweep.tol must be a positive "
                "finite number\n")

    def test_parse_row(self):
        row = cli._parse_row("a=0.5 sigma=1 nu=1 lo=3 hi=4 tol=0.1")
        assert row == {"a": 0.5, "sigma": 1.0, "nu": 1.0,
                       "lo": 3.0, "hi": 4.0, "tol": 0.1}

    def test_parse_row_rejects_bad_items(self):
        with pytest.raises(ValueError, match="expected key=value"):
            cli._parse_row("a=0.5 sigma")
        with pytest.raises(ValueError, match="missing lo="):
            cli._parse_row("a=0.5 sigma=1 hi=4")


class TestImportBudget:
    """No scipy in a gclm process, checked in a fresh interpreter so that
    the suite's own imports cannot hide a module-level import: each scipy
    subpackage costs about 0.5 s and 50 MB to load."""

    def scipy_loaded(self, code, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(gclm.__file__).parents[1]),
               "GCLM_OUTPUT_ROOT": str(tmp_path), "OPENBLAS_NUM_THREADS": "1"}
        code += ("\nimport sys\nprint(*(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_simulate_loads_no_scipy(self, tmp_path):
        # criterion 05's small data: pure time stepping
        assert self.scipy_loaded(
            "from gclm import GclmParams, RunControls, simulate\n"
            "from gclm.harness import two_mode_field\n"
            "simulate(two_mode_field(0.1, 64), GclmParams(a=0.5, sigma=1.0,"
            " nu=1.0), RunControls(t_end=1.0, n0=64))", tmp_path) == set()

    def test_collapse_run_loads_no_scipy(self, tmp_path):
        # it collapses, so the AAA fit and the collapse fit run too, in
        # numpy
        assert self.scipy_loaded(
            f"import json\nfrom gclm import harness\n"
            f"arts = harness.run(harness.parse_config({COLLAPSE_CFG!r}))\n"
            f"assert json.load(open(arts['fit']))['collapse']", tmp_path) \
            == set()

    def test_oracle_set_up_loads_no_scipy(self, tmp_path):
        # the line oracles' closed forms: the double pole's trajectory and
        # the root search of the two-pair and periodic classifications
        assert self.scipy_loaded(
            "from gclm import exact\n"
            "st = exact.DoublePoleState(omega_m2_0=4.0)\n"
            "st.advance(0.25 * st.classify().t_c)\n"
            "exact.TwoPairS1State(omega_m1_1_0=-2.1, omega_m1_2_0=2.1)"
            ".classify()\n"
            "exact.PeriodicPoleState(omega_m1_0=-3+0.5j, v_c0=1+0.2j)"
            ".classify()", tmp_path) == set()