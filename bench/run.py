#!/usr/bin/env python3
"""gclm benchmark: three paper workloads timed end to end.

Usage, from the root of a source checkout (gclm is imported from ./src)::

    python3 bench/run.py                                   # all three
    python3 bench/run.py --workload circle_collapse --seed 1 --seconds 30
    python3 bench/run.py --workload line_oracle --trace 1  # per-layer

A run repeats whole rounds of its workload's operations for about
``--seconds`` seconds in one process, with no added threads, and checks
every result.  With ``--trace 0`` it reports the end-to-end metrics:
``wall_s`` (median time of one round, from the end of set-up to the
checked result of every operation), ``setup_s`` (median of several
set-ups, each importing gclm in a fresh interpreter and building the
config, initial data and oracle states) and ``peak_rss_mb``.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of bench/tracing.py; spans are written to bench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("circle_collapse", "line_oracle", "small_data_decay")

#: set-ups timed per run, each in a fresh interpreter
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# Times one set-up in a fresh interpreter.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}]()
print(repr(time.perf_counter() - t0))
"""

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """gclm could not be imported from the checkout's source tree."""


def load_workload(name: str):
    """Import gclm from ./src and build the workload (untimed)."""
    if not os.path.isfile(os.path.join(SRC, "gclm", "__init__.py")):
        raise SetupError(f"no gclm package under {SRC}")
    if SRC not in sys.path:
        sys.path[:0] = [SRC, BENCH_DIR]
    import gclm
    if not os.path.abspath(gclm.__file__).startswith(SRC + os.sep):
        raise SetupError(f"gclm imported from {gclm.__file__}, not {SRC}")
    import workloads
    return workloads.WORKLOADS[name]()


def fresh_setup_time(name: str) -> float:
    code = SETUP_PROBE.format(src=SRC, bench=BENCH_DIR, name=name)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    import numpy
    import scipy
    import gclm

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import tomllib
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
    except (ImportError, OSError, KeyError) as e:
        declared = f"unreadable ({e!r})"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gclm_pyproject_version": declared,
        "gclm___version__": gclm.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Operations attempted and failed, and failed checks, of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.bad_checks: list[str] = []

    def run_round(self, tracer=None) -> tuple[float, int]:
        """One round of the workload: its wall time in seconds and, when
        traced, the index of its root span."""
        scratch = tempfile.mkdtemp(prefix="round-", dir=OUT_DIR)
        try:
            t0 = time.perf_counter()
            root = tracer.open(f"bench.{self.wl.name}.round") \
                if tracer else -1
            for op, call in self.wl.operations(scratch):
                span = tracer.open(f"bench.{self.wl.name}.{op}") \
                    if tracer else -1
                self.attempted += 1
                try:
                    bad = call()
                except Exception as e:  # the operation failed
                    self.failed += 1
                    self.errors.setdefault(op, f"{type(e).__name__}: {e}")
                    bad = []
                finally:
                    if tracer:
                        tracer.close(span)
                self.bad_checks += [f"{op}: {b}" for b in bad]
            if tracer:
                tracer.close(root)
            return time.perf_counter() - t0, root
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def report(self) -> None:
        for op, msg in self.errors.items():
            note = self.wl.known_faults.get(op, "not a known fault")
            print(f"  FAILED {self.wl.name}.{op}: {msg[:200]} [{note}]")
        for b in self.bad_checks[:20]:
            print(f"  CHECK FAILED {self.wl.name}.{b}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(wl, seconds: float) -> tuple[Tally, list[float], float]:
    """Whole rounds for about ``seconds``; also returns the peak RSS
    through the first round (later rounds only add allocator growth, which
    would make the figure depend on how many rounds fit)."""
    tally, walls = Tally(wl), []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) \
            <= t_end:
        walls.append(tally.run_round()[0])
        if len(walls) == 1:
            rss = peak_rss_mb()
    return tally, walls, rss


def run_traced(wl, seconds: float):
    """Alternate untraced and traced rounds; per-layer medians."""
    import tracing

    tally, plain, traced, rounds, violations = Tally(wl), [], [], [], []
    tracer = tracing.Tracer()
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() + statistics.median(plain) \
            + statistics.median(traced) <= t_end:
        plain.append(tally.run_round()[0])
        tracer.install()
        try:
            # a traced set-up (gclm already imported), then a traced round
            setup_root = tracer.open(f"bench.{wl.name}.setup")
            tally.wl = type(wl)()
            tracer.close(setup_root)
            _, root = tally.run_round(tracer)
        finally:
            tracer.uninstall()
        m = tracing.layer_metrics(tracer, root, len(tracer.start))
        setup = tracing.layer_metrics(tracer, setup_root, root)
        for k in ("exact.classify_s", "exact.advance_s", "exact.field_s"):
            m[k] += setup[k]
        m["trace.setup_s"] = setup["trace.wall_s"]
        traced.append(m["trace.wall_s"])
        rounds.append(m)
        violations += tracing.self_check(m)
    absent = tracer.absent()
    # counts repeat exactly from round to round; keep them whole numbers
    metrics = {k: (statistics.median_low if isinstance(v, int)
                   else statistics.median)([r[k] for r in rounds])
               for k, v in rounds[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    metrics["trace.absent_layers"] = len(absent)
    metrics["trace.selfcheck_ok"] = int(not violations)
    return tally, metrics, {"tracer": tracer, "rounds": rounds,
                            "violations": violations, "absent": absent,
                            "plain_walls": plain}


def bench_one(name: str, args) -> dict:
    wl = load_workload(name)
    env = environment(args)
    print("env: " + json.dumps(env))
    setups = [fresh_setup_time(name) for _ in range(SETUP_SAMPLES)]
    os.makedirs(OUT_DIR, exist_ok=True)
    if not args.trace:
        tally, walls, rss = run_plain(wl, args.seconds)
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
        print(f"{name}: {len(walls)} rounds, wall_s per round "
              + ", ".join(f"{w:.4f}" for w in walls)
              + "; setup_s samples " + ", ".join(f"{s:.4f}" for s in setups))
    else:
        import tracing

        tally, values, extra = run_traced(wl, args.seconds)
        units = tracing.METRIC_UNITS
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
        base = os.path.join(OUT_DIR, f"trace-{name}")
        extra["tracer"].save(base + ".npz")
        with open(base + ".json", "w") as fh:
            json.dump({"workload": name, "env": env, "metrics": values,
                       "rounds": extra["rounds"],
                       "plain_round_walls": extra["plain_walls"],
                       "selfcheck_violations": extra["violations"],
                       "absent_layers": extra["absent"],
                       "fft_gflop_note": tracing.FLOPS_NOTE}, fh, indent=1)
        print(f"{name}: spans written to {base}.npz")
        for n in extra["absent"]:
            print(f"  ABSENT layer {n}: its metrics read 0", file=sys.stderr)
        for v in extra["violations"]:
            print(f"  SELF-CHECK FAILED {name}: {v}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k} = {m['value']!r} {m['unit']}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    tally.report()
    return {"correct": not tally.bad_checks
            and tally.attempted > tally.failed,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: every input is closed-form")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One BLAS thread, set before numpy loads (the set-up interpreters
    # inherit it): OpenBLAS's own pool, used by the AAA fit, slows several
    # fold when another process holds a core, which would swamp the timings.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: bench_one(name, args) for name in names}
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as e:
        print(f"bench: set-up failed in a fresh interpreter:\n{e.stderr}",
              file=sys.stderr)
        return 2
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
