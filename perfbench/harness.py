"""Runs one workload: set-up, reference, the timed CLI loop and the traced replay.

End-to-end numbers (`--trace 0`) come from `twindex` CLI subprocesses in a
closed loop: one client, each command sent only after the previous one exits.
Per-layer numbers (`--trace 1`) come from the same loop interleaved with an
in-process replay of the same steps, once untraced and once traced, so that
CLI overhead and tracing overhead are both differences of measured times.

A run makes a fixed number of loop iterations (see workloads.ITERATION_S),
so two commits draw the same number of samples. Every time is reported as
the fastest of its samples (n, the quartiles, the median and the raw samples
go to the record); pipeline_s is the fastest whole iteration. On a shared
2-vCPU host whose neighbours slow every process by up to 2x for tens of
seconds at a time, the median of a run follows the neighbours: over ten seeds
the run medians of indicate_s spread by 12-33% (IQR over median), their
minima by 5-15%. Interference only ever adds time, so the fastest sample is
the one closest to the program's own cost, and a slower program raises it all
the same. A minimum does not show a slowdown that hits only some invocations;
the record's medians do. Set-up is repeated once per loop iteration so its
samples span the run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from pipeline import Replay, check_step, cli_steps
from reference import Checker, Expected, bind, overlay, window_stats
from spans import NullTracer, Tracer
from workloads import COSTS, BUDGET, generate

# a bare interpreter's peak RSS; a reading above this means the parent's leaked in
BARE_MAX_MB = 24.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SPAN_METRICS = (
    "io_formats.parse_events", "io_formats.parse_series", "io_formats.write_events",
    "io_formats.write_series", "io_formats.plot_data", "indicator.series", "model.bind",
    "regimes.apply_scenario", "regimes.compare",
)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def fresh_dir(path: Path) -> Path:
    """Empty `path` before a timed step writes into it. On ext4, rewriting a
    file by truncating it forces writeback when it is closed, which on a
    virtual disk can stall the writer for most of a second; new files do not."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quartiles(samples: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated within the samples' range."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q3


def by_step(iterations: list[list[tuple[str, float, int]]]) -> dict[str, list[float]]:
    """Wall times of each pipeline step across iterations."""
    walls: dict[str, list[float]] = {}
    for it in iterations:
        for step, wall, _ in it:
            walls.setdefault(step, []).append(wall)
    return walls


def stats(samples: list[float]) -> dict:
    q1, q3 = quartiles(samples)
    return {"n": len(samples), "q1": q1, "median": statistics.median(samples), "q3": q3,
            "values": samples}


class WorkloadRun:
    """State of one benchmark run of one workload."""

    def __init__(self, name: str, seed: int, root: Path, launcher, tiny: bool = False):
        self.name, self.seed, self.root, self.launcher, self.tiny = name, seed, root, launcher, tiny
        # each step empties its own subdirectory, so the records of both modes stay
        self.dir = root / ".perfbench_work" / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH="src")
        self.attempted = self.cli_attempted = self.cli_failed = 0
        self.failures: list[str] = []

    def tally(self, what: str, reason: str | None, cli: bool = False) -> None:
        self.attempted += 1
        self.cli_attempted += cli
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
            self.cli_failed += cli

    # -- set-up and reference --------------------------------------------------

    def setup(self, tracer, out_name: str = "inputs") -> float:
        """Generate and write the inputs under `out_name`; return the time taken.
        The pipeline reads the set written to "inputs"."""
        out = fresh_dir(self.dir / out_name)
        tracer.iteration = "setup"
        start = perf_counter()
        inputs = generate(self.name, self.seed, out, self.tiny, tracer.span)
        wall = perf_counter() - start
        tracer.iteration = None
        if out_name == "inputs":
            self.inputs = inputs
        return wall

    def reference(self) -> None:
        inp = self.inputs
        interventions = json.loads(inp.scenario.read_text())["interventions"]
        boosted = overlay(inp.values, inp.channel_names, interventions)
        sums, live = {}, {}
        for regime, grid in (("a", boosted), ("b", inp.values)):
            sums[regime], live[regime] = window_stats(bind(grid, inp.mask, inp.reduction), inp.k)
        self.live = live
        self.checker = Checker(Expected(k=inp.k, t_max=inp.values.shape[0], header=inp.header,
                                        boosted=boosted, period_sums=sums, cost=COSTS,
                                        budget=BUDGET))

    def check(self, step: str, out: Path, stdout: str | None) -> str | None:
        """check_step, with output too malformed to parse counted as a mismatch."""
        try:
            return check_step(step, out, stdout, self.checker)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            return f"unreadable output: {type(err).__name__}: {err}"

    # -- CLI -------------------------------------------------------------------

    def cli(self, args: list[str], out: Path, tag: str) -> tuple[dict, str, str]:
        stdout, stderr = out / f"{tag}.out", out / f"{tag}.err"
        res = self.launcher.run([sys.executable, "-m", "twindex.cli", *args], stdout, stderr,
                                self.env)
        return res, stdout.read_text(), stderr.read_text()

    def bare_interpreter_check(self) -> None:
        """A bare `python -c pass` child must read as a bare interpreter, not as
        this (much larger) process."""
        out = fresh_dir(self.dir / "bare")
        res = self.launcher.run([sys.executable, "-c", "pass"], out / "pass.out",
                                out / "pass.err", self.env)
        bare_mb = res["maxrss_kb"] / 1024
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.bare_mb = bare_mb
        reason = None
        if res["exit"] != 0 or bare_mb > BARE_MAX_MB or bare_mb > own_mb / 2:
            reason = f"bare interpreter reads {bare_mb:.1f} MB (this process {own_mb:.1f} MB)"
        self.tally("peak RSS self-check", reason)

    def table1_check(self) -> None:
        """`total` on the paper's Table 1 series must print the paper's total.
        Untimed: it is a check on the CLI, not a step of the pipeline."""
        out = fresh_dir(self.dir / "table1")
        res, stdout, stderr = self.cli(["total", "--series", str(self.root / "data/table1.csv")],
                                       out, "total")
        reason = (f"exit {res['exit']}: {stderr.strip()[-200:]}" if res["exit"] != 0
                  else self.checker.table1_total(stdout))
        self.tally("cli total --series data/table1.csv", reason, cli=True)

    def cli_iteration(self) -> list[tuple[str, float, int]]:
        """One closed-loop pass of every step; (step, wall s, peak RSS kB) each."""
        out = fresh_dir(self.dir / "cli")
        done = []
        for step, args in cli_steps(self.inputs, out):
            res, stdout, stderr = self.cli(args, out, step)
            if res["exit"] != 0:
                reason = f"exit {res['exit']}: {stderr.strip()[-200:]}"
            elif "Traceback" in stdout or "Traceback" in stderr:
                reason = "traceback in output"
            else:
                reason = self.check(step, out, stdout)
            self.tally(f"cli {step}", reason, cli=True)
            done.append((step, res["wall_s"], res["maxrss_kb"]))
        return done

    def help_wall(self) -> float:
        res, stdout, _ = self.cli(["--help"], fresh_dir(self.dir / "help"), "help")
        self.tally("cli --help", None if res["exit"] == 0 and "Usage" in stdout else "no usage text",
                   cli=True)
        return res["wall_s"]

    # -- replay ----------------------------------------------------------------

    def replay(self, replay: Replay, iteration_id) -> float:
        fresh_dir(replay.out)
        start = perf_counter()
        outputs = replay.iteration(iteration_id)
        wall = perf_counter() - start
        for step, stdout in outputs.items():
            self.tally(f"replay {step}", self.check(step, replay.out, stdout))
        return wall

    # -- the two kinds of run --------------------------------------------------

    def prepare(self, tracer) -> float:
        """Set up, compute the reference and run the untimed checks; return the set-up time."""
        wall = self.setup(tracer)
        self.reference()
        self.bare_interpreter_check()
        self.table1_check()
        return wall

    def end_to_end(self, n: int) -> tuple[dict, dict]:
        tracer = NullTracer()
        setup = [self.prepare(tracer)]
        self.cli_iteration()                      # warm-up: bytecode cache, page cache
        iterations = []
        for _ in range(n):
            iterations.append(self.cli_iteration())
            setup.append(self.setup(tracer, "inputs_repeat"))
        steps = by_step(iterations)
        samples = {
            "pipeline_s": [sum(w for _, w, _ in it) for it in iterations],
            "indicate_s": steps["indicate_a"] + steps["indicate_b"],
            "scenario_s": steps["scenario"],
            "peak_rss_mb": [max(kb for _, _, kb in it) / 1024 for it in iterations],
            "setup_s": setup,
        } | {f"step.{step}_s": walls for step, walls in steps.items()}
        metrics = {
            "pipeline_s": min(samples["pipeline_s"]),
            "indicate_s": min(samples["indicate_s"]),
            "scenario_s": min(samples["scenario_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "setup_s": min(setup),
        }
        return metrics, samples

    def per_layer(self, n: int) -> tuple[dict, dict]:
        tracer = Tracer()
        self.prepare(tracer)
        plain = Replay(self.inputs, self.dir / "replay", NullTracer())
        traced = Replay(self.inputs, self.dir / "replay_traced", tracer)
        self.cli_iteration()                      # warm-up
        self.replay(plain, "warm-up")
        self.replay(traced, "warm-up")
        cli_iterations, plain_walls, traced_walls, help_walls = [], [], [], []
        for i in range(n):
            cli_iterations.append(self.cli_iteration())
            plain_walls.append(self.replay(plain, i))
            traced_walls.append(self.replay(traced, i))
            help_walls += [self.help_wall(), self.help_wall()]
            self.setup(tracer, "inputs_repeat")
        alloc = Replay(self.inputs, self.dir / "replay", NullTracer()).indicator_peak_alloc_mb()
        tracer.write(self.dir / "spans.json")

        shapes, k = traced.series_shapes, self.inputs.k
        channel_windows = sum(w * p for w, p in shapes)
        cli_walls = [sum(w for _, w, _ in it) for it in cli_iterations]
        replay_s = min(plain_walls)
        metrics = {
            "cli.startup_s": min(help_walls),
            "cli.overhead_s": min(cli_walls) - replay_s,
            "trace.overhead_s": min(traced_walls) - replay_s,
            "io_formats.bytes_read": traced.bytes_read,
            "io_formats.bytes_written": traced.bytes_written,
            "indicator.windows": sum(w for w, _ in shapes),
            "indicator.pairs": sum(w * p * p for w, p in shapes),
            "indicator.flops": sum(2 * k * p * p * w for w, p in shapes),
            "indicator.live_ratio": (self.live["a"] + self.live["b"]) / channel_windows,
            "indicator.peak_alloc_mb": alloc,
            "synth.generate_s": min(tracer.self_times_of("synth.generate", setup=True)),
        }
        samples = {"cli_iteration_s": cli_walls,
                   "replay_s": plain_walls,
                   "traced_replay_s": traced_walls, "cli.startup_s": help_walls}
        for name in SPAN_METRICS:
            samples[name + "_s"] = tracer.self_times_of(name)
            metrics[name + "_s"] = min(samples[name + "_s"])
        return metrics, samples

    def record(self, trace: int, samples: dict) -> dict:
        return {
            "workload": self.name, "seed": self.seed, "trace": trace,
            "environment": environment(),
            "samples": {k: stats(v) for k, v in samples.items()},
            "bare_interpreter_mb": self.bare_mb,
            "attempted": self.attempted, "failed": len(self.failures),
            "cli_attempted": self.cli_attempted, "cli_failed": self.cli_failed,
            "error_rate": self.cli_failed / max(self.cli_attempted, 1),
            "failures": self.failures[:20],
        }
