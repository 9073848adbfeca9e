"""Benchmark of the twindex regime-comparison pipeline.

Run from the root of a twindex checkout:

    python3 perfbench/run.py --workload wide_masked --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every metric, every workload
    python3 perfbench/run.py --self-test               # tiny shapes, checker self-test

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer ones. `--seconds` (default: run_seconds of BENCHMARK.json) is the
measured time of one workload in one mode on a 2-vCPU x86-64 host; it sets the
run's fixed iteration count through workloads.ITERATION_S. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Working files go to
`.perfbench_work/` in the checkout; `spans.json` and `record-trace<n>.json`
there hold the spans and the full result record of the last run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Launcher:
    """Client of spawner.py, which must start before this process grows (see there)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, env: dict) -> dict:
        req = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "env": env}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("process launcher exited")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _print_metrics(workload: str, metrics: dict, units: dict, samples: dict, moves: dict) -> None:
    for name, value in metrics.items():
        line = f"{workload:13s} {name:28s} {value:14.6g} {units[name]}"
        s = samples.get(name)
        if s is not None:
            line += f"  (n={s['n']}, q1={s['q1']:.6g}, median={s['median']:.6g}, q3={s['q3']:.6g})"
        if moves.get(name):
            line += "  -> " + "; ".join(moves[name])
        print(line)


def run_one(launcher, root: Path, bench: dict, moves: dict, workload: str, seed: int,
            seconds: int, trace: int):
    """Run one workload in one mode; print its metrics and record; return the result."""
    from harness import WorkloadRun
    from workloads import ITERATION_S

    run = WorkloadRun(workload, seed, root, launcher)
    n = max(2, round(seconds / ITERATION_S[workload][trace]))
    metrics, samples = run.per_layer(n) if trace else run.end_to_end(n)
    listed = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    record = run.record(trace, samples)
    (run.dir / f"record-trace{trace}.json").write_text(json.dumps(record, indent=1))
    ordered = {m["name"]: metrics[m["name"]] for m in listed}
    _print_metrics(workload, ordered, units, record["samples"], moves)
    print(f"{workload:13s} error_rate {record['error_rate']:.6g} "
          f"({record['cli_failed']}/{record['cli_attempted']} CLI invocations)")
    for failure in record["failures"]:
        print(f"{workload:13s} FAILED {failure}")
    print("record " + json.dumps(record))
    return run.attempted, len(run.failures), ordered, units


def self_test(launcher, root: Path) -> int:
    """Each workload at a tiny shape must pass its checks, and the checker must
    reject a series file with one period sum perturbed by a relative 1e-6."""
    from harness import WorkloadRun
    from pipeline import Replay
    from spans import Tracer
    from workloads import NAMES

    ok = True
    for name in NAMES:
        run = WorkloadRun(name, 7, root, launcher, tiny=True)
        tracer = Tracer()
        run.prepare(tracer)
        run.cli_iteration()
        run.replay(Replay(run.inputs, run.dir / "replay", tracer), 0)
        series = run.dir / "cli" / "series_a.csv"
        lines = series.read_text().split("\n")
        t, v = lines[1].split(",")
        lines[1] = f"{t},{float(v) * (1 + 1e-6)!r}"
        rejected = run.checker.series("\n".join(lines), "a") is not None
        passed = not run.failures and rejected
        ok &= passed
        print(f"self-test {name}: {run.attempted} checks, {len(run.failures)} failed, "
              f"perturbed series {'rejected' if rejected else 'ACCEPTED'} -> "
              f"{'ok' if passed else 'FAIL'}")
        for failure in run.failures:
            print(f"  {failure}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="long_history, wide_masked, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured time of one workload in one mode (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics (ignored with all)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/twindex/cli.py", "data/table1.csv"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a twindex checkout",
                  file=sys.stderr)
            return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    moves = {
        name: [f"{m['metric']} on {m['workload']}" for m in entry["moves"]]
        for name, entry in json.loads((HERE / "layers.json").read_text()).items()
    }

    # One BLAS thread, for the CLI children and the in-process replay alike: on
    # a host where a neighbour can slow one vCPU, a two-thread matrix product
    # runs at the slower one's pace (wide_masked's indicate_s went bimodal,
    # 0.67 s and 1.0 s, while the single-threaded steps of the same runs did not).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    with Launcher() as launcher:
        # numpy and twindex are imported only now, after the launcher started
        sys.path.insert(0, str(root / "src"))
        if args.self_test:
            return self_test(launcher, root)
        from workloads import NAMES

        if args.workload == "all":
            total_attempted = total_failed = 0
            combined = {}
            for workload in NAMES:
                for trace in (0, 1):
                    attempted, failed, metrics, units = run_one(
                        launcher, root, bench, moves, workload, args.seed, seconds, trace)
                    total_attempted += attempted
                    total_failed += failed
                    combined.update({f"{workload}/{k}": {"value": v, "unit": units[k]}
                                     for k, v in metrics.items()})
            result = {"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}
        elif args.workload in NAMES:
            attempted, failed, metrics, units = run_one(
                launcher, root, bench, moves, args.workload, args.seed, seconds, args.trace)
            result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        else:
            parser.error(f"unknown workload {args.workload!r}; choose from {NAMES} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
