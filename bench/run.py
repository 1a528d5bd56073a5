"""Benchmark of the `fibered-burnside` CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop with one
client: one CLI process at a time, each started after the previous one
exits, as users run this batch tool.

--trace 0  starts CLI invocations with tracing off until S seconds have
           passed, then prints the end-to-end metrics: median wall time and
           CPU time of the child; peak RSS of the child; and set-up time
           (median of SETUP_REPEATS fresh interpreters that import the CLI
           and build the workload's input groups). Times are rescaled by
           the speed factor bench/metronome.py measures beside them.
--trace 1  runs one untraced invocation and one traced in-process
           invocation (bench/tracer.py) and prints the per-layer metrics.

Every invocation's exit code and stdout sha256 are checked against the
pins in bench/workloads.py, and every traced digest against the untraced
one; a mismatch, crash or timeout counts as a failed run. The last stdout
line is the result object; the line before it holds quartiles, sample
counts, failures and run metadata. The program's stderr goes to
bench/work/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, check_invariants, pinned_digest, prepare

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "work"
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 60     # per child; a run must end within 180 s
# Metronome loop time that maps to a speed factor of 1: about its CPU time
# beside a CLI invocation while the 2-vCPU Xeon VM that fixed it ran fast.
NOMINAL_LOOP_S = 0.0016
SETUP_CODE = ("import sys\nfrom fibered_burnside import cli\n"
              "for spec in sys.argv[1:]:\n    cli.parse_group_spec(spec)\n")


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@dataclasses.dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    sha256: str
    timed_out: bool
    stdout: Optional[bytes]


def spawn(cmd: list[str], *, keep: bool = False, err_name: str = "stderr"
          ) -> Run:
    """Run one child to exit, streaming its stdout into a sha256 (kept in
    memory only when `keep`), and read its rusage with os.wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digest = hashlib.sha256()
    kept = bytearray() if keep else None
    killed = []
    with open(WORK / f"{err_name}.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(RUN_TIMEOUT_S, kill)
        timer.start()
        try:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
                if keep:
                    kept += chunk
        except BaseException:   # e.g. SIGTERM: do not leave the child behind
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               proc.returncode, digest.hexdigest(), bool(killed),
               bytes(kept) if keep else None)


def cli_cmd(workload) -> list[str]:
    return [sys.executable, "-m", "fibered_burnside.cli", *workload.argv]


class Checker:
    """Counts attempted and failed runs against the workload's pins."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.expected = pinned_digest(workload, seed)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, run: Run, what: str) -> None:
        self.attempted += 1
        reason = None
        if run.timed_out:
            reason = "timeout"
        elif run.exit_code != self.workload.exit_code:
            reason = (f"exit {run.exit_code}, "
                      f"expected {self.workload.exit_code}")
        elif self.expected is not None and run.sha256 != self.expected:
            reason = f"stdout sha256 {run.sha256[:16]}.. is not the expected"
        elif run.stdout is not None:
            reason = check_invariants(self.workload, run.stdout)
        if self.expected is None and reason is None:
            # unpinned seed: later runs must reproduce the first digest
            self.expected = run.sha256
        if reason:
            self.failures.append(f"{what}: {reason}")
            print(f"FAILED {what}: {reason}; see {WORK}", file=sys.stderr)


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def beside_metronome(work):
    """Call `work()` while bench/metronome.py runs on the same vCPU.

    Returns its result and the speed factor, NOMINAL_LOOP_S over the mean
    metronome loop time; times multiplied by it read as if the vCPU had
    run at the nominal speed throughout."""
    probe = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "metronome.py")], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        result = work()
        out, _ = probe.communicate("stop\n", timeout=RUN_TIMEOUT_S)
    except BaseException:
        probe.kill()
        probe.wait()
        raise
    mean_loop_s, _loops = out.split()
    return result, NOMINAL_LOOP_S / float(mean_loop_s)


def run_untraced(workload, seconds: float, checker: Checker) -> dict:
    def set_up() -> list[Run]:
        return [spawn([sys.executable, "-c", SETUP_CODE,
                       *workload.setup_specs], err_name="stderr-setup")
                for _ in range(SETUP_REPEATS)]

    setup, setup_factor = beside_metronome(set_up)
    for run in setup:
        if run.exit_code != 0 or run.timed_out:
            raise SystemExit(f"set-up of {workload.name} failed "
                             f"(exit {run.exit_code}); see {WORK}")
    runs: list[Run] = []
    speed: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run, factor = beside_metronome(
            lambda: spawn(cli_cmd(workload), keep=workload.seeded))
        checker.check(run, f"run {len(runs)}")
        runs.append(run)
        speed.append(factor)
    samples = {
        "wall_s": [r.wall_s * f for r, f in zip(runs, speed)],
        "cpu_s": [r.cpu_s * f for r, f in zip(runs, speed)],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": [r.wall_s * setup_factor for r in setup],
        "raw_wall_s": [r.wall_s for r in runs],
        "raw_cpu_s": [r.cpu_s for r in runs],
        "raw_setup_s": [r.wall_s for r in setup],
        "speed_factor": speed,
        "setup_speed_factor": [setup_factor],
    }
    return {name: quartiles(values) for name, values in samples.items()}


def run_traced(workload, seed: int, checker: Checker) -> tuple[dict, dict]:
    untraced = spawn(cli_cmd(workload), keep=workload.seeded)
    checker.check(untraced, "untraced run")
    spans_file = WORK / f"trace-{workload.name}-seed{seed}.json"
    child = spawn([sys.executable, str(ROOT / "bench" / "tracer.py"),
                   workload.name, str(spans_file), "--", *workload.argv],
                  keep=True, err_name="stderr-traced")
    try:
        traced = json.loads(child.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        traced = {"exit": child.exit_code, "sha256": "", "wall_s": 0.0,
                  "metrics": {}, "sanity": {"ok": False,
                                            "detail": "tracer crashed"}}
    # After the untraced check, `expected` is that run's digest at any seed;
    # the invariants ran on the untraced report.
    checker.check(dataclasses.replace(child, exit_code=traced["exit"],
                                      sha256=traced["sha256"], stdout=None),
                  "traced run")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced.wall_s
    sanity = traced["sanity"]
    print(f"trace sanity {'PASS' if sanity['ok'] else 'FAIL'}: "
          f"{sanity['detail']}", file=sys.stderr)
    detail = {"sanity": sanity,
              "spans_file": str(spans_file.relative_to(ROOT)),
              "traced_wall_s": traced["wall_s"],
              "untraced_wall_s": untraced.wall_s,
              "top_self_s": traced.get("top_self_s", {})}
    return metrics, detail


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata() -> dict:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "src_lines": src_lines}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    prepare(workload, seed, ROOT)
    checker = Checker(workload, seed)
    if trace:
        values, extra = run_traced(workload, seed, checker)
    else:
        stats = run_untraced(workload, seconds, checker)
        values = {k: stats[k]["median"] for k in declared_units(trace)}
        extra = {"quartiles": stats}
    units = declared_units(trace)
    undeclared = set(values) ^ set(units)
    if undeclared and not checker.failures:   # a failed traced run has none
        raise SystemExit(f"metrics not as in BENCHMARK.json: {undeclared}")
    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "fail_rate": len(checker.failures) / checker.attempted,
              "failures": checker.failures, "metadata": run_metadata(),
              **extra}
    return {"detail": detail, "result": {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": values.get(k, 0), "unit": u}
                    for k, u in units.items()},
    }}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    # One vCPU for every child: the metronome must share the invocation's.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "fibered_burnside" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src'} lacks fibered_burnside",
              file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    warm = spawn([sys.executable, "-c", "import fibered_burnside.cli"],
                 err_name="stderr-import")
    if warm.exit_code != 0:
        print(f"importing fibered_burnside.cli failed; see {WORK}",
              file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        for metric, m in outcomes[name]["result"]["metrics"].items():
            print(f"{name:14s} {metric:36s} {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
    if args.workload == "all":
        (WORK / f"results-trace{args.trace}.json").write_text(
            json.dumps(outcomes, indent=1), encoding="utf-8")
        for name, outcome in outcomes.items():
            print(json.dumps({name: outcome["result"]}))
        print(json.dumps({"correct": all(o["result"]["correct"]
                                         for o in outcomes.values()),
                          "workloads": len(outcomes)}))
        return 0
    outcome = outcomes[names[0]]
    print(json.dumps({"detail": outcome["detail"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
