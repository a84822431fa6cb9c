"""Benchmark of the taylorlaw command line on two seeded workloads.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload many_small --seed 1 --seconds 55 --trace 0

``--trace 0`` runs the workload's commands as fresh ``python -m taylorlaw``
subprocesses, one after another (a single client in a closed loop), and
reports the end-to-end metrics. ``--trace 1`` runs the same argv lists
in-process through ``taylorlaw.cli.main`` with spans around each layer and
reports the per-layer metrics. The last stdout line is the result object;
the lines before it give the details (environment, per-command digests and
sample counts).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread for the children and for the in-process run, so that a
# command's time does not depend on how many of the shared cores are free.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# The benchmark and every child it starts run on one CPU, so the calibration
# loop below measures the CPU the children run on: the speeds of the shared
# CPUs move apart by up to 1.5x for seconds at a time.
CPUS = os.sched_getaffinity(0)
CPU = min(CPUS)
os.sched_setaffinity(0, {CPU})

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES_PER_PASS = 2
IMPORTTIME_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0

# A shared host can run interpreter-bound code up to 2x slower in phases that
# last from seconds to minutes, longer than a run. A fixed pure-Python loop,
# timed after every child, tracks that speed: on 2 shared x86-64 cores, the
# times of two unrelated pure-Python loops each moved 2x between 10-second
# bins while their ratio moved by 7% (quartile spread over median). Every
# end-to-end time is scaled to the speed at which the loop takes
# NOMINAL_CALIBRATION_S; the raw times are in the details.
NOMINAL_CALIBRATION_S = 0.02
CALIBRATION_TEXT = "\n".join(
    ",".join(str((i * 7919 + j * 104729) % 100003 / 8) for j in range(10))
    for i in range(6000)
)


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], stdout_path: Path) -> tuple[int, float, float, bytes, bytes]:
    """Run one child; returns status, wall seconds, peak RSS in MB, stdout, stderr.

    Output goes to files, so the child never blocks on a full pipe, and the
    child is reaped with ``os.wait4`` to read its own resource usage.
    """
    err_path = stdout_path.with_suffix(".err")
    with stdout_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # Popen must know the child is reaped, or it would wait for the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,
        stdout_path.read_bytes(),
        err_path.read_bytes(),
    )


def calibration_s() -> float:
    """Median time of three runs of a fixed CSV-like parse in this process."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        totals: dict[int, float] = {}
        for line in CALIBRATION_TEXT.split("\n"):
            for j, cell in enumerate(line.split(",")):
                totals[j] = totals.get(j, 0.0) + float(cell)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Scales a child's wall time by the calibration loop timed on both
    sides of it; the loop after one child is the loop before the next."""

    def __init__(self):
        self.last = calibration_s()

    def scale(self, wall: float) -> float:
        before, self.last = self.last, calibration_s()
        return wall * NOMINAL_CALIBRATION_S / ((before + self.last) / 2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(CPUS),
        "pinned_cpu": CPU,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def check_source() -> None:
    if not (SRC / "taylorlaw" / "__init__.py").is_file():
        sys.exit(f"error: no taylorlaw sources under {SRC}; run from a source checkout")


def check_import(work: Path) -> None:
    """Import once, untimed: compiles the sources and confirms that the
    package comes from this checkout."""
    probe = "import taylorlaw, sys; sys.stdout.write(taylorlaw.__file__)"
    status, _, _, out, err = run_child(["-c", probe], work / "probe.out")
    if status != 0 or not Path(out.decode()).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: taylorlaw does not import from {SRC}: {err.decode()[-500:]}")


def setup_samples(work: Path, count: int, speed: HostSpeed) -> list[tuple[float, float]]:
    """Raw and scaled wall times of fresh interpreters that only import
    taylorlaw."""
    samples = []
    for _ in range(count):
        status, wall, _, _, _ = run_child(["-c", "import taylorlaw"], work / "probe.out")
        if status != 0:
            sys.exit("error: import taylorlaw failed")
        samples.append((wall, speed.scale(wall)))
    return samples


class Run:
    """Passes over one workload's commands, with checks and digests."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.speed = HostSpeed()

    def record(self, cmd: workloads.Command, status: int, out: bytes, err: bytes,
               where: str) -> None:
        """Count one attempt; a failure is a non-zero exit, a wrong answer,
        or stdout that differs from the first pass of this run."""
        self.attempted += 1
        problem = None
        if status != 0:
            problem = f"exit {status}: {err.decode(errors='replace')[-300:]}"
        elif cmd.name not in self.digests:
            try:
                cmd.check(out)
            except (workloads.CheckError, KeyError, IndexError, ValueError, TypeError) as exc:
                problem = f"known-answer check: {exc!r}"
            self.digests[cmd.name] = sha256(out)
        elif sha256(out) != self.digests[cmd.name]:
            problem = "stdout differs from the first pass"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{where} {cmd.name}: {problem}")

    def subprocess_pass(self) -> list[tuple[float, float, float]]:
        """One closed-loop pass; returns (raw wall s, scaled wall s, peak RSS
        MB) per command."""
        samples = []
        for cmd in self.workload.commands:
            status, wall, rss, out, err = run_child(
                ["-m", "taylorlaw", *cmd.argv], self.work / f"{cmd.name}.out"
            )
            samples.append((wall, self.speed.scale(wall), rss))
            self.record(cmd, status, out, err, "subprocess")
        return samples

    def inprocess_pass(self, recorder: spans.Recorder, flip: int) -> tuple[float, float, int]:
        """Run every command in-process twice, untraced and traced, back to
        back in alternating order, so both see the same load on the shared
        cores. Returns the untraced and traced wall times and stdout bytes."""
        walls = [0.0, 0.0]
        nbytes = 0
        for i, cmd in enumerate(self.workload.commands):
            recorder.command = i
            for traced in (1, 0) if (i + flip) % 2 else (0, 1):
                if traced:
                    recorder.install()
                try:
                    start = time.perf_counter()
                    status, out, err = spans.run_main(
                        list(cmd.argv), recorder if traced else None
                    )
                    walls[traced] += time.perf_counter() - start
                finally:
                    recorder.uninstall()
                nbytes += len(out) if traced else 0
                self.record(cmd, status, out, err, "traced" if traced else "in-process")
        return walls[0], walls[1], nbytes


def keep_going(start: float, seconds: float, cycles: list[float], least: int) -> bool:
    """Start another cycle if fewer than ``least`` ran or a typical one
    still fits in the window."""
    if len(cycles) < least:
        return True
    return time.perf_counter() - start + statistics.median(cycles) <= seconds


def end_to_end(run: Run, seconds: float, work: Path) -> tuple[dict, dict]:
    # Two passes at least, so every run checks that stdout repeats. Import
    # samples sit between passes, so a burst of load on the shared cores
    # does not land on all of them.
    start = time.perf_counter()
    passes: list[list[tuple[float, float, float]]] = []
    setup: list[tuple[float, float]] = []
    cycles: list[float] = []
    while keep_going(start, seconds, cycles, 2):
        begin = time.perf_counter()
        passes.append(run.subprocess_pass())
        setup.extend(setup_samples(work, SETUP_SAMPLES_PER_PASS, run.speed))
        cycles.append(time.perf_counter() - begin)
    # Each command's median over the passes, scaled to the nominal speed.
    scaled = [statistics.median(p[i][1] for p in passes) for i in range(len(passes[0]))]
    metrics = {
        "wall_s": sum(scaled),
        "cmd_p50_s": statistics.median(scaled),
        "cmd_max_s": max(scaled),
        "peak_rss_mb": statistics.median(max(r for _, _, r in p) for p in passes),
        "setup_s": statistics.median(s for _, s in setup),
    }
    names = [c.name for c in run.workload.commands]
    details = {
        "passes": len(passes),
        "cmd_samples": sum(len(p) for p in passes),
        "setup_samples": len(setup),
        "pass_cmd_wall_s": [[w for w, _, _ in p] for p in passes],
        "pass_cmd_scaled_s": [[s for _, s, _ in p] for p in passes],
        "setup_samples_s": [w for w, _ in setup],
        "setup_scaled_s": [s for _, s in setup],
        "commands": {
            n: {
                "sha256": run.digests.get(n),
                "median_wall_s": statistics.median(p[i][0] for p in passes),
                "median_scaled_s": scaled[i],
                "peak_rss_mb": max(p[i][2] for p in passes),
            }
            for i, n in enumerate(names)
        },
    }
    return metrics, details


def parse_importtime(stderr: str) -> dict[str, float]:
    """Startup shares from ``python -X importtime -c 'import taylorlaw'``."""
    entries = []  # (depth, name, self us, cumulative us), children first
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum_us, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(head.split(":")[1]), int(cum_us)))

    def parent(i: int) -> str | None:
        depth = entries[i][0]
        for d, name, _, _ in entries[i + 1 :]:
            if d < depth:
                return name
        return None

    def top(prefix: str) -> float:
        total = 0
        for i, (_, name, _, cum) in enumerate(entries):
            up = parent(i)
            if name.split(".")[0] == prefix and (up is None or up.split(".")[0] != prefix):
                total += cum
        return total / 1e6

    return {
        "startup.import_s": top("taylorlaw"),
        "startup.numpy_s": top("numpy"),
        "startup.scipy_s": top("scipy"),
        "startup.taylorlaw_s": sum(
            s for _, n, s, _ in entries if n.split(".")[0] == "taylorlaw"
        ) / 1e6,
    }


def per_layer(run: Run, seconds: float, work: Path) -> tuple[dict, dict]:
    startup = []
    for _ in range(IMPORTTIME_SAMPLES):
        status, _, _, _, err = run_child(
            ["-X", "importtime", "-c", "import taylorlaw"], work / "importtime.out"
        )
        if status != 0:
            sys.exit("error: import taylorlaw failed")
        startup.append(parse_importtime(err.decode()))

    # The untraced subprocess pass fixes the reference digests that every
    # in-process pass, traced or not, must reproduce.
    start = time.perf_counter()
    run.subprocess_pass()
    # Import the package here, so no in-process pass pays for it.
    sys.path.insert(0, str(SRC))
    importlib.import_module("taylorlaw.cli")
    recorder = spans.Recorder()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    traced: list[dict[str, float]] = []
    while keep_going(start, seconds, [a + b for a, b in zip(plain_walls, traced_walls)], 1):
        recorder.spans.clear()
        plain, wall, nbytes = run.inprocess_pass(recorder, len(traced))
        plain_walls.append(plain)
        traced_walls.append(wall)
        m = spans.layer_metrics(recorder.spans)
        m["cli.report_bytes"] = nbytes
        gap = abs(spans.self_time_sum(m) - m["cli.main_s"])
        if gap > 1e-6 * max(m["cli.main_s"], 1.0):
            run.problems.append(f"self times miss cli.main_s by {gap:.3g} s")
        traced.append(m)

    metrics = {k: statistics.median(s[k] for s in startup) for k in startup[0]}
    for key in traced[0]:
        metrics[key] = statistics.median(m[key] for m in traced)
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(plain_walls)
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain_walls),
        "importtime_samples": len(startup),
        "traced_pass_wall_s": traced_walls,
        "untraced_pass_wall_s": plain_walls,
        "commands": {n: {"sha256": d} for n, d in run.digests.items()},
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_source()
    units = declared_units("per_layer" if args.trace else "end_to_end")

    with tempfile.TemporaryDirectory(prefix=".taylorbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        run = Run(workload, work)
        check_import(work)
        measure = per_layer if args.trace else end_to_end
        metrics, details = measure(run, args.seconds, work)

    if set(units) != set(metrics):
        sys.exit(f"error: measured metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    details.update(
        workload=workload.name,
        why=workload.why,
        seed=args.seed,
        environment=environment(),
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
    )
    print(json.dumps(details, indent=1))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
