"""Benchmark of the `delaymac` CLI: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload region-map --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is run from `src/`.
With --trace 0 the benchmark times cold starts and then whole command
sessions, each command a child process run one after another, and reports
the end-to-end metrics. With --trace 1 it replays the same argv lists
through `delaymac.cli.main` in this process, once plain and once with the
layer boundaries wrapped (see tracer.py), and reports the per-layer
metrics. Every output of every session is checked either way. The last
stdout line is the JSON result; the line before it, and a file under
perfbench/.work/results/, hold the run's record (versions, sample counts,
known defects).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

#: A run must end within 180 s; sessions stop being started well before.
RUN_BUDGET_S = 165.0
#: Cold starts timed per run for setup_s.
SETUP_SAMPLES = 5
#: Sessions a run makes at least, when a session takes under half of --seconds.
MIN_SESSIONS = 3
#: `-X importtime` samples per traced run.
IMPORT_SAMPLES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Run:
    """Checks, digests and bookkeeping shared by every session of one run."""

    def __init__(self, workload, plan, run_dir: Path):
        self.workload = workload
        self.plan = plan
        self.run_dir = run_dir
        self.attempted = 0
        self.failed_commands = set()
        self.errors = []
        self.notes = {}
        self.reference_digests = None
        self.sessions = 0

    def session_dir(self) -> Path:
        path = self.run_dir / f"session{self.sessions:03d}"
        self.sessions += 1
        path.mkdir(parents=True)
        return path

    def check(self, session_dir: Path, results, tag: str) -> None:
        from session import output_digests

        run = session_dir / "run"
        errors, notes = self.workload.check(self.plan, run, results)
        digests = output_digests(self.plan, run)
        if self.reference_digests is None:
            self.reference_digests = digests
        for (k, rel), digest in digests.items():
            if self.reference_digests.get((k, rel)) != digest:
                errors[k].append(f"{rel} differs byte for byte from the first session's")
        for k, errs in enumerate(errors):
            self.attempted += 1
            if errs:
                self.failed_commands.add((self.sessions, k))
                self.errors += [f"{tag} {self.plan.commands[k].label}: {e}" for e in errs]
        self.notes.update(notes)
        shutil.rmtree(session_dir)

    @property
    def failed(self) -> int:
        return len(self.failed_commands)


def _median_samples(samples, units=None):
    """(median, sample count) per metric; counts take a sample's own value."""
    return {key: ((statistics.median_low if units and units[key] == "count" else statistics.median)(vals),
                  len(vals))
            for key, vals in samples.items()}


def _another_session(walls, measured: float, seconds: float) -> bool:
    """Whether to start one more session: while at least half of a typical one
    fits in `seconds`, and in any case until MIN_SESSIONS have run if a session
    takes less than half of `seconds`, so that the median can reject one slow
    sample."""
    if not walls:
        return True
    typical = statistics.median(walls)
    if len(walls) < MIN_SESSIONS and typical < seconds / 2:
        return True
    return measured + typical / 2 < seconds


def measure_end_to_end(run: Run, env, seconds: float, deadline: float):
    """Cold starts, then whole sessions for about `seconds` of session time."""
    from delaymac import __version__
    from session import run_subprocess_session, spawn

    setup_dir = run.session_dir()
    version_line = f"delaymac {__version__}"
    setup = []
    for k in range(SETUP_SAMPLES + 1):
        code, wall, _, _ = spawn(["--version"], setup_dir, env, setup_dir / f"version{k}",
                              deadline - time.monotonic())
        out = (setup_dir / f"version{k}.out").read_text().strip()
        run.attempted += 1
        if code != 0 or out != version_line:
            run.failed_commands.add(("setup", k))
            run.errors.append(f"--version exited {code} printing {out!r}")
        if k:  # the first start fills the byte-code caches
            setup.append(wall)
    shutil.rmtree(setup_dir)

    rss = []
    per_command = {c.label: [] for c in run.plan.commands}
    session_walls, session_cpu = [], []
    measured = 0.0
    longest = 0.0
    while _another_session(session_walls, measured, seconds) and time.monotonic() + 1.5 * longest < deadline:
        t0 = time.monotonic()
        session_dir = run.session_dir()
        wall, results = run_subprocess_session(run.plan, session_dir, env, deadline)
        run.check(session_dir, results, f"session {run.sessions - 1}")
        session_walls.append(wall)
        rss.append(max(r.rss_mb for r in results))
        for r in results:
            per_command[r.command.label].append(r.wall_s)
        session_cpu.append(sum(r.cpu_s for r in results))
        measured += wall
        longest = max(longest, time.monotonic() - t0)
    # The median session: each command's median wall time, summed. With three
    # or more sessions, a burst of host load that slows one command once does
    # not move it.
    command_median = {label: statistics.median(v) for label, v in per_command.items()}
    wall_s = sum(command_median.values())
    stats = {"wall_s": (wall_s, len(session_walls)),
             "work_per_s": (run.plan.work / wall_s, len(session_walls)),
             "peak_rss_mb": (statistics.median(rss), len(rss)),
             "setup_s": (statistics.median(setup), len(setup))}
    detail = {"command_median_s": command_median, "command_wall_s": per_command,
              "session_wall_s": session_walls, "session_cpu_s": session_cpu, "setup_s": setup}
    return stats, detail


def measure_layers(run: Run, env, seconds: float, deadline: float):
    """Pairs of plain and traced in-process replays, then import times."""
    from delaymac import cli
    from session import run_inprocess_session
    from tracer import LAYER_METRICS, Tracer, import_times, instrument

    samples = {}
    plain_walls, traced_walls = [], []
    counts_seen = []
    last_dump = None
    measured = 0.0
    longest = 0.0
    while measured < seconds and time.monotonic() + 1.5 * longest < deadline:
        t0 = time.monotonic()
        tracer = Tracer()
        # alternate which replay goes first, so warm-up does not bias the overhead
        for traced in ((False, True) if len(plain_walls) % 2 == 0 else (True, False)):
            session_dir = run.session_dir()
            if traced:
                with instrument(tracer):
                    wall, results = run_inprocess_session(
                        run.plan, session_dir, cli.main,
                        around=lambda k, cmd: tracer.command_span(k, cmd.label))
            else:
                wall, results = run_inprocess_session(run.plan, session_dir, cli.main)
            run.check(session_dir, results, f"{'traced ' if traced else ''}replay {run.sessions - 1}")
            (traced_walls if traced else plain_walls).append(wall)
        for key, value in tracer.metrics().items():
            samples.setdefault(key, []).append(value)
        counts_seen.append(tracer.per_command_counts())
        last_dump = tracer.dump()
        measured += time.monotonic() - t0
        longest = max(longest, time.monotonic() - t0)

    imports = import_times(env, run.run_dir, IMPORT_SAMPLES, max(deadline - time.monotonic(), 5.0))
    stats = _median_samples(samples, LAYER_METRICS)
    for key, value in imports.items():
        stats[key] = (value, IMPORT_SAMPLES)
    stats["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls),
                                 len(traced_walls))
    labels = [c.label for c in run.plan.commands]
    per_command = {labels[k]: v for k, v in counts_seen[0].items() if k is not None}
    if any(c != counts_seen[0] for c in counts_seen[1:]):
        run.notes["span_counts_differ_between_replays"] = True
    trace_info = {"per_command_span_counts": per_command,
                  "plain_replay_s": plain_walls, "traced_replay_s": traced_walls}
    return stats, trace_info, last_dump


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "delaymac" / "cli.py").is_file():
        print(f"perfbench: no delaymac sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from session import program_env, tree_changes, tree_snapshot

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    before = tree_snapshot(ROOT, skip=[WORK])
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    plan = workload.plan(args.seed)
    run = Run(workload, plan, run_dir)
    env = program_env(SRC)
    dump = None
    try:
        if args.trace:
            stats, detail, dump = measure_layers(run, env, args.seconds, deadline)
        else:
            stats, detail = measure_end_to_end(run, env, args.seconds, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    changes = tree_changes(before, tree_snapshot(ROOT, skip=[WORK]))
    if changes:
        run.errors.append(f"the source tree changed during the run: {changes[:10]}")
    correct = not run.errors and run.attempted > 0
    failed = max(run.failed, 0 if correct else 1)
    if args.trace:
        from tracer import LAYER_METRICS as units
    else:
        units = END_TO_END
    metrics = {name: {"value": stats[name][0], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": workload.why, "work_unit": workload.work_unit, "work_per_session": plan.work,
        "closed_loop_clients": 1,
        "python": sys.version.split()[0], "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": os.cpu_count(), "git_sha": _git_sha(),
        "samples": {name: stats[name][1] for name in units},
        "commands_attempted": run.attempted,
        "output_sha256": {f"{plan.commands[k].label}: {rel}": digest
                          for (k, rel), digest in (run.reference_digests or {}).items()},
        "detail": detail, "notes": run.notes, "errors": run.errors[:50],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"record": record, "metrics": metrics}, indent=2) + "\n")
    if dump is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(dump) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
