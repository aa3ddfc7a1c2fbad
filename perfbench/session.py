"""Running one workload session, as subprocesses or in-process.

A session is a fixed list of `delaymac` commands. Every session runs in a
fresh directory under the benchmark's work directory: each command's working
directory lives there, `DELAYMAC_CONFIG_DIR` is "." and every output path is
relative, so no `calibration.json` can leak between sessions and a rerun's
outputs (manifests included) compare byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CONFIG_DIR_ENV = "DELAYMAC_CONFIG_DIR"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after `python -m delaymac`."""

    label: str
    workdir: str
    argv: Tuple[str, ...]
    outputs: Tuple[str, ...]  # files the command must write, relative to workdir
    expect_exit: int = 0


@dataclass
class Plan:
    """A workload session: its commands, the input files written before them,
    and the work units one session performs."""

    commands: List[Command]
    files: Dict[str, str] = field(default_factory=dict)  # path under the run dir -> text
    work: int = 1
    data: dict = field(default_factory=dict)  # generated inputs the checks need


@dataclass
class Result:
    command: Command
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: Optional[float] = None
    cpu_s: Optional[float] = None


def program_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env[CONFIG_DIR_ENV] = "."
    return env


def spawn(argv: Sequence[str], cwd: Path, env: Dict[str, str], log_stem: Path,
          timeout_s: float) -> Tuple[int, float, float, float]:
    """Run `python -m delaymac <argv>` to completion.

    Returns (exit code, wall seconds, peak RSS in MB, CPU seconds). The child is reaped
    with os.wait4 for its resource usage; a child still running after
    timeout_s is killed.
    """
    with open(log_stem.with_suffix(".out"), "wb") as out, open(log_stem.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "delaymac", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def _prepare(plan: Plan, session_dir: Path) -> Path:
    run_dir = session_dir / "run"
    for cmd in plan.commands:
        (run_dir / cmd.workdir).mkdir(parents=True, exist_ok=True)
    for rel, text in plan.files.items():
        (run_dir / rel).write_text(text)
    (session_dir / "logs").mkdir(exist_ok=True)
    return run_dir


def run_subprocess_session(plan: Plan, session_dir: Path, env: Dict[str, str],
                           deadline: float) -> Tuple[float, List[Result]]:
    """Run the session's commands one after another, each as a child process.

    Returns the session wall time (input files, every command) and the
    per-command results.
    """
    start = time.perf_counter()
    run_dir = _prepare(plan, session_dir)
    results = []
    for k, cmd in enumerate(plan.commands):
        log_stem = session_dir / "logs" / f"{k:02d}"
        code, wall, rss, cpu = spawn(cmd.argv, run_dir / cmd.workdir, env, log_stem,
                                     deadline - time.monotonic())
        results.append(Result(cmd, code, log_stem.with_suffix(".out").read_text(),
                              log_stem.with_suffix(".err").read_text(), wall, rss, cpu))
    session_wall = time.perf_counter() - start
    return session_wall, results


def run_inprocess_session(plan: Plan, session_dir: Path, main: Callable[[List[str]], int],
                          around: Optional[Callable] = None) -> Tuple[float, List[Result]]:
    """Replay the session's argv lists through the CLI's `main` in this process.

    `around(index, command)` may return a context manager entered around each
    command (the tracer's per-command root span).
    """
    start = time.perf_counter()
    run_dir = _prepare(plan, session_dir)
    results = []
    saved_cwd = os.getcwd()
    saved_env = os.environ.get(CONFIG_DIR_ENV)
    os.environ[CONFIG_DIR_ENV] = "."
    try:
        for k, cmd in enumerate(plan.commands):
            out, err = io.StringIO(), io.StringIO()
            scope = around(k, cmd) if around else contextlib.nullcontext()
            os.chdir(run_dir / cmd.workdir)
            t0 = time.perf_counter()
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash fails this command, as it would a child process
                    traceback.print_exc()
                    code = 1
            wall = time.perf_counter() - t0
            results.append(Result(cmd, code, out.getvalue(), err.getvalue(), wall))
    finally:
        os.chdir(saved_cwd)
        if saved_env is None:
            os.environ.pop(CONFIG_DIR_ENV, None)
        else:
            os.environ[CONFIG_DIR_ENV] = saved_env
    return time.perf_counter() - start, results


def output_digests(plan: Plan, run_dir: Path) -> Dict[Tuple[int, str], str]:
    """sha256 of every declared output, keyed by (command index, path)."""
    digests = {}
    for k, cmd in enumerate(plan.commands):
        for rel in cmd.outputs:
            path = run_dir / cmd.workdir / rel
            if path.is_file():
                h = hashlib.sha256()
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
                digests[(k, rel)] = h.hexdigest()
    return digests


def tree_snapshot(root: Path, skip: Sequence[Path]) -> Dict[str, Tuple[int, int]]:
    """(size, mtime) of every file under root, except byte-code caches, VCS
    metadata, build outputs and the directories in skip."""
    skip = {p.resolve() for p in skip}
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        dirnames[:] = [d for d in dirnames
                       if d not in ("__pycache__", ".git", ".bench_build")
                       and (here / d).resolve() not in skip]
        for name in filenames:
            path = here / name
            st = path.lstat()
            snap[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return snap


def tree_changes(before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]) -> List[str]:
    changes = [f"created {p}" for p in sorted(set(after) - set(before))]
    changes += [f"deleted {p}" for p in sorted(set(before) - set(after))]
    changes += [f"modified {p}" for p in sorted(set(before) & set(after)) if before[p] != after[p]]
    return changes
