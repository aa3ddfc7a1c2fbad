"""Per-layer tracing from the benchmark's side of each layer boundary.

The program itself is not instrumented. For a traced replay the benchmark
wraps the functions through which the CLI calls into each module, records a
span (name, start, end, parent, command) or a count at each wrapper, and
restores the originals afterwards. Spans live in memory until the run ends.
Layers are named after the package's modules: config, design_space,
multiplier, jitter, cell, cli (output writing) and units; import is measured
separately with `python -X importtime`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

#: Per-layer metrics this module reports, with their units.
LAYER_METRICS = {
    "import.delaymac_s": "s",
    "import.scipy_s": "s",
    "config.resolve_s": "s",
    "design_space.tables_builds": "count",
    "design_space.max_bits_calls": "count",
    "design_space.max_bits_s": "s",
    "design_space.target_evals": "count",
    "design_space.calibrate_s": "s",
    "design_space.region_s": "s",
    "multiplier.simulate_multiply_calls": "count",
    "multiplier.chain_s": "s",
    "multiplier.trials_s": "s",
    "jitter.total_jitter_calls": "count",
    "jitter.normal_draws": "count",
    "cell.latch_delay_calls": "count",
    "cli.csv_rows_s": "s",
    "cli.write_csv_s": "s",
    "cli.write_json_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "count",
    "units.format_number_calls": "count",
    "trace.overhead_s": "s",
}

# span name -> metric holding the summed span durations
_SPAN_TIMES = {
    "config.resolve": "config.resolve_s",
    "design_space.max_bits": "design_space.max_bits_s",
    "design_space.calibrate": "design_space.calibrate_s",
    "design_space.region": "design_space.region_s",
    "multiplier.chain": "multiplier.chain_s",
    "multiplier.trials": "multiplier.trials_s",
    "cli.csv_rows": "cli.csv_rows_s",
    "cli.write_csv": "cli.write_csv_s",
    "cli.write_json": "cli.write_json_s",
}


class Tracer:
    """Spans and counts of one traced session."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, command index]
        self.counts: Counter = Counter()
        self.command: Optional[int] = None
        self.trials: Optional[int] = None  # trial count of the open dot_product_trials call
        self.missing: List[str] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.command]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def command_span(self, index: int, label: str):
        self.command = index
        try:
            with self.span(f"cli.command {label}"):
                yield
        finally:
            self.command = None

    def metrics(self) -> Dict[str, float]:
        out = {m: 0.0 for m in _SPAN_TIMES.values()}
        for name, start, end, _, _ in self.spans:
            if name in _SPAN_TIMES:
                out[_SPAN_TIMES[name]] += end - start
        out["design_space.max_bits_calls"] = sum(1 for s in self.spans if s[0] == "design_space.max_bits")
        for key in ("design_space.tables_builds", "design_space.target_evals",
                    "multiplier.simulate_multiply_calls", "jitter.total_jitter_calls",
                    "jitter.normal_draws", "cell.latch_delay_calls", "cli.rows_written",
                    "cli.bytes_written", "units.format_number_calls"):
            out[key] = self.counts[key]
        return out

    def per_command_counts(self) -> Dict[int, Dict[str, int]]:
        per: Dict[int, Counter] = {}
        for name, _, _, _, cmd in self.spans:
            per.setdefault(cmd, Counter())[name] += 1
        return {k: dict(v) for k, v in per.items()}

    def dump(self) -> dict:
        """Every span plus the self time (duration minus child spans) by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[k]
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "command": c}
                      for n, s, e, p, c in self.spans],
            "counts": dict(self.counts),
            "self_time_s": dict(self_time),
            "unpatched": self.missing,
        }


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer-boundary functions of the loaded delaymac modules."""
    from delaymac import cli, design_space, multiplier

    restore = []

    def patch(owner, attr: str, make):
        original = owner.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            return
        restore.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def spanned(name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs)
                return out
            return wrapper
        return make

    def counted(name, weight=lambda: 1):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.counts[name] += weight()
                return fn(*args, **kwargs)
            return wrapper
        return make

    def wrote(args, kwargs):
        tracer.counts["cli.bytes_written"] += _size(args[0])

    def wrote_csv(args, kwargs):
        wrote(args, kwargs)
        tracer.counts["cli.rows_written"] += len(args[2])

    def trials_of(fn):
        def wrapper(*args, **kwargs):
            tracer.trials = kwargs.get("trials", 1)
            try:
                with tracer.span("multiplier.trials"):
                    return fn(*args, **kwargs)
            finally:
                tracer.trials = None
        return wrapper

    def draws_and_calls(fn):
        def wrapper(*args, **kwargs):
            tracer.counts["jitter.total_jitter_calls"] += 1
            # each call feeds one draw per trial inside dot_product_trials,
            # one draw per traversed cell in a single seeded chain
            tracer.counts["jitter.normal_draws"] += tracer.trials or 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        patch(cli, "_resolve_config", spanned("config.resolve"))
        patch(cli, "constraint_region", spanned("design_space.region"))
        patch(cli, "calibrate_units", spanned("design_space.calibrate"))
        patch(design_space._ConstraintTables, "__init__", counted("design_space.tables_builds"))
        patch(design_space._ConstraintTables, "max_bits", spanned("design_space.max_bits"))
        patch(design_space, "_evaluate_targets", counted("design_space.target_evals"))
        patch(design_space.DesignRegion, "csv_rows", spanned("cli.csv_rows"))
        patch(cli, "_write_csv", spanned("cli.write_csv", wrote_csv))
        patch(cli, "_write_json", spanned("cli.write_json", wrote))
        patch(cli.RunManifest, "write", spanned("cli.write_manifest",
                                                lambda a, kw: wrote(a[1:], kw)))
        patch(cli, "format_number", counted("units.format_number_calls"))
        patch(cli, "simulate_dot_product", spanned("multiplier.chain"))
        patch(multiplier, "simulate_dot_product", spanned("multiplier.chain"))
        patch(cli, "dot_product_trials", trials_of)
        patch(multiplier, "simulate_multiply", counted("multiplier.simulate_multiply_calls"))
        patch(multiplier, "total_jitter", draws_and_calls)
        patch(multiplier, "latch_delay", counted("cell.latch_delay_calls"))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative import seconds of the delaymac package tree and of scipy.

    `-X importtime` lists each import after its children, indented two
    spaces per level; walking the lines backwards visits parents first.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        body = name[1:]
        depth = (len(body) - len(body.lstrip(" "))) // 2
        entries.append((depth, body.strip(), int(cumulative) * 1e-6))
    out = {"import.delaymac_s": 0.0, "import.scipy_s": 0.0}
    ancestors: List[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        if depth == 0 and name.split(".")[0] == "delaymac":
            out["import.delaymac_s"] += cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            out["import.scipy_s"] += cumulative
        ancestors.append(name)
    return out


def import_times(env: Dict[str, str], cwd: Path, runs: int, timeout_s: float) -> Dict[str, float]:
    """Medians over `runs` cold `python -X importtime -m delaymac --version`."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "delaymac", "--version"],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout_s)
        if proc.returncode != 0:
            raise RuntimeError(f"delaymac --version exited {proc.returncode}: {proc.stderr[-300:]}")
        samples.append(_parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
