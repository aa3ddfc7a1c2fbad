"""The three benchmark workloads: their seeded inputs and their output checks.

Each workload turns a seed into one session plan (a fixed list of CLI
commands plus input files) and checks every output of a finished session.
The checks use the paper's headline numbers only where they hold, on the
64 x 64 calibration grid; on finer grids they check self-consistency and
agreement with the library evaluated in this process.

Why these workloads:

* region-map stresses the output layer (`cli` CSV writing and `units`
  number formatting): one 1024 x 1024 feasibility map is ~55 MB of CSV
  while the constraint math takes well under a second. One bit count is
  feasible and one is not, so the infeasible exit (2) is exercised.
* design-search stresses the calibration search in `design_space` (7,861
  `max_bits` scans for one 64 x 64 calibrate) and the write-then-read of
  `calibration.json` by `config`; its outputs are tiny.
* mac-montecarlo stresses `multiplier`, `jitter` and `cell` on a 4096-stage
  MAC chain and never touches `design_space`.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from session import Command, Plan, Result

# Default design-space span documented by the CLI (--c-span, --i-span).
C_SPAN = (0.5e-15, 50e-15)
I_SPAN = (50e-9, 20e-6)

#: Largest feasible bit count at epsilon 1 with the packaged unit scale, by
#: grid size. The paper's headline (n = 5) holds on the 64 x 64 grid only.
FEASIBLE_MAX_BITS = {64: 5, 1024: 6}

#: Headline epsilon at which max_bits reaches 1, and its tolerance.
BITS_REACH_ONE = (14.0, 0.3)


def fmt(x: float) -> str:
    """The CLI's number format: shortest round-trip repr."""
    return repr(float(x))


def grids(points: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.geomspace(*C_SPAN, points), np.geomspace(*I_SPAN, points)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _load_json(path: Path, errors: List[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable JSON ({exc})")
        return None


class Workload:
    """A seeded session plan plus the checks of its outputs."""

    name = ""
    why = ""
    work_unit = ""

    def plan(self, seed: int) -> Plan:
        raise NotImplementedError

    def check_command(self, plan: Plan, cmd: Command, res: Result, run_dir: Path,
                      notes: dict) -> List[str]:
        raise NotImplementedError

    def check(self, plan: Plan, run_dir: Path, results: Sequence[Result]) -> Tuple[List[List[str]], dict]:
        """Errors per command, plus notes (reported, not gated)."""
        from delaymac import __version__

        notes: dict = {}
        errors: List[List[str]] = []
        calibrated_dirs = set()
        for k, (cmd, res) in enumerate(zip(plan.commands, results)):
            errs: List[str] = []
            if res.returncode != cmd.expect_exit:
                errs.append(f"exit code {res.returncode}, expected {cmd.expect_exit}")
            if "Traceback" in res.stderr:
                errs.append("traceback on stderr")
            missing = [rel for rel in cmd.outputs if not (run_dir / cmd.workdir / rel).is_file()]
            if missing:
                errs.append(f"missing outputs {missing}")
            else:
                errs += self._check_manifest(cmd, run_dir, cmd.workdir in calibrated_dirs, __version__)
                try:
                    errs += self.check_command(plan, cmd, res, run_dir, notes)
                except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                    errs.append(f"malformed output: {type(exc).__name__}: {exc}")
            if cmd.argv[0] == "calibrate" and res.returncode == 0:
                calibrated_dirs.add(cmd.workdir)
            errors.append(errs)
        # every directory holds exactly the declared files: nothing leaked in
        for workdir in {c.workdir for c in plan.commands}:
            expected = {rel for c in plan.commands if c.workdir == workdir for rel in c.outputs}
            expected |= {Path(rel).name for rel in plan.files if str(Path(rel).parent) == workdir}
            present = {p.name for p in (run_dir / workdir).iterdir()}
            if present != expected:
                last = max(k for k, c in enumerate(plan.commands) if c.workdir == workdir)
                errors[last].append(
                    f"{workdir}/ holds unexpected files {sorted(present - expected)}"
                    f" or lacks {sorted(expected - present)}")
        return errors, notes

    @staticmethod
    def _check_manifest(cmd: Command, run_dir: Path, overlay: bool, version: str) -> List[str]:
        from delaymac.config import default_config

        errs: List[str] = []
        manifest_rel = cmd.outputs[-1]
        manifest = _load_json(run_dir / cmd.workdir / manifest_rel, errs)
        if manifest is None:
            return errs
        cfg = default_config()
        if overlay:
            cal = _load_json(run_dir / cmd.workdir / "calibration.json", errs)
            if cal is None:
                return errs
            cfg = replace(cfg, fit=cfg.fit.with_unit_scale(tuple(cal["unit_scale"])))
        seed = None
        if "--seed" in cmd.argv:
            seed = int(cmd.argv[cmd.argv.index("--seed") + 1])
        expected = {
            "command": cmd.argv[0],
            "config_hash": cfg.digest(),
            "outputs": list(cmd.outputs[:-1]),
            "seed": seed,
            "tool_version": version,
        }
        for key, want in expected.items():
            if manifest.get(key) != want:
                errs.append(f"{manifest_rel}: {key} is {manifest.get(key)!r}, expected {want!r}")
        return errs


# --- region-map ------------------------------------------------------------

REGION_HEADER = b"c_star,i_star,c1,c2,c3,feasible\n"
_MASK_TAILS = [f"{k >> 3 & 1},{k >> 2 & 1},{k >> 1 & 1},{k & 1}\n" for k in range(16)]


def parse_region_csv(data: bytes, points: int) -> Tuple[Optional[np.ndarray], List[str]]:
    """Masks (rows x [c1, c2, c3, feasible]) of a region CSV, if and only if
    the file is byte for byte what the grid and those masks should produce."""
    c_grid, i_grid = grids(points)
    if not data.startswith(REGION_HEADER):
        return None, ["region CSV header differs"]
    body = np.frombuffer(data, dtype=np.uint8, offset=len(REGION_HEADER))
    ends = np.flatnonzero(body == ord("\n"))
    rows = points * points
    if ends.size != rows or ends[-1] != body.size - 1 or ends[0] < 8:
        return None, [f"region CSV has {ends.size} rows, expected {rows}"]
    cols = body[ends[:, None] - np.array([7, 5, 3, 1])].astype(np.int64) - ord("0")
    if ((cols != 0) & (cols != 1)).any():
        return None, ["region CSV mask columns are not 0/1"]
    codes = (cols @ np.array([8, 4, 2, 1])).tolist()
    starts = np.concatenate(([0], ends[:-1] + 1))
    i_text = [fmt(i) + "," for i in i_grid]
    for ci, c in enumerate(c_grid):
        c_text = fmt(c) + ","
        lo, hi = ci * points, (ci + 1) * points
        block = "".join([c_text + it + _MASK_TAILS[code] for it, code in zip(i_text, codes[lo:hi])])
        got = body[starts[lo]:ends[hi - 1] + 1].tobytes()
        if got != block.encode():
            for r, (g, w) in enumerate(zip(got.split(b"\n"), block.encode().split(b"\n"))):
                if g != w:
                    return None, [f"region CSV row {lo + r + 1} is {g[:80]!r}, expected {w[:80]!r}"]
            return None, [f"region CSV block {ci} differs"]
    return cols, []


def region_expectations(cols: np.ndarray, points: int) -> dict:
    """Summary fields implied by the CSV rows: count, bounds, optimum
    (largest feasible i_star, then the smallest c_star at it)."""
    c_grid, i_grid = grids(points)
    feasible = cols[:, 3].reshape(points, points).astype(bool)
    count = int(feasible.sum())
    out = {"count": count, "bounds": None, "optimum": None}
    if count:
        ci, ii = np.nonzero(feasible)
        best_ii = int(ii.max())
        best_ci = int(np.nonzero(feasible[:, best_ii])[0].min())
        out["bounds"] = {"c_star": [float(c_grid[ci.min()]), float(c_grid[ci.max()])],
                         "i_star": [float(i_grid[ii.min()]), float(i_grid[ii.max()])]}
        out["optimum"] = {"c_star": float(c_grid[best_ci]), "i_star": float(i_grid[best_ii])}
    return out


class RegionMap(Workload):
    name = "region-map"
    why = "1024x1024 feasibility maps for one feasible and one infeasible bit count; output writing dominates"
    work_unit = "grid points evaluated and written"
    points = 1024

    def plan(self, seed: int) -> Plan:
        rng = random.Random(seed)
        limit = FEASIBLE_MAX_BITS[self.points]
        bits = [rng.randint(limit - 2, limit), rng.randint(limit + 1, limit + 2)]
        commands = [
            Command(f"region n={n}", ".",
                    ("region", "--bits", str(n), "--grid-points", str(self.points), "--out", f"region_n{n}.csv"),
                    (f"region_n{n}.csv", f"region_n{n}.summary.json", f"region_n{n}.manifest.json"),
                    expect_exit=0 if n <= limit else 2)
            for n in bits
        ]
        return Plan(commands, work=len(commands) * self.points**2)

    def check_command(self, plan, cmd, res, run_dir, notes):
        n = int(cmd.argv[cmd.argv.index("--bits") + 1])
        points = int(cmd.argv[cmd.argv.index("--grid-points") + 1])
        base = run_dir / cmd.workdir
        cols, errs = parse_region_csv((base / cmd.outputs[0]).read_bytes(), points)
        if cols is None:
            return errs
        if not np.array_equal(cols[:, 3], cols[:, 0] & cols[:, 1] & cols[:, 2]):
            bad = int(np.flatnonzero(cols[:, 3] != (cols[:, 0] & cols[:, 1] & cols[:, 2]))[0])
            errs.append(f"row {bad + 1}: feasible != c1 and c2 and c3")
        want = region_expectations(cols, points)
        summary = _load_json(base / cmd.outputs[1], errs)
        if summary is None:
            return errs
        c_grid, i_grid = grids(points)
        expected = {
            "n_bits": n,
            "epsilon": 1.0,
            "grid": {"c_star": [float(c_grid[0]), float(c_grid[-1]), points],
                     "i_star": [float(i_grid[0]), float(i_grid[-1]), points]},
            "feasible_points": want["count"],
            "feasible": want["count"] > 0,
            "bounds": want["bounds"],
            "optimum": want["optimum"],
        }
        for key, value in expected.items():
            if summary.get(key) != value:
                errs.append(f"summary {key} is {summary.get(key)!r}, expected {value!r}")
        if res.returncode != (0 if want["count"] else 2):
            errs.append(f"exit {res.returncode} with {want['count']} feasible points")
        if want["count"]:
            opt = want["optimum"]
            line = f"n={n}: optimum c_star={fmt(opt['c_star'])} F, i_star={fmt(opt['i_star'])} A"
            if res.stdout.strip() != line:
                errs.append(f"stdout {res.stdout.strip()!r}, expected {line!r}")
        elif f"n={n}: no feasible design point" not in res.stderr:
            errs.append("infeasible run does not say so on stderr")
        notes.setdefault("feasible_points", {})[f"n={n}"] = want["count"]
        return errs


# --- design-search ---------------------------------------------------------

class DesignSearch(Workload):
    name = "design-search"
    why = "calibrate then maxbits in two config dirs (64x64, 128x128 -> 256x256); the calibration search dominates"
    work_unit = "grid points of every command's grid"

    def plan(self, seed: int) -> Plan:
        from delaymac.design_space import DEFAULT_CALIBRATION_TARGETS

        rng = random.Random(seed)

        def eps_grid() -> str:
            return f"1:{rng.randint(19, 22)}:{rng.randint(35, 43)}"

        commands = [
            Command("calibrate 64", "a", ("calibrate", "--grid-points", "64"),
                    ("calibration.json", "calibration.manifest.json")),
            Command("maxbits 64", "a", ("maxbits", "--epsilon-grid", eps_grid(), "--grid-points", "64",
                                         "--out", "maxbits.csv"), ("maxbits.csv", "maxbits.manifest.json")),
            Command("calibrate 128", "b", ("calibrate", "--grid-points", "128", "--targets", "targets.json"),
                    ("calibration.json", "calibration.manifest.json")),
            Command("maxbits 256", "b", ("maxbits", "--epsilon-grid", eps_grid(), "--grid-points", "256",
                                          "--out", "maxbits.csv"), ("maxbits.csv", "maxbits.manifest.json")),
        ]
        files = {"b/targets.json": json.dumps(list(DEFAULT_CALIBRATION_TARGETS), indent=2) + "\n"}
        work = sum(int(c.argv[c.argv.index("--grid-points") + 1]) ** 2 for c in commands)
        return Plan(commands, files, work)

    def check_command(self, plan, cmd, res, run_dir, notes):
        points = int(cmd.argv[cmd.argv.index("--grid-points") + 1])
        if cmd.argv[0] == "calibrate":
            return self._check_calibrate(cmd, res, run_dir, points)
        return self._check_maxbits(cmd, run_dir, points, notes)

    @staticmethod
    def _check_calibrate(cmd, res, run_dir, points) -> List[str]:
        from delaymac import DEFAULT_UNIT_SCALE
        from delaymac.config import default_config
        from delaymac.design_space import constraint_region, max_bits

        errs: List[str] = []
        path = run_dir / cmd.workdir / "calibration.json"
        text = path.read_text()
        result = json.loads(text)
        if text != json.dumps(result, indent=2, sort_keys=True) + "\n":
            errs.append("calibration.json is not canonical JSON")
        try:
            printed = json.loads(res.stdout)
        except ValueError:
            printed = None
        if printed != result:
            errs.append("printed calibration differs from calibration.json")
        met = result["targets_met"]
        if len(met) != 5 or not all(m is True for m in met):
            errs.append(f"targets_met {met}")
        scale = tuple(float(s) for s in result["unit_scale"])
        if len(scale) != 2 or not all(s > 0 and math.isfinite(s) for s in scale):
            return errs + [f"unit_scale {scale!r}"]
        if points == 64:
            for got, want in zip(scale, DEFAULT_UNIT_SCALE):
                if abs(got / want - 1.0) > 1e-9:
                    errs.append(f"unit_scale {scale} differs from the packaged {DEFAULT_UNIT_SCALE}")
                    break
        # the scale must meet the headline targets on this grid
        cfg = default_config()
        fit = cfg.fit.with_unit_scale(scale)
        c_grid, i_grid = grids(points)
        if max_bits(1.0, c_grid, i_grid, cfg.cell, cfg.tech, fit) != 5:
            errs.append("calibrated scale misses max_bits(1) = 5")
        if constraint_region(4, c_grid, i_grid, cfg.cell, cfg.tech, fit).is_empty:
            errs.append("calibrated scale leaves n = 4 infeasible")
        if not constraint_region(6, c_grid, i_grid, cfg.cell, cfg.tech, fit).is_empty:
            errs.append("calibrated scale leaves n = 6 feasible")
        return errs

    @staticmethod
    def _check_maxbits(cmd, run_dir, points, notes) -> List[str]:
        from delaymac.config import default_config
        from delaymac.design_space import max_bits

        errs: List[str] = []
        lo, hi, steps = cmd.argv[cmd.argv.index("--epsilon-grid") + 1].split(":")
        epsilons = [float(e) for e in np.linspace(float(lo), float(hi), int(steps))]
        cal = json.loads((run_dir / cmd.workdir / "calibration.json").read_text())
        cfg = default_config()
        fit = cfg.fit.with_unit_scale(tuple(cal["unit_scale"]))
        c_grid, i_grid = grids(points)
        n_max = [max_bits(e, c_grid, i_grid, cfg.cell, cfg.tech, fit) for e in epsilons]
        expected = "epsilon,n_max\n" + "".join(f"{fmt(e)},{n}\n" for e, n in zip(epsilons, n_max))
        got = (run_dir / cmd.workdir / cmd.outputs[0]).read_text()
        if got != expected:
            errs.append(f"maxbits CSV differs from the library under the overlay scale: "
                        f"{got.splitlines()[:3]} vs {expected.splitlines()[:3]}")
        rows = [line.split(",") for line in got.splitlines()[1:]]
        n_got = [int(n) for _, n in rows]
        eps_got = [float(e) for e, _ in rows]
        if any(b > a for a, b in zip(n_got, n_got[1:])):
            errs.append("n_max increases with epsilon")
        if points == 64:
            # paper headlines, which hold on the calibration grid only
            if not n_got or n_got[0] != FEASIBLE_MAX_BITS[64]:
                errs.append(f"max_bits(1) = {n_got[:1]}, expected {FEASIBLE_MAX_BITS[64]}")
            reach, tol = BITS_REACH_ONE
            first = next((j for j, n in enumerate(n_got) if n <= 1), None)
            if first is None or first == 0:
                errs.append("n_max never drops to 1 inside the grid")
            elif not (eps_got[first] >= (1 - tol) * reach and eps_got[first - 1] < (1 + tol) * reach):
                errs.append(f"max_bits reaches 1 in ({eps_got[first - 1]}, {eps_got[first]}],"
                            f" outside {reach} +/- {tol:.0%}")
        notes.setdefault("max_bits_at_1", {})[f"{points}x{points}"] = n_got[0] if n_got else None
        return errs


# --- mac-montecarlo --------------------------------------------------------

def _chi2_quantile(p: float, df: int) -> float:
    """Wilson-Hilferty approximation; accurate to <0.1% for df in the thousands."""
    z = statistics.NormalDist().inv_cdf(p)
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def parse_simulate_csv(text: str) -> Tuple[np.ndarray, float, float]:
    lines = text.splitlines()
    if lines[0] != "trial,delta_t_s" or not lines[-2].startswith("mean,") or not lines[-1].startswith("sigma,"):
        raise ValueError("simulate CSV layout")
    trials = [line.split(",") for line in lines[1:-2]]
    if [int(t) for t, _ in trials] != list(range(len(trials))):
        raise ValueError("trial column is not 0..N-1")
    return (np.array([float(d) for _, d in trials]),
            float(lines[-2].split(",")[1]), float(lines[-1].split(",")[1]))


class MacMonteCarlo(Workload):
    name = "mac-montecarlo"
    why = "a seeded 4096-stage MAC chain: 2e4 noisy trials plus nonlinear, noisy and ideal traced runs"
    work_unit = "stage x trial products simulated"
    stages = 4096
    trials = 20000

    def plan(self, seed: int) -> Plan:
        rng = random.Random(seed)
        weights = [rng.randint(-31, 31) for _ in range(self.stages)]
        va_text = [f"{rng.uniform(0.1, 1.2):.4f}" for _ in range(self.stages)]
        v_as = [float(v) for v in va_text]
        sim_seed = str(rng.randrange(1, 2**31))
        chain = ("--weights=" + ",".join(map(str, weights)), "--va", ",".join(va_text), "--seed", sim_seed)

        def sim(stem, model, trials):
            outputs = (f"{stem}.csv",) + ((f"{stem}.trace.json",) if trials == 1 else ()) + (f"{stem}.manifest.json",)
            return Command(f"simulate {model} x{trials}", ".",
                           ("simulate", *chain, "--model", model, "--trials", str(trials), "--out", f"{stem}.csv"),
                           outputs)

        commands = [sim("noisy", "noisy", self.trials), sim("nonlinear", "nonlinear", 1),
                    sim("noisy1", "noisy", 1), sim("ideal", "ideal", 1)]
        terms, variance = self._reference(weights, v_as)
        return Plan(commands, work=self.stages * sum(int(c.argv[c.argv.index("--trials") + 1]) for c in commands),
                    data={"weights": weights, "v_as": v_as, "terms": terms, "variance": variance})

    @staticmethod
    def _reference(weights, v_as):
        """Closed-form ideal delta per stage and the jitter variance per trial."""
        from delaymac.config import default_config
        from delaymac.jitter import total_jitter

        cfg = default_config()
        i_fast, v_a0, n_bits = cfg.mult.i_star_fastest, cfg.mult.v_a0, cfg.mult.n_bits
        w = np.array(weights)
        terms = -np.sign(w) * (cfg.cell.c_s_eff / i_fast) * (np.array(v_as) - v_a0) * np.abs(w)
        var_bit = [total_jitter(replace(cfg.cell, i_star=i_fast / 2.0**i, v_a0=v_a0), cfg.fit).sigma_total ** 2
                   for i in range(n_bits)]
        variance = sum(var_bit[i] for m in np.abs(w).tolist() for i in range(n_bits) if m >> i & 1)
        return terms, variance

    def check_command(self, plan, cmd, res, run_dir, notes):
        terms, variance = plan.data["terms"], plan.data["variance"]
        ideal, scale = float(terms.sum()), float(np.abs(terms).sum())
        model = cmd.argv[cmd.argv.index("--model") + 1]
        trials = int(cmd.argv[cmd.argv.index("--trials") + 1])
        base = run_dir / cmd.workdir
        errs: List[str] = []
        total = stage_deltas = None
        deltas, mean, sigma = parse_simulate_csv((base / cmd.outputs[0]).read_text())
        if deltas.size != trials:
            return [f"{deltas.size} trial rows, expected {trials}"]
        if not _close(mean, float(np.mean(deltas)), 1e-9 * abs(mean)):
            errs.append("mean row is not the mean of the trials")
        want_sigma = float(np.std(deltas, ddof=1)) if trials > 1 else 0.0
        if not _close(sigma, want_sigma, 1e-9 * want_sigma):
            errs.append("sigma row is not the sample deviation of the trials")
        line = f"delta_t mean={fmt(mean)} s sigma={fmt(sigma)} s over {trials} trials"
        if res.stdout.strip() != line:
            errs.append(f"stdout {res.stdout.strip()[:80]!r}")
        if trials == 1:
            total, stage_deltas, trace_errs = self._check_trace(plan, base / cmd.outputs[1])
            errs += trace_errs
            if total is None:
                return errs
        if model == "ideal":
            if not _close(deltas[0], ideal, 1e-9 * scale):
                errs.append(f"ideal delta {deltas[0]!r} != closed form {ideal!r}")
            if not np.allclose(stage_deltas, terms, rtol=1e-9, atol=1e-30):
                errs.append("ideal per-stage deltas differ from the closed form")
        if model in ("ideal", "nonlinear") and not _close(total, deltas[0], 1e-12 * np.abs(stage_deltas).sum()):
            errs.append(f"{model} trace total {total!r} != CSV delta {deltas[0]!r}")
        if model == "noisy" and trials > 1:
            if not _close(mean, ideal, 5.0 * math.sqrt(variance / trials)):
                errs.append(f"noisy mean {mean!r} is > 5 sigma/sqrt(N) from the ideal {ideal!r}")
            df = trials - 1
            stat = df * sigma**2 / variance
            band = (_chi2_quantile(0.0005, df), _chi2_quantile(0.9995, df))
            if not band[0] <= stat <= band[1]:
                errs.append(f"noisy variance {sigma**2!r} outside the 99.9% chi-square band of {variance!r}")
            notes["noisy_variance_ratio"] = sigma**2 / variance
        if model == "noisy" and trials == 1:
            for what, value in (("CSV delta", deltas[0]), ("trace total", total)):
                if not _close(value, ideal, 5.0 * math.sqrt(variance)):
                    errs.append(f"noisy single-trial {what} {value!r} is > 5 sigma from the ideal")
            # Known defect: the CSV path and the trace path draw jitter from
            # different streams, so the two disagree. Reported, not gated.
            notes["known_defect.noisy_single_trial_csv_vs_trace"] = {
                "csv_delta_s": float(deltas[0]), "trace_total_s": total,
                "difference_s": float(deltas[0]) - total, "present": bool(deltas[0] != total)}
        return errs

    def _check_trace(self, plan: Plan, path: Path):
        errs: List[str] = []
        trace = _load_json(path, errs)
        if trace is None:
            return None, None, errs
        stages = trace["stages"]
        total = float(trace["total_delta_t_s"])
        if len(stages) != self.stages:
            return None, None, [f"trace has {len(stages)} stages, expected {self.stages}"]
        event = {"t_var": 0.0, "t_ref": 0.0}
        for j, (s, w, v) in enumerate(zip(stages, plan.data["weights"], plan.data["v_as"])):
            if (s["stage"], s["weight"], s["v_a"]) != (j, w, v):
                errs.append(f"trace stage {j} does not echo its inputs")
                break
            if s["event_in"] != event:
                errs.append(f"trace stage {j} does not start from the previous stage's events")
                break
            event = s["event_out"]
        stage_deltas = np.array([float(s["delta_t_s"]) for s in stages])
        if not _close(float(stage_deltas.sum()), total, 1e-9 * float(np.abs(stage_deltas).sum())):
            errs.append("trace total is not the sum of its stage deltas")
        return total, stage_deltas, errs


WORKLOADS = {w.name: w for w in (RegionMap(), DesignSearch(), MacMonteCarlo())}
