"""Command-line interface.

Subcommands wrap the library into reproducible file-emitting runs; a rerun
with the same config and seed is byte-identical.

Outputs are named from the stem, --out without its suffix: each output
is the stem plus its own suffix (.summary.json, .trace.json, .json, .csv),
except that region, maxbits and simulate write their CSV to --out itself
when it has a suffix. calibrate has no --out; it writes calibration.json
in $DELAYMAC_CONFIG_DIR (default: the working directory).

A run that wrote outputs (exit 0, or region's exit 2) also writes
<stem>.manifest.json: the command, resolved-config digest, seed, outputs in
write order and tool version. An exit 1 or a failed calibrate writes no
manifest. Exit codes: 0 success, 1 usage/config error, 2 domain
infeasibility (empty region, failed calibration). Every input error, usage
errors included, prints one "error:" line, exits 1 and writes no file; an
unreadable or malformed --config, --targets or calibration.json names the file.

simulate writes its trial CSV and its trace (--trials 1) from the engine's
arrays, each value formatted once, in the bytes csv.writer and
json.dump(indent=2, sort_keys=True) give; a non-finite value, which JSON
cannot hold, exits 1 before either is written. Like --grid-points,
simulate's --trials and maxbits' --epsilon-grid step count are capped
before anything is allocated; each subcommand's --help gives its cap.

A bit count, region's and energy's --bits or a config's n_bits, must be 1
to 48 and is checked before anything is sized by it; bias --bits must be 1
to 8. Out of range is an input error: region --bits 49 and up exits 1, not
2, and energy --bits 49 and up exits 1 instead of running. bias takes at
most one of --vref and --ibias, and a --vref above the subthreshold ceiling
exits 1.

Importing numpy takes most of a short command's start-up, so only the
commands that compute on arrays load it: region, maxbits and calibrate
(design_space) and simulate (multiplier and jitter). Each handler checks
every flag and input file before it imports its model, and imports no other
command's model: --version, --help, energy, bias and every flag or
input-file error exit without numpy. Only the models' own domain checks run
after it loads: v_a and v_a0 against v_dd, a weight against n_bits, and the
regime and overflow errors.

The launcher, delaymac.__main__.run (python -m delaymac and the delaymac
console script), pins OpenBLAS to one thread before numpy loads: no command
calls BLAS, and each extra worker OpenBLAS would start costs start-up time.
A user-set OPENBLAS_NUM_THREADS wins. Calling main() from a library or a
test leaves BLAS as it is.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import __version__
from .config import (
    DEFAULT_CALIBRATION_TARGETS, TARGET_FIELDS, ResolvedConfig, default_config, load_config, parse_targets, read_json,
)
from .errors import CalibrationError, DelaymacError
from .params import (
    DEFAULT_C_SPAN, DEFAULT_GRID_POINTS, DEFAULT_I_SPAN, MAX_BITS_CAP, MAX_GRID_POINTS, MIN_GRID_POINTS,
    JitterFit, MultiplierSpec, require_bit_count, require_epsilon, require_grid_points,
)
from .units import coerce_quantity, format_number

if TYPE_CHECKING:
    import numpy as np

    from .design_space import CalibrationResult, DesignRegion
    from .multiplier import ChainResult

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

CONFIG_DIR_ENV = "DELAYMAC_CONFIG_DIR"
CALIBRATION_FILENAME = "calibration.json"

#: Largest --trials of simulate (8 B per trial in memory, ~30 B in the CSV).
MAX_TRIALS = 10**7
#: Largest --epsilon-grid step count of maxbits.
MAX_EPSILON_STEPS = 10**5


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; this CLI reserves 2
    for domain infeasibility, so remap them to 1, reported like every other
    input error in one line."""

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


@dataclass
class Run:
    """One subcommand run, as its manifest records it. Handlers take every
    output path from output(), so outputs lists them in write order."""

    command: str
    cfg: ResolvedConfig
    stem: Path
    seed: Optional[int] = None
    outputs: List[Path] = field(default_factory=list)

    def output(self, suffix: str) -> Path:
        path = self.stem.parent / (self.stem.name + suffix)
        self.outputs.append(path)
        return path


# perfbench/tracer.py reads cli.RunManifest when it instruments the CLI and
# raises AttributeError without it; drop this alias with that patch
RunManifest = Run


# Each array model loads numpy, most of a command's start-up, so only the
# handler that runs a model imports it. These three stay names of this
# module, through which tests replace a model and perfbench/tracer.py wraps it.
def constraint_region(*args, **kwargs) -> DesignRegion:
    from . import design_space

    return design_space.constraint_region(*args, **kwargs)


def calibrate_units(*args, **kwargs) -> CalibrationResult:
    from . import design_space

    return design_space.calibrate_units(*args, **kwargs)


def simulate_chain(*args, **kwargs) -> ChainResult:
    from . import multiplier

    return multiplier.simulate_chain(*args, **kwargs)


def config_dir() -> Path:
    return Path(os.environ.get(CONFIG_DIR_ENV, "."))


def _overlay_calibration(fit: JitterFit) -> JitterFit:
    """fit with the unit scale of a persisted calibration file, if there is one."""
    path = config_dir() / CALIBRATION_FILENAME
    if not path.is_file():
        return fit

    def overlay(data) -> JitterFit:
        return fit.with_unit_scale(data.get("unit_scale") if isinstance(data, dict) else None)

    return read_json(path, overlay)


def _resolve_config(args) -> ResolvedConfig:
    cfg = load_config(args.config) if args.config else default_config()
    # a persisted calibration overrides the packaged default scale, but never
    # an explicitly configured one; calibrate searches from the raw fit and
    # rewrites that file, so it never reads it
    if "unit_scale" in cfg.provenance and args.command != "calibrate":
        cfg = replace(cfg, fit=_overlay_calibration(cfg.fit))
    return cfg


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(v) if isinstance(v, float) else v for v in row])


# "c1,c2,c3,feasible\n" for each mask code c1<<3 | c2<<2 | c3<<1 | feasible
_REGION_TAILS = tuple(f"{k >> 3},{k >> 2 & 1},{k >> 1 & 1},{k & 1}\n" for k in range(16))


def _write_region_csv(path: Path, region: DesignRegion) -> None:
    """The bytes _write_csv gives for region.csv_rows(), from each grid axis
    formatted once and one join per c_star row.

    A row is its c_star cell followed by one "i_star,c1,c2,c3,feasible\\n"
    piece per column, and a piece depends only on its column and mask code.
    So each column has a 16-entry table of pieces, one list holds the
    current row's pieces, and each row replaces only the pieces whose code
    differs from the previous row's: a few per column where a constraint
    boundary crosses it, every changed cell for arbitrary masks.
    """
    import numpy as np

    codes = np.zeros(region.feasible.shape, dtype=np.uint8)
    for mask in (region.mask_c1, region.mask_c2, region.mask_c3, region.feasible):
        codes <<= 1
        codes |= mask
    tables = []
    for i in region.grid_istar:
        i_cell = format_number(i) + ","
        tables.append([i_cell + tail for tail in _REGION_TAILS])
    pieces = [table[k] for table, k in zip(tables, codes[0].tolist())]
    # changes into row r are those at index [stops[r - 1], stops[r])
    from_rows, cols = np.nonzero(codes[1:] != codes[:-1])
    new_codes = codes[1:][from_rows, cols].tolist()
    stops = np.searchsorted(from_rows, np.arange(codes.shape[0])).tolist()
    cols = cols.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("c_star,i_star,c1,c2,c3,feasible\n")
        start = 0
        for c, stop in zip(region.grid_cstar, stops):
            for j, k in zip(cols[start:stop], new_codes[start:stop]):
                pieces[j] = tables[j][k]
            start = stop
            c_cell = format_number(c) + ","
            fh.write(c_cell + c_cell.join(pieces))


def _write_json(path: Path, payload: dict) -> None:
    # json.dump streams, but with indent set it runs the pure-Python encoder,
    # so simulate's large outputs go through the column writers below
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# each writer below formats one block per write: a 4096-stage trace built
# as one string peaks ~1 MB higher
_TRACE_BLOCK_STAGES = 512
_CSV_BLOCK_TRIALS = 4096

# one stage of the trace as json.dump(indent=2, sort_keys=True) lays it out
_TRACE_STAGE = (
    '    {\n'
    '      "delta_t_s": %s,\n'
    '      "event_in": {\n        "t_ref": %s,\n        "t_var": %s\n      },\n'
    '      "event_out": {\n        "t_ref": %s,\n        "t_var": %s\n      },\n'
    '      "stage": %d,\n'
    '      "v_a": %s,\n'
    '      "weight": %d\n'
    '    }'
)


def _write_trials_csv(path: Path, deltas: np.ndarray, mean: float, sigma: float) -> None:
    """The bytes _write_csv gives for the trial rows plus mean and sigma,
    each delta formatted once."""
    with open(path, "w", newline="") as fh:
        fh.write("trial,delta_t_s\n")
        for start in range(0, deltas.size, _CSV_BLOCK_TRIALS):
            block = deltas[start:start + _CSV_BLOCK_TRIALS].tolist()
            fh.write("".join(map("{},{}\n".format, range(start, start + len(block)), map(repr, block))))
        fh.write(f"mean,{format_number(mean)}\nsigma,{format_number(sigma)}\n")


def _write_trace_json(path: Path, chain: ChainResult, weights: Sequence[int], v_as: Sequence[float]) -> None:
    """The bytes _write_json gives for the trial-0 trace of chain, from its
    columns: stage j's event_out reuses the strings of stage j + 1's
    event_in, so each value is formatted once (the event between two
    blocks twice)."""
    with open(path, "w") as fh:
        fh.write('{\n  "stages": [')
        sep = "\n"
        for start in range(0, len(weights), _TRACE_BLOCK_STAGES):
            stop = min(start + _TRACE_BLOCK_STAGES, len(weights))
            t_var, t_ref = (list(map(repr, col)) for col in chain.events[start:stop + 1].T.tolist())
            rows = zip(map(repr, chain.stage_deltas[start:stop].tolist()), t_ref, t_var, t_ref[1:], t_var[1:],
                       range(start, stop), map(repr, v_as[start:stop]), weights[start:stop])
            fh.write(sep + ",\n".join(_TRACE_STAGE % row for row in rows))
            sep = ",\n"
        fh.write(("\n  ]" if weights else "]") + f',\n  "total_delta_t_s": {format_number(chain.deltas[0])}\n}}\n')


def _parse_span(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise DelaymacError(f"span must be lo:hi (got {text!r})")
    lo, hi = (coerce_quantity(p) for p in parts)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DelaymacError(f"span bounds must be finite (got {text!r})")
    if not 0 < lo < hi:
        raise DelaymacError(f"span must satisfy 0 < lo < hi (got {text!r})")
    return lo, hi


def _grid_spans(args) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """The (c_star, i_star) spans of the grid flags, each flag checked; needs no numpy."""
    c_span = _parse_span(args.c_span) if args.c_span else DEFAULT_C_SPAN
    i_span = _parse_span(args.i_span) if args.i_span else DEFAULT_I_SPAN
    require_grid_points(args.grid_points)
    return c_span, i_span


def _grids(args, spans: Optional[Tuple[Tuple[float, float], Tuple[float, float]]] = None):
    """The grids of the grid flags, from spans if _grid_spans already gave them."""
    from .design_space import default_grids

    return default_grids(args.grid_points, *(spans or _grid_spans(args)))


def _add_grid_flags(parser) -> None:
    parser.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS,
                        help=f"points per grid axis, {MIN_GRID_POINTS} to {MAX_GRID_POINTS} (default %(default)s)")
    parser.add_argument("--c-span", default=None, metavar="LO:HI",
                        help="storage-cap span, suffixed quantities (default 0.5f:50f)")
    parser.add_argument("--i-span", default=None, metavar="LO:HI",
                        help="fastest-cell current span (default 50n:20u)")


def cmd_region(args, run: Run) -> int:
    cfg = run.cfg
    require_bit_count(args.bits, "--bits")
    spans = _grid_spans(args)
    require_epsilon(args.epsilon)
    c_grid, i_grid = _grids(args, spans)
    region = constraint_region(
        args.bits, c_grid, i_grid, cfg.cell, cfg.tech, cfg.fit, epsilon=args.epsilon
    )
    _write_region_csv(run.output(Path(args.out).suffix or ".csv"), region)
    summary = region.summary()
    _write_json(run.output(".summary.json"), summary)
    if region.is_empty:
        print(f"n={args.bits}: no feasible design point", file=sys.stderr)
        return EXIT_INFEASIBLE
    c_opt, i_opt = summary["optimum"]["c_star"], summary["optimum"]["i_star"]
    print(f"n={args.bits}: optimum c_star={format_number(c_opt)} F, i_star={format_number(i_opt)} A")
    return EXIT_OK


def cmd_maxbits(args, run: Run) -> int:
    cfg = run.cfg
    parts = args.epsilon_grid.split(":")
    if len(parts) != 3:
        raise DelaymacError(f"--epsilon-grid must be lo:hi:steps (got {args.epsilon_grid!r})")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DelaymacError(f"--epsilon-grid must be lo:hi:steps (got {args.epsilon_grid!r}): {exc}") from exc
    if not 1 <= steps <= MAX_EPSILON_STEPS or not 1.0 <= lo <= hi < math.inf:
        raise DelaymacError(f"epsilon grid needs 1 to {MAX_EPSILON_STEPS} steps and finite 1 <= lo <= hi")
    spans = _grid_spans(args)
    import numpy as np

    from .design_space import max_bits_curve

    c_grid, i_grid = _grids(args, spans)
    epsilons = [float(eps) for eps in np.linspace(lo, hi, steps)]
    n_max = max_bits_curve(epsilons, c_grid, i_grid, cfg.cell, cfg.tech, cfg.fit)
    rows = list(zip(epsilons, n_max))
    _write_csv(run.output(Path(args.out).suffix or ".csv"), ("epsilon", "n_max"), rows)
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DelaymacError(f"{flag} expects a comma-separated number list: {exc}") from exc


def cmd_simulate(args, run: Run) -> int:
    cfg = run.cfg
    try:
        weights = [int(x) for x in args.weights.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DelaymacError(f"--weights expects comma-separated integers: {exc}") from exc
    v_as = _parse_float_list(args.va, "--va")
    if len(weights) != len(v_as):
        raise DelaymacError(f"got {len(weights)} weights but {len(v_as)} --va entries")
    if not 1 <= args.trials <= MAX_TRIALS:
        raise DelaymacError(f"--trials must be 1 to {MAX_TRIALS} (got {args.trials})")
    if args.seed < 0:
        raise DelaymacError(f"--seed must be >= 0 (got {args.seed})")
    import numpy as np

    model = "ideal" if args.model == "noisy" else args.model
    fit = cfg.fit if args.model == "noisy" else None
    chain = simulate_chain(
        weights, v_as, cfg.mult, cfg.cell, cfg.tech,
        model=model, fit=fit, seed=args.seed, trials=args.trials,
    )
    deltas = chain.deltas
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean or sigma is rejected below
        mean = float(np.mean(deltas))
        sigma = float(np.std(deltas, ddof=1)) if args.trials > 1 else 0.0
    # single runs also dump the per-stage event trace of that trial
    traced = (chain.stage_deltas, chain.events) if args.trials == 1 else ()
    # the writers' repr gives nan/inf, which JSON has no literal for
    if not all(np.isfinite(v).all() for v in (deltas, mean, sigma, *traced)):
        raise DelaymacError("the chain gave a non-finite delay or event time; nothing was written")
    # after the check, so that an input error prints one line
    for warning in chain.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_trials_csv(run.output(Path(args.out).suffix or ".csv"), deltas, mean, sigma)
    if traced:
        _write_trace_json(run.output(".trace.json"), chain, weights, v_as)
    print(f"delta_t mean={format_number(mean)} s sigma={format_number(sigma)} s over {args.trials} trials")
    return EXIT_OK


def cmd_energy(args, run: Run) -> int:
    from .energy import mac_energy

    cfg = run.cfg
    n_bits = args.bits if args.bits is not None else cfg.mult.n_bits
    require_bit_count(n_bits, "--bits")
    if args.weight is not None:
        spec = MultiplierSpec.from_weight(args.weight, n_bits, cfg.mult.i_star_fastest, cfg.mult.v_a0)
    elif n_bits == cfg.mult.n_bits:
        spec = cfg.mult
    else:
        spec = MultiplierSpec.from_weight(2**n_bits - 1, n_bits, cfg.mult.i_star_fastest, cfg.mult.v_a0)
    breakdown = mac_energy(spec, cfg.cell, cfg.tech, mode=args.mode, rho=args.rho)
    d = breakdown.to_dict()
    _write_json(run.output(".json"), d)
    comp_rows = [(k, d[k], d[k] / breakdown.n_bits) for k in ("e_cstar", "e_td1", "e_td2", "e_pu", "e_inv")]
    comp_rows.append(("total", breakdown.total, breakdown.per_bit))
    _write_csv(run.output(".csv"), ("component", "energy_j_per_mac", "energy_j_per_mac_per_bit"), comp_rows)
    print(f"total {format_number(breakdown.total)} J/MAC ({format_number(breakdown.per_bit)} J/MAC/bit)")
    return EXIT_OK


def cmd_bias(args, run: Run) -> int:
    from .bias import bias_plan, v_ref_for_current

    cfg = run.cfg
    if args.bits < 1 or args.bits > 8:
        raise DelaymacError(f"--bits must be in [1, 8] (got {args.bits})")
    if args.vref is not None:
        v_ref = coerce_quantity(args.vref)
    else:
        i_bias = coerce_quantity(args.ibias) if args.ibias else cfg.mult.i_star_fastest
        v_ref = v_ref_for_current(i_bias, cfg.tech)
    plan = bias_plan(v_ref, args.bits, cfg.tech)
    _write_json(run.output(".json"), plan.to_dict())
    _write_csv(run.output(".csv"), ("i", "current_a", "v_b1", "v_b2"), plan.csv_rows())
    return EXIT_OK


def cmd_calibrate(args, run: Run) -> int:
    cfg = run.cfg
    targets = read_json(args.targets) if args.targets else DEFAULT_CALIBRATION_TARGETS
    spans = _grid_spans(args)
    targets = parse_targets(targets)
    c_grid, i_grid = _grids(args, spans)
    try:
        result = calibrate_units(targets, cfg.fit, cfg.tech, cfg.cell, c_grid=c_grid, i_grid=i_grid)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    run.stem.parent.mkdir(parents=True, exist_ok=True)
    _write_json(run.output(".json"), result.to_dict())
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    if result.tied_scales > 1:
        print(f"warning: {result.tied_scales} distinct unit scales tie at the best residual;"
              " the targets do not pin the unit scale", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="delaymac", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file (defaults apply if omitted)")
        p.set_defaults(func=func)
        return p

    p = add("region", cmd_region, "evaluate the feasibility constraints for one bit count")
    p.add_argument("--bits", type=int, required=True, help=f"bit count, 1 to {MAX_BITS_CAP}")
    p.add_argument("--epsilon", type=float, default=1.0, help="excess jitter margin (default 1)")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_grid_flags(p)

    p = add("maxbits", cmd_maxbits, "maximum bit count versus excess jitter margin")
    p.add_argument("--epsilon-grid", required=True, metavar="LO:HI:STEPS",
                   help=f"epsilon from LO to HI in 1 to {MAX_EPSILON_STEPS} steps")
    p.add_argument("--out", required=True)
    _add_grid_flags(p)

    p = add("simulate", cmd_simulate, "simulate a serial MAC chain")
    p.add_argument("--weights", required=True, help="comma-separated signed integers")
    p.add_argument("--va", required=True, help="comma-separated analog inputs, volts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1,
                   help=f"Monte-Carlo trials, 1 to {MAX_TRIALS} (default %(default)s)")
    p.add_argument("--model", choices=("ideal", "nonlinear", "noisy"), default="ideal")
    p.add_argument("--out", required=True)

    p = add("energy", cmd_energy, "per-MAC energy breakdown")
    p.add_argument("--bits", type=int, default=None,
                   help=f"bit count, 1 to {MAX_BITS_CAP} (default: the config's n_bits)")
    p.add_argument("--weight", type=int, default=None, help="signed weight (default: all bits set)")
    p.add_argument("--mode", choices=("sense", "acceleration"), default="sense")
    p.add_argument("--rho", type=float, default=0.0, help="acceleration-mode residual recharge fraction")
    p.add_argument("--out", required=True)

    p = add("bias", cmd_bias, "bias-network sizing, currents and gate voltages")
    p.add_argument("--bits", type=int, required=True, help="bit count, 1 to 8")
    reference = p.add_mutually_exclusive_group()
    reference.add_argument("--vref", default=None, help="reference voltage (suffixed quantity)")
    reference.add_argument("--ibias", default=None, help="target fastest-cell current (suffixed quantity)")
    p.add_argument("--out", required=True)

    p = add("calibrate", cmd_calibrate, "resolve the jitter-fit unit scale and persist it")
    kinds = [f"{kind} ({', '.join(key if d is None else f'{key}={d:g}' for key, d in fields.items())})"
             for kind, fields in TARGET_FIELDS.items()]
    p.add_argument("--targets", default=None,
                   help="JSON list of custom targets, each a kind and its fields: " + ", ".join(kinds))
    _add_grid_flags(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # calibrate has no --out: it writes calibration.json in the config dir
        out = Path(args.out) if hasattr(args, "out") else config_dir() / "calibration"
        if not out.name.strip("."):
            raise DelaymacError(f"--out must name a file (got {args.out!r})")
        stem = out.with_suffix("") if out.suffix else out
        run = Run(args.command, _resolve_config(args), stem, getattr(args, "seed", None))
        code = args.func(args, run)
        if run.outputs:
            manifest = {
                "command": run.command,
                "config_hash": run.cfg.digest(),
                "seed": run.seed,
                "outputs": [str(p) for p in run.outputs],
                "tool_version": __version__,
            }
            _write_json(run.output(".manifest.json"), manifest)
        return code
    except DelaymacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
