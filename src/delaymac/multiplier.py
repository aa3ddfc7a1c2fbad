"""Event-level simulation of the signed n-bit delay multiplier and MAC chains.

A multiplier carries a pair of falling-edge events (variable and reference).
Each set weight bit routes both edges through a delay-cell pair whose current
is the fastest cell's divided by 2**i, so bit i contributes 2**i times the
unit referential delay; cleared bits bypass their cells entirely. A negative
sign swaps the pair at the input relay, which flips the sign of the
contributed referential delay exactly.

simulate_chain is the one engine behind every path: the transfer over the
whole (stage, bit) array in closed form, each stage's set bits summed in
increasing i before its sign is applied, and event times and the chain total
as cumulative sums over stages. Every other view is one call of it:
simulate_multiply is its one-stage case, differential_multiply a two-stage
chain read stage by stage, and a transfer_sweep row one stage of a noise-free
chain.

Jitter needs a fit and a seed; without either, every trial is the
deterministic total. The draw is the package's one jitter stream,
jitter._draw_jitter, weighted by the signed per-cell sigmas of the traversed
cells in this order: stage-major, then per set bit in increasing i. Each
weight is one cell's budget, jitter.total_jitter. Trial 0's per-cell normals
alone feed the per-stage view. jitter.sample_cell_jitter is the stream's
one-cell case: a one-stage chain with one set bit at v_a = v_a0 draws
exactly its samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .cell import initial_drop, latch_delay, latch_point
from .errors import RegimeError
from .jitter import _draw_jitter, total_jitter
from .params import INPUT_FLOOR_V, CellDesign, JitterFit, MultiplierSpec, TechnologyProfile, require_weight_fits

SeedLike = Union[int, "np.random.SeedSequence"]

MODELS = ("ideal", "nonlinear")


@dataclass(frozen=True)
class ReferentialEvent:
    """A variable/reference falling-edge pair; the delay is their separation."""

    t_var: float = 0.0
    t_ref: float = 0.0


@dataclass(frozen=True)
class MultiplyResult:
    delta_t: float


@dataclass(frozen=True)
class StageTrace:
    stage: int
    weight: int
    v_a: float
    event_in: ReferentialEvent
    event_out: ReferentialEvent
    delta_t: float


@dataclass(frozen=True)
class ChainResult:
    """One evaluation of a MAC chain.

    deltas holds every trial's total referential delay. The other arrays
    describe trial 0: stage_deltas per stage, per_bit the (stage, bit)
    contributions (0 where a bit is bypassed) and events the (t_var, t_ref)
    pairs, row 0 the input pair and row j + 1 the pair after stage j.
    """

    deltas: np.ndarray
    stage_deltas: np.ndarray
    per_bit: np.ndarray
    events: np.ndarray
    warnings: Tuple[str, ...]

    def trace(self, weights: Sequence[int], v_as: Sequence[float]) -> List[StageTrace]:
        """Trial 0 stage by stage, given the weights and inputs the chain ran on.

        The reference view of the per-stage arrays; the CLI writes its trace
        straight from the arrays instead.
        """
        events = [ReferentialEvent(*pair) for pair in self.events.tolist()]
        return [
            StageTrace(j, int(w), v_a, events[j], events[j + 1], delta)
            for j, (w, v_a, delta) in enumerate(zip(weights, v_as, self.stage_deltas.tolist()))
        ]


def _sum_bits(cells: np.ndarray) -> np.ndarray:
    """Per-stage sum of a (stage, bit) array, adding the bit columns in increasing i."""
    return np.add.accumulate(cells, axis=1)[:, -1]


def simulate_chain(
    weights: Sequence[int],
    v_as: Sequence[float],
    template: MultiplierSpec,
    cell: CellDesign,
    tech: TechnologyProfile,
    model: str = "ideal",
    fit: Optional[JitterFit] = None,
    seed: Optional[SeedLike] = None,
    trials: int = 1,
    ev_in: ReferentialEvent = ReferentialEvent(),
    distortion_alpha: float = 0.0,
) -> ChainResult:
    """Serial MAC chain: each multiplier consumes the previous event pair.

    weights are signed integers with |w| < 2**n_bits (WeightOverflowError
    otherwise) and v_as the per-stage analog inputs in [0, v_dd].
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS} (got {model!r})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(weights) != len(v_as):
        raise ValueError(f"got {len(weights)} weights but {len(v_as)} analog inputs")
    require_weight_fits(max((abs(int(x)) for x in weights), default=0), template.n_bits)
    w, v_as, v_a0 = np.asarray(weights, dtype=np.int64), np.asarray(v_as, dtype=float), template.v_a0
    warnings = []
    for name, v in (("v_a", v_as), ("v_a0", np.full(len(v_as), v_a0))):
        outside = v[~((v >= 0.0) & (v <= tech.v_dd))]
        if outside.size:
            raise RegimeError(f"{name}={outside[0]} outside [0, v_dd={tech.v_dd}]")
        if low := np.count_nonzero(v < INPUT_FLOOR_V):
            warnings.append(
                f"{low} of {len(v)} stages have {name} below the {INPUT_FLOOR_V} V input floor")

    noisy = fit is not None and seed is not None
    signs = np.where(w < 0, -1, 1)
    bits = (np.abs(w)[:, None] >> np.arange(template.n_bits)) & 1 == 1
    i_star = template.i_star_fastest / 2.0 ** np.arange(template.n_bits)
    unit = -(cell.c_s_eff / i_star)  # referential delay per volt of each bit
    dv = v_as[:, None] - v_a0
    distortion = unit * distortion_alpha * (dv * dv)
    t_base, sigma = np.zeros(template.n_bits), np.zeros(template.n_bits)
    for i in np.flatnonzero(bits.any(axis=0)):  # per-bit constants of the columns in use
        cell_i = cell.with_current(float(i_star[i]))
        dv0_ref = initial_drop(v_a0, cell_i, tech)
        sigma[i] = total_jitter(cell_i, fit).sigma_total if noisy else 0.0
        if model == "ideal":
            t_base[i] = (cell_i.c_star / cell_i.i_star) * (latch_point(cell_i, tech) - dv0_ref)
        else:
            t_base[i] = latch_delay(dv0_ref, cell_i, tech)
    if model == "ideal":
        rd = unit * dv + distortion
    else:  # cell.initial_drop and cell.latch_delay over the whole array
        dv0 = np.where(v_as <= tech.v_thn, 0.0, (cell.c_s_eff / cell.c_star) * (v_as - tech.v_thn))
        dv0 = dv0 + cell.dq_of_md / cell.c_star
        hot = bits.any(axis=1) & (dv0 >= tech.v_thp)
        if hot.any():
            raise RegimeError(
                f"dv0={dv0[hot][0]} >= v_thp={tech.v_thp}: detector leaves the exponential regime")
        ramp = i_star / cell.c_star
        margin = ramp * cell.c_re / (tech.i_0 * np.exp(dv0 / tech.v_t))[:, None] * (tech.v_thn / tech.v_t)
        rd = ((tech.v_t / ramp) * np.log1p(margin) - t_base) + distortion

    j = 0.0
    if not noisy:
        jitter = np.zeros(trials)
    else:
        stage, bit = np.nonzero(bits)  # the traversed cells, stage-major
        # first: trial 0's per-cell normals, for the per-stage view
        first, jitter = _draw_jitter(seed, signs[stage] * sigma[bit], trials)
        j = np.zeros(bits.shape)
        j[stage, bit] = sigma[bit] * first
    per_bit = np.where(bits, rd + j, 0.0)
    quiet_total = np.cumsum(np.append(0.0, signs * _sum_bits(np.where(bits, rd, 0.0))))[-1]
    paths = np.stack([_sum_bits(np.where(bits, t_base + rd + j, 0.0)),
                      _sum_bits(np.where(bits, t_base, 0.0))], axis=1)
    paths[signs < 0] = paths[signs < 0, ::-1]  # the relay swaps the wires of a negative stage
    events = np.cumsum(np.vstack([[ev_in.t_var, ev_in.t_ref], paths]), axis=0)
    return ChainResult(quiet_total + jitter, signs * _sum_bits(per_bit), per_bit, events, tuple(warnings))


def simulate_multiply(
    ev_in: ReferentialEvent,
    spec: MultiplierSpec,
    v_a: float,
    cell: CellDesign,
    tech: TechnologyProfile,
    distortion_alpha: float = 0.0,
) -> MultiplyResult:
    """Propagate an event pair through one ideal multiplier (a one-stage chain).

    Returns the multiplier's referential delay delta_t, in seconds: exactly
    sign * -(c_s_eff / i_star_fastest) * (v_a - v_a0) * W, plus the injected
    distortion_alpha term of every set bit.
    """
    run = simulate_chain(
        [spec.sign * spec.weight_value], [v_a], spec, cell, tech, ev_in=ev_in, distortion_alpha=distortion_alpha,
    )
    return MultiplyResult(delta_t=float(run.stage_deltas[0]))


def differential_multiply(
    spec: MultiplierSpec,
    v_a: float,
    distortion_alpha: float,
    cell: CellDesign,
    tech: TechnologyProfile,
) -> float:
    """Differential-mode product: half the delay difference of the two paths.

    The paths run at v_a0 + v_a and v_a0 - v_a, so any even-order term of the
    per-cell transfer (the injected quadratic in particular) cancels exactly
    and the output is odd in v_a.
    """
    weight = spec.sign * spec.weight_value
    plus, minus = simulate_chain(
        [weight, weight], [spec.v_a0 + v_a, spec.v_a0 - v_a], spec, cell, tech, distortion_alpha=distortion_alpha,
    ).stage_deltas.tolist()
    return 0.5 * (plus - minus)


def transfer_sweep(
    template: MultiplierSpec,
    v_a_values: Sequence[float],
    weights: Sequence[int],
    cell: CellDesign,
    tech: TechnologyProfile,
    model: str = "ideal",
) -> List[dict]:
    """Noise-free transfer-characteristic table over a weight set and an input grid.

    Each row, weight-major, is one stage of a chain under model. Row keys:
    v_a, w (weight magnitude), s (sign) and delta_t_s, the stage's
    referential delay in seconds. delta_t_s keeps the engine's sign:
    negative for v_a > v_a0 at a positive weight.
    """
    w_runs = np.repeat(np.asarray(weights, dtype=np.int64), len(v_a_values)).tolist()
    v_runs = np.tile(np.asarray(v_a_values, dtype=float), len(weights)).tolist()
    deltas = simulate_chain(w_runs, v_runs, template, cell, tech, model=model).stage_deltas
    return [
        {"v_a": v_a, "w": abs(w), "s": -1 if w < 0 else 1, "delta_t_s": delta}
        for w, v_a, delta in zip(w_runs, v_runs, deltas.tolist())
    ]
