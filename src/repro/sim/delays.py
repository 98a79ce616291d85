"""Delay models for the event-driven simulator.

The SI model behind FANTOM treats gate delays as unbounded but finite
(paper Section 3); hazards are consequences of *relative* delays, so the
simulator's delay model is where physical skew is injected:

* :class:`UnitDelay` — every gate one unit; deterministic baseline.
* :class:`RandomDelay` — per-gate delays drawn once from a seeded uniform
  range (a delay is a property of a piece of silicon, not of an event).
  Flip-flop clock-to-Q values get their own range, because the FFX bank's
  per-bit clock-to-Q spread is what exposes intermediate input vectors.

`loop_safe_random` draws random delays that respect the paper's
loop-delay assumption — the maximum input-path skew stays below the
minimum feedback-loop delay — which is the regime FANTOM guarantees
hazard-freedom in.  The ablation benchmark uses the same model, so any
failure of the fsv-less machine is attributable to the missing
protection, not to breaking the architecture's stated assumptions.

Time quantum
------------
Every built-in model snaps its delays onto the dyadic grid
``2**-TIME_GRID_BITS`` (a sub-3e-8 perturbation of the drawn value,
physically meaningless at the model ranges in play).  On that grid every
float the event kernels compute — sums and comparisons of event times —
is *exact* IEEE arithmetic as long as times stay below
``2**(53 - TIME_GRID_BITS)``, so the ring kernel (:mod:`repro.sim.ring`)
can record a run segment in times relative to its start and replay it
elsewhere bit for bit.  :func:`negotiate_time_quantum` is that
negotiation: given a resolved delay vector it returns the shared shift,
or ``None`` when no practical quantum exists (hand-annotated off-grid
delays), in which case the kernel runs its event heap without replay.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..netlist.gates import Dff, Gate

#: Built-in delay draws land on multiples of ``2**-TIME_GRID_BITS``.
TIME_GRID_BITS = 24

#: The largest per-vector tick shift the ring kernel replays on.  With
#: shift ``k`` the exactness horizon is ``2**(53 - k)`` time units
#: (~5.4e8 at the default grid) — far beyond any campaign walk.
TICK_SHIFT_LIMIT = 30


def snap_to_grid(value: float, bits: int = TIME_GRID_BITS) -> float:
    """The nearest multiple of ``2**-bits`` (exact power-of-two scaling)."""
    scale = 1 << bits
    return round(value * scale) / scale


def dyadic_shift(value: float) -> int:
    """The smallest ``k`` with ``value * 2**k`` integral.

    Exact for every finite float: ``float.as_integer_ratio`` always
    returns a power-of-two denominator.
    """
    _num, den = float(value).as_integer_ratio()
    return den.bit_length() - 1


def negotiate_time_quantum(
    values, limit: int = TICK_SHIFT_LIMIT
) -> int | None:
    """The shared tick shift for a resolved delay vector, or ``None``.

    Returns the smallest ``k`` such that every value is an integer
    multiple of ``2**-k`` — the vector's exact common quantum — provided
    it does not exceed ``limit`` (a denominator-bounded stand-in for the
    LCM blow-up of impractical quanta).  ``0`` means every delay is an
    integer.
    """
    shift = 0
    for value in values:
        k = dyadic_shift(value)
        if k > limit:
            return None
        if k > shift:
            shift = k
    return shift


class DelayModel:
    """Assigns a fixed delay to every gate and flip-flop instance.

    Built-in models keep their delays on the dyadic time grid
    (:data:`TIME_GRID_BITS`) so the ring kernel's segment replay
    applies; models are free to return off-grid values, at the cost of
    the heap path.
    """

    def gate_delay(self, gate: Gate) -> float:
        raise NotImplementedError

    def clk_to_q(self, dff: Dff) -> float:
        raise NotImplementedError


@dataclass
class UnitDelay(DelayModel):
    """Every gate ``unit``, every flip-flop ``unit`` clock-to-Q."""

    unit: float = 1.0

    def gate_delay(self, gate: Gate) -> float:
        return gate.delay if gate.delay is not None else self.unit

    def clk_to_q(self, dff: Dff) -> float:
        return dff.clk_to_q if dff.clk_to_q is not None else self.unit


class RandomDelay(DelayModel):
    """Seeded per-instance uniform delays.

    ``gate_range`` bounds combinational gates, ``ff_range`` bounds
    flip-flop clock-to-Q.  Each instance's delay is drawn once on first
    use and cached, so repeated evaluations of the same gate are
    consistent within a run, and two simulators built with the same seed
    see identical silicon.

    Draws are snapped to the dyadic grid ``2**-grid_bits`` (and clamped
    inside the stated range, whose ends may themselves be off-grid), so
    the ring kernel's quantum negotiation always succeeds on built-in
    silicon.  Pass ``grid_bits=None`` for raw uniform draws — the
    heap regime.
    """

    def __init__(
        self,
        seed: int,
        gate_range: tuple[float, float] = (0.8, 1.2),
        ff_range: tuple[float, float] = (0.2, 1.0),
        grid_bits: int | None = TIME_GRID_BITS,
    ):
        if gate_range[0] <= 0 or ff_range[0] <= 0:
            raise ValueError("delays must be strictly positive")
        self.seed = seed
        self.gate_range = gate_range
        self.ff_range = ff_range
        self.grid_bits = grid_bits
        self._cache: dict[str, float] = {}

    def _draw(self, key: str, lo: float, hi: float) -> float:
        if key not in self._cache:
            rng = random.Random(f"{self.seed}:{key}")
            value = rng.uniform(lo, hi)
            bits = self.grid_bits
            if bits is not None:
                scale = 1 << bits
                tick = round(value * scale)
                tick = max(tick, math.ceil(lo * scale))
                tick = min(tick, math.floor(hi * scale))
                value = tick / scale
            self._cache[key] = value
        return self._cache[key]

    def gate_delay(self, gate: Gate) -> float:
        if gate.delay is not None:
            return gate.delay
        return self._draw(f"g:{gate.name}", *self.gate_range)

    def clk_to_q(self, dff: Dff) -> float:
        if dff.clk_to_q is not None:
            return dff.clk_to_q
        return self._draw(f"f:{dff.name}", *self.ff_range)


def loop_safe_random(seed: int) -> RandomDelay:
    """A random model honouring the loop-delay assumption.

    Flip-flop clock-to-Q spreads over [0.2, 1.0] (input skew window up to
    0.8), while every combinational gate takes at least 1.5 — so the
    state feedback loop (>= one full gate) is always slower than the
    largest input skew, which is the paper's "maximum line delay less
    than minimum loop delay" requirement.
    """
    return RandomDelay(
        seed, gate_range=(1.5, 2.5), ff_range=(0.2, 1.0)
    )


def skewed_random(seed: int) -> RandomDelay:
    """A deliberately hostile model: input skew comparable to gate delay.

    Violates nothing the environment promises (inputs still settle before
    the next hand-shake), but widens the intermediate-vector window, used
    to stress the hazard ablation.
    """
    return RandomDelay(
        seed, gate_range=(0.9, 1.6), ff_range=(0.2, 2.0)
    )


class CornerDelay(DelayModel):
    """The deterministic worst-case corner of the loop-safe regime.

    Random delay sweeps sample the interior of the paper's Section-4.3
    timing region; this model pins every instance to the *boundary*:

    * every combinational gate takes exactly ``gate_floor`` — the loop
      (one gate minimum) is as fast as the loop-delay assumption allows,
      so the protection margin between input skew and state feedback is
      minimal;
    * flip-flop clock-to-Q alternates between the two extremes of the
      loop-safe band by bank position, so *adjacent* bits see the
      maximum pairwise skew — the widest intermediate-vector window per
      input change.  ``phase`` flips which bits are fast and which are
      slow, so a sweep over phases visits both polarities of every
      corner.

    The defaults keep the paper's "maximum line delay less than minimum
    loop delay" assumption satisfied with the tightest sensible margin:
    skew window ``ff_extremes[1] - ff_extremes[0]`` = 0.8 against a 1.0
    loop floor.  Bank position is parsed from the instance name
    (``FFX3`` → 3), not from call order, so both event kernels and any
    evaluation order assign identical silicon.

    Like the random models, the extremes are snapped to the dyadic time
    grid (nearest multiple of ``2**-TIME_GRID_BITS``) so corner cells
    keep segment replay; the snap moves a boundary by under 3e-8.
    """

    def __init__(
        self,
        phase: int = 0,
        gate_floor: float = 1.0,
        ff_extremes: tuple[float, float] = (0.2, 1.0),
    ):
        if gate_floor <= ff_extremes[1] - ff_extremes[0]:
            raise ValueError(
                "corner violates the loop-delay assumption: skew window "
                f"{ff_extremes[1] - ff_extremes[0]} >= loop floor {gate_floor}"
            )
        if min(ff_extremes) <= 0 or gate_floor <= 0:
            raise ValueError("delays must be strictly positive")
        self.phase = phase
        self.gate_floor = snap_to_grid(gate_floor)
        self.ff_extremes = tuple(snap_to_grid(v) for v in ff_extremes)

    def gate_delay(self, gate: Gate) -> float:
        if gate.delay is not None:
            return gate.delay
        return self.gate_floor

    def clk_to_q(self, dff: Dff) -> float:
        if dff.clk_to_q is not None:
            return dff.clk_to_q
        position = int("".join(ch for ch in dff.name if ch.isdigit()) or 0)
        return self.ff_extremes[(position + self.phase) % 2]


def hostile_random(seed: int) -> RandomDelay:
    """Maximum-stress model: input skew up to several gate delays.

    The intermediate-vector window now dwarfs the logic's reaction time,
    so every function M-hazard of an unprotected machine has ample room
    to fire; a FANTOM machine must still come back clean (its hold-or-
    proceed construction is delay-independent).
    """
    return RandomDelay(
        seed, gate_range=(0.5, 1.2), ff_range=(0.2, 3.0)
    )
