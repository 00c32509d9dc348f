"""Synthetic PlanetLab-style submission traces (paper §5.1, Figure 6).

The paper collected a 24-hour trace from 500+ PlanetLab clients and eight
EC2 servers under a static 120-second window, then replayed it against
candidate window-closure policies.  We cannot rerun PlanetLab, so this
module generates the closest synthetic equivalent: per-round submission
delay profiles from the heavy-tailed :class:`~repro.sim.churn.StragglerModel`
over a population that churns with a diurnal swing.

The generator's parameters are tuned so the baseline (wait-for-all, 120 s)
policy reproduces the trace statistics §5.1 reports: about half the rounds
delayed an order of magnitude past the typical exchange, ~15% of rounds
waiting out the full deadline, and miss rates of a few percent for the
fraction-multiplier policies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.sim.churn import SessionChurnModel, StragglerModel


@dataclass(frozen=True)
class RoundTrace:
    """One round's worth of trace data."""

    round_number: int
    online_clients: int
    delays: tuple[float, ...]  # submission delays of the online clients


@dataclass
class TraceConfig:
    """Knobs for the synthetic 24-hour deployment."""

    num_clients: int = 560
    num_rounds: int = 2000
    straggler: StragglerModel = field(default_factory=StragglerModel)
    churn: SessionChurnModel = field(default_factory=SessionChurnModel)
    seed: int = 2012


def generate_trace(config: TraceConfig | None = None) -> list[RoundTrace]:
    """Produce the full synthetic trace.

    Each round samples the online population (churn model) and a delay
    for every online client (straggler model).  Offline clients simply do
    not appear in the round's delay vector — matching how the paper's
    servers only ever see submissions from live clients.
    """
    cfg = config or TraceConfig()
    rng = random.Random(cfg.seed)
    online = [rng.random() < 0.85 for _ in range(cfg.num_clients)]
    rounds: list[RoundTrace] = []
    for r in range(cfg.num_rounds):
        phase = r / cfg.num_rounds
        online = cfg.churn.step(online, phase, rng)
        population = sum(online)
        delays = tuple(cfg.straggler.sample_round(population, rng))
        rounds.append(
            RoundTrace(round_number=r, online_clients=population, delays=delays)
        )
    return rounds


@dataclass(frozen=True)
class PolicyReplayStats:
    """Aggregate statistics from replaying one policy over a trace."""

    policy_name: str
    completion_times: tuple[float, ...]
    miss_fractions: tuple[float, ...]

    @property
    def median_completion(self) -> float:
        ordered = sorted(self.completion_times)
        return ordered[len(ordered) // 2]

    @property
    def mean_miss_fraction(self) -> float:
        return sum(self.miss_fractions) / len(self.miss_fractions)

    def fraction_at_deadline(self, deadline: float, tolerance: float = 1e-9) -> float:
        """Share of rounds that waited out the full hard deadline."""
        hits = sum(1 for t in self.completion_times if t >= deadline - tolerance)
        return hits / len(self.completion_times)

    def cdf(self) -> list[tuple[float, float]]:
        """(time, cumulative fraction) points for plotting/reporting."""
        ordered = sorted(self.completion_times)
        n = len(ordered)
        return [(t, (i + 1) / n) for i, t in enumerate(ordered)]


def replay_policy(
    policy,
    trace: Sequence[RoundTrace],
    policy_name: str | None = None,
) -> PolicyReplayStats:
    """Run a window policy over every round of a trace (Figure 6 core)."""
    completions: list[float] = []
    misses: list[float] = []
    for round_trace in trace:
        outcome = policy.evaluate(round_trace.delays, round_trace.online_clients)
        completions.append(outcome.close_time)
        misses.append(outcome.miss_fraction)
    return PolicyReplayStats(
        policy_name=policy_name or type(policy).__name__,
        completion_times=tuple(completions),
        miss_fractions=tuple(misses),
    )
