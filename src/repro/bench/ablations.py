"""Ablation studies for the design choices the paper argues for.

Not figures from the paper, but quantifications of its two central design
arguments (§3.4-3.6):

* **Secret-sharing graph** — anytrust client/server coins versus classic
  all-pairs coins: client PRNG work per round drops from O(N) to O(M)
  streams, and a client's ciphertext stops depending on other clients'
  liveness (no restart amplification under churn).
* **Communication topology** — two-level hierarchy versus all-to-all
  broadcast: total messages fall from O(N^2) to O(N + M^2).
"""

from __future__ import annotations

import random

from repro.bench.harness import FigureResult
from repro.dcnet import classic as classic_mod
from repro.dcnet.classic import analytic_costs as classic_costs
from repro.dcnet.leader import analytic_costs as leader_costs


def dissent_costs(num_clients: int, num_servers: int, round_bytes: int):
    """Closed-form per-round cost of Dissent's client/server design."""
    from repro.dcnet.classic import CostCounters

    counters = CostCounters()
    # Clients: M streams each; servers: N streams each.
    counters.prng_bytes = (
        num_clients * num_servers + num_servers * num_clients
    ) * round_bytes
    # Clients: 1 submission each; servers: M-1 reveals + commit + N/M outputs.
    counters.messages_sent = num_clients + num_servers * (num_servers - 1) + num_clients
    counters.bytes_sent = counters.messages_sent * round_bytes
    return counters


def secret_graph_ablation(
    client_counts: tuple[int, ...] = (32, 100, 320, 1000, 5120),
    num_servers: int = 32,
    round_bytes: int = 1024,
) -> FigureResult:
    """Per-CLIENT PRNG bytes per round: all-pairs vs anytrust."""
    result = FigureResult(
        figure="Ablation A",
        title=f"per-client PRNG bytes/round ({round_bytes}B rounds)",
        x_label="clients",
        x_values=list(client_counts),
    )
    result.add_series(
        "all-pairs", [float((n - 1) * round_bytes) for n in client_counts]
    )
    result.add_series(
        "anytrust", [float(num_servers * round_bytes) for n in client_counts]
    )
    result.add_series(
        "ratio",
        [(n - 1) / num_servers for n in client_counts],
    )
    result.add_note(
        "anytrust client work is constant in N; all-pairs grows linearly "
        "(paper §3.4)"
    )
    return result


def topology_ablation(
    client_counts: tuple[int, ...] = (32, 100, 320, 1000, 5120),
    num_servers: int = 32,
    round_bytes: int = 1024,
) -> FigureResult:
    """Total messages per round across the three communication designs."""
    result = FigureResult(
        figure="Ablation B",
        title="total messages per round by communication design",
        x_label="clients",
        x_values=list(client_counts),
    )
    result.add_series(
        "broadcast(N^2)",
        [float(classic_costs(n, round_bytes).messages_sent) for n in client_counts],
    )
    result.add_series(
        "leader(2N)",
        [float(leader_costs(n, round_bytes).messages_sent) for n in client_counts],
    )
    result.add_series(
        "dissent(N+M^2)",
        [
            float(dissent_costs(n, num_servers, round_bytes).messages_sent)
            for n in client_counts
        ],
    )
    result.add_note(
        "hierarchy reduces communication from O(N^2) to O(N + M^2) (paper §3.5)"
    )
    return result


def churn_restart_ablation(
    num_members: int = 12,
    drops: int = 3,
    round_bytes: int = 64,
    seed: int = 5,
) -> FigureResult:
    """Restart amplification under churn: all-pairs vs Dissent.

    An adversary (or plain churn) takes f members offline one at a time
    mid-round; the all-pairs design re-runs the round after every loss
    (§3.1), while Dissent's servers complete the round without the missing
    clients.  Measured with the *functional* classic implementation.
    """
    rng = random.Random(seed)
    net = classic_mod.ClassicDcNet(num_members, seed=seed)
    victims = rng.sample(range(1, num_members), drops)
    drop_schedule = [{v} for v in victims]
    message = bytes(rng.getrandbits(8) for _ in range(round_bytes))
    outcome = net.run_round(
        0, round_bytes, sender=0, message=message, drop_schedule=drop_schedule
    )

    result = FigureResult(
        figure="Ablation C",
        title=f"round attempts when {drops} members drop mid-round",
        x_label="design",
        x_values=["all-pairs", "dissent"],
    )
    result.add_series("attempts", [float(outcome.attempts), 1.0])
    result.add_note(
        f"all-pairs needed {outcome.attempts} attempts (one per drop + final); "
        "Dissent servers complete the round without interacting with clients "
        "again (paper §3.6)"
    )
    return result
