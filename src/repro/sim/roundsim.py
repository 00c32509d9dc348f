"""Simulated-time DC-net rounds at paper scale (Figures 7, 8, 9).

This module replays the timing structure of Algorithms 1 and 2 — client
compute → shared-uplink transfer → submission window → inventory →
server compute → commit → reveal → certify → output fan-out — using the
discrete-event engine for the submission window and analytic phase models
(topology + cost model) for the server pipeline.

The paper's DeterLab runs put up to 5,120 client processes behind 32
servers; real crypto in Python cannot reach that in wall-clock, but the
timing model only needs byte counts and operation counts, both of which
come from the *real* layout arithmetic in :mod:`repro.core.schedule` — so
simulated rounds are exactly as large as real ones would be.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.config import upstream_server
from repro.crypto.groups import group_by_name
from repro.core.policy import WindowPolicy, FractionMultiplierPolicy
from repro.core.schedule import open_slot_bytes
from repro.sim.churn import LanJitterModel, SessionChurnModel
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.sim.network import Topology, deterlab_topology

#: Modeled ElGamal ciphertext widths (two group elements each), derived
#: from the real backends instead of repeating their sizes as literals:
#: key shuffles ride the compact ~256-bit EC group, general message
#: shuffles the 2048-bit embedding modp group (paper deployment shape).
KEY_CIPHERTEXT_BYTES = 2 * group_by_name("ec25519").element_bytes
EMBED_CIPHERTEXT_BYTES = 2 * group_by_name("modp2048").element_bytes


@dataclass(frozen=True)
class Workload:
    """Which slots are open and how big, per round.

    The paper's two §5.2 scenarios:

    * microblog — "a random 1% of all clients submit 128-byte messages
      during any particular round";
    * data sharing — "one client transmits a 128 KB message per round".
    """

    name: str
    open_slot_payloads: tuple[int, ...]

    @classmethod
    def microblog(cls, num_clients: int, fraction: float = 0.01, message_bytes: int = 128) -> "Workload":
        senders = max(1, round(fraction * num_clients))
        return cls("microblog", tuple([message_bytes] * senders))

    @classmethod
    def data_sharing(cls, message_bytes: int = 128 * 1024) -> "Workload":
        return cls("data-sharing", (message_bytes,))

    def round_bytes(self, num_clients: int) -> int:
        """Exact round vector size under the real slot layout rules."""
        request_region = (num_clients + 7) // 8
        return request_region + sum(
            open_slot_bytes(payload) for payload in self.open_slot_payloads
        )


@dataclass(frozen=True)
class RoundTiming:
    """One simulated round's timing decomposition (Figure 7/8 series)."""

    client_submission: float  # window-close time: paper's "Client submission"
    server_processing: float  # everything after the window: "Server processing"
    included_clients: int
    round_bytes: int
    #: Per-phase times (submission, inventory, compute, commit, reveal,
    #: certify, output [, pad lane]) backing the pipeline model.
    phase_times: tuple[float, ...] = ()
    #: Steady-state round period at the configured pipeline depth: equals
    #: :attr:`total` for lockstep (depth 1); with W rounds in flight the
    #: period is ``max(max(phase), total / W)`` and each server's pad
    #: derivations are modelled as their own lane.
    pipeline_period: float = 0.0

    @property
    def total(self) -> float:
        return self.client_submission + self.server_processing


@dataclass
class RoundSimConfig:
    """Inputs for one simulated round."""

    num_clients: int
    num_servers: int
    workload: Workload
    topology: Topology = field(default_factory=deterlab_topology)
    cost: CostModel = DEFAULT_COST_MODEL
    policy: WindowPolicy = field(default_factory=FractionMultiplierPolicy)
    jitter: object = field(default_factory=LanJitterModel)
    #: Whether the server LAN is a shared medium (the paper's DeterLab
    #: servers "shared a common 100 Mbps network"), which makes all-to-all
    #: reveal traffic scale with M*(M-1) rather than M-1.
    shared_server_medium: bool = True
    #: Physical client machines available.  The paper multiplexed up to 16
    #: client processes per DeterLab machine (320 machines hosting 5,120
    #: clients); colocated processes contend for the CPU, slowing each
    #: client's per-round compute proportionally.  None = one per machine.
    client_machines: int | None = None
    #: Rounds kept in flight, as ``DissentSession.run_rounds(n, window)``
    #: keeps them.
    #: 1 = lockstep; with W > 1 the steady-state round period is the
    #: pipeline period (max of the phase times once the window is deep
    #: enough), with each server deriving its own N pads for round r+1
    #: while round r's exchanges are in flight.  A modelled deployment:
    #: the in-process engine derives every pad when it is needed.
    pipeline_depth: int = 1


def _server_exchange_time(config: RoundSimConfig, nbytes: int) -> float:
    """All-to-all exchange among servers of equal-size blobs."""
    topo = config.topology
    m = config.num_servers
    if m <= 1:
        return 0.0
    if config.shared_server_medium:
        total_bytes = m * (m - 1) * nbytes
        return topo.server_link.latency_s + 8.0 * total_bytes / topo.server_link.bandwidth_bps
    return topo.server_exchange_time(m, nbytes)


def simulate_round(config: RoundSimConfig, rng: random.Random) -> RoundTiming:
    """Simulate one DC-net round and decompose its latency.

    The client-submission phase runs on the event engine: every client's
    arrival is an event (compute + queued shared-uplink transfer + jitter),
    and the window policy closes on the resulting arrival profile.  The
    server pipeline after the window is charged analytically per phase.
    """
    n, m = config.num_clients, config.num_servers
    round_bytes = config.workload.round_bytes(n)
    topo = config.topology
    cost = config.cost

    # --- phase 1: client submissions (event-driven) ---------------------
    sim = Simulator()
    arrivals: list[float] = []
    contention = 1.0
    if config.client_machines is not None:
        contention = max(1.0, n / config.client_machines)
    turnaround = cost.turnaround_base_seconds + cost.turnaround_per_process_seconds * (
        contention - 1.0
    )
    compute = turnaround + contention * cost.client_submission_compute(round_bytes, m)
    jitters = config.jitter.sample_round(n, rng)
    per_server = [0] * m
    serialization = topo.client_uplink.serialization_time(round_bytes)
    for i in range(n):
        server = upstream_server(i, m)
        # Clients behind one server serialize on their shared uplink; the
        # queue position sets each one's serialization delay.
        queue_rank = per_server[server]
        per_server[server] += 1
        arrival_delay = (
            jitters[i]
            + compute
            + topo.client_uplink.latency_s
            + (queue_rank + 1) * serialization
        )
        if math.isinf(arrival_delay):
            arrivals.append(math.inf)
            continue
        sim.schedule(arrival_delay, lambda t=arrival_delay: arrivals.append(t))
    sim.run()
    finite = [a for a in arrivals if not math.isinf(a)]
    all_delays = finite + [math.inf] * (n - len(finite))
    outcome = config.policy.evaluate(all_delays, n)
    client_submission = outcome.close_time
    included = outcome.included_count

    # --- phase 2: server pipeline (analytic) ----------------------------
    attached = max(1, included // max(1, m))
    # Every peer-exchange phase delivers M-1 signed envelopes, checked in
    # one batched multi-exponentiation (or one-by-one when the model's
    # batched_signatures flag is off — the pre-batching protocol).
    peer_checks = cost.verify_many_seconds(m - 1)
    # Inventory: client-id lists, ~4 bytes per directly-attached client.
    inventory_bytes = 4 * attached
    t_inventory = _server_exchange_time(config, inventory_bytes) + peer_checks
    # Stream generation + combining for every included client, plus the
    # batched signature check over the directly-received envelopes.
    t_compute = cost.server_round_compute(
        round_bytes, included, attached_clients=attached
    )
    # Commit exchange (32-byte digests), reveal exchange (full blobs).
    t_commit = _server_exchange_time(config, 32) + peer_checks
    t_reveal = _server_exchange_time(config, round_bytes) + peer_checks
    # Certification: one signature + signature exchange + checking all M
    # output signatures (one digest, one batch).
    t_certify = (
        cost.sign_seconds
        + _server_exchange_time(config, 64)
        + cost.verify_many_seconds(m)
    )
    # Output fan-out to each server's attached clients + client verify
    # (verification contends with colocated client processes too).
    t_output = topo.server_to_clients_time(
        max(1, included // max(1, m)), round_bytes
    ) + contention * cost.client_output_verify(round_bytes, m)

    server_processing = (
        t_inventory + t_compute + t_commit + t_reveal + t_certify + t_output
    )
    phases = (
        client_submission,
        t_inventory,
        t_compute,
        t_commit,
        t_reveal,
        t_certify,
        t_output,
    )
    if config.pipeline_depth > 1:
        # Modelled deployment: the server's N pair streams for round r+1
        # derive on its own machine while round r's exchanges are in
        # flight, so stream generation leaves the compute phase and
        # becomes its own overlapped lane (it still bounds the period —
        # a lane slower than every exchange would become the bottleneck).
        stream_time = cost.prng_time(round_bytes * included, cost.server_cores)
        phases = (
            client_submission,
            t_inventory,
            t_compute - stream_time,
            t_commit,
            t_reveal,
            t_certify,
            t_output,
            stream_time,
        )
    period = cost.pipeline_period(phases, config.pipeline_depth)
    return RoundTiming(
        client_submission=client_submission,
        server_processing=server_processing,
        included_clients=included,
        round_bytes=round_bytes,
        phase_times=phases,
        pipeline_period=period,
    )


def simulate_rounds(
    config: RoundSimConfig, rounds: int, seed: int = 0
) -> list[RoundTiming]:
    """Simulate several i.i.d. rounds (jitter resampled each time)."""
    rng = random.Random(seed)
    return [simulate_round(config, rng) for _ in range(rounds)]


def mean_timing(timings: list[RoundTiming]) -> RoundTiming:
    """Average decomposition across rounds."""
    k = len(timings)
    if k == 0:
        raise ValueError("no timings to average")
    return RoundTiming(
        client_submission=sum(t.client_submission for t in timings) / k,
        server_processing=sum(t.server_processing for t in timings) / k,
        included_clients=round(sum(t.included_clients for t in timings) / k),
        round_bytes=timings[0].round_bytes,
        pipeline_period=sum(t.pipeline_period for t in timings) / k,
    )


# ---------------------------------------------------------------------------
# Disruption recovery: time-to-blame across DC-net modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlameTiming:
    """Latency decomposition from a disrupted round to a named disruptor.

    Attributes:
        mode: "xor" (reactive accusation shuffle, §3.9), "hybrid"
            (Verdict-style verifiable replay), or "verifiable" (proactive —
            blame is in-round, but every round carries proof overhead).
        detection: time until the group knows a round was corrupted and the
            blame machinery can engage.
        blame: time to run the blame mechanism itself.
        verifiable_overhead_per_round: extra per-round cost the mode
            charges even on clean rounds (zero for xor and hybrid's fast
            path, the full proof pipeline for verifiable mode).
    """

    mode: str
    detection: float
    blame: float
    verifiable_overhead_per_round: float

    @property
    def time_to_blame(self) -> float:
        return self.detection + self.blame


#: Modular exponentiations per proven chunk: ElGamal pair (2) plus the
#: disjunctive proof's two commitments and two simulated branches (~6).
_CLIENT_CHUNK_EXPS = 8
#: Verifying one chunk proof: four commitment recomputations of two exps.
_VERIFY_CHUNK_EXPS = 8
#: One server decryption share with DLEQ proof (prove 3, verify 4).
_SHARE_CHUNK_EXPS = 7
#: Batched verification model: the random-linear-combination coefficients
#: are this many bits (repro.crypto.proofs.BATCH_COEFF_BITS) against
#: full-width exponents of roughly the group order, so each proof's share
#: of the single per-round multi-exponentiation shrinks by about this
#: ratio; the shared squaring ladder and the hot-base exponentiations are
#: charged as a constant handful of full exponentiations.
_BATCH_COEFF_BITS = 128
_GROUP_ORDER_BITS = 2048
_BATCH_OVERHEAD_EXPS = 6


def _verify_exps(num_clients: int, num_servers: int, width: int, batched: bool) -> float:
    """Server-side proof-check exponentiation count for one verifiable round."""
    exps = (
        num_clients * width * _VERIFY_CHUNK_EXPS
        + num_servers * width * _SHARE_CHUNK_EXPS
    )
    if batched:
        return exps * _BATCH_COEFF_BITS / _GROUP_ORDER_BITS + _BATCH_OVERHEAD_EXPS
    return float(exps)


def simulate_disruption_recovery(
    num_clients: int,
    num_servers: int,
    mode: str = "xor",
    message_bytes: int = 128,
    topology: Topology | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    lam: int = 64,
    chunk_bytes: int = 96,
    batched: bool = True,
    seed: int = 0,
) -> BlameTiming:
    """Model time-to-blame for one disrupted microblog round per mode.

    The xor path follows §3.9: the victim detects corruption when the
    round output arrives, gambles the shuffle-request field for one more
    round, then the group runs an accusation shuffle (a general message
    shuffle in the embedding group) and evaluates the trace.  The hybrid
    path detects corruption publicly in the same output and replays the
    corrupted slot verifiably: ``N`` clients each prove ``W`` chunks,
    servers verify ``N*W`` proofs plus ``M`` shares, then the same trace
    evaluation runs.  Verifiable mode pays nothing extra on disruption —
    its per-round proof overhead (charged on every clean round too) is
    reported separately.

    ``batched=True`` (the default, matching the implementation) charges
    server-side proof checks as one random-linear-combination
    multi-exponentiation per round instead of eight exponentiations per
    chunk per client; pass ``False`` for the pre-batching model.
    """
    topo = topology or deterlab_topology()
    rng = random.Random(seed)
    workload = Workload.microblog(num_clients, message_bytes=message_bytes)
    config = RoundSimConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        workload=workload,
        topology=topo,
        cost=cost,
    )
    round_time = simulate_round(config, rng).total
    width = max(1, -(-message_bytes // chunk_bytes))

    trace_time = _trace_time(config, workload)

    if mode == "xor":
        element_bytes = EMBED_CIPHERTEXT_BYTES
        # Detection: the corrupted output round.  Request: one more round
        # to win the shuffle-request gamble (expected value with k=8 is
        # ~1.004 rounds; charge one).
        detection = 2 * round_time
        blame_shuffle = (
            cost.message_shuffle_time(num_clients, num_servers, 1, lam)
            + num_servers
            * topo.server_broadcast_time(
                num_servers, num_clients * element_bytes * (lam + 1)
            )
            + topo.clients_to_server_time(
                max(1, num_clients // num_servers), element_bytes
            )
        )
        return BlameTiming("xor", detection, blame_shuffle + trace_time, 0.0)

    replay = _verifiable_round_cost(config, width, batched)

    if mode == "hybrid":
        # Corruption is publicly visible in the output round itself.
        detection = round_time
        return BlameTiming("hybrid", detection, replay + trace_time, 0.0)

    if mode == "verifiable":
        # Blame is in-round; the overhead is paid on *every* round.
        return BlameTiming("verifiable", round_time, 0.0, replay)

    raise ValueError(f"unknown DC-net mode {mode!r}")


def _trace_time(config: RoundSimConfig, workload: Workload) -> float:
    """Witness-bit trace evaluation (common to xor and hybrid blame)."""
    n, m = config.num_clients, config.num_servers
    evidence_exchange = _server_exchange_time(
        config, n * workload.round_bytes(n) // max(1, m)
    )
    return config.cost.blame_evaluation_time(n, m) + evidence_exchange


def _verifiable_round_cost(
    config: RoundSimConfig, width: int, batched: bool
) -> float:
    """Prove + verify + transfer cost of one verifiable (replay) round."""
    n, m = config.num_clients, config.num_servers
    cost, topo = config.cost, config.topology
    element_bytes = EMBED_CIPHERTEXT_BYTES
    client_prove = width * _CLIENT_CHUNK_EXPS * cost.msg_exp_seconds
    server_verify = (
        _verify_exps(n, m, width, batched)
        * cost.msg_exp_seconds
        / max(1, cost.server_cores)
    )
    replay_transfer = topo.clients_to_server_time(
        max(1, n // m), width * element_bytes
    ) + _server_exchange_time(config, width * element_bytes)
    return client_prove + server_verify + replay_transfer


# ---------------------------------------------------------------------------
# Hybrid mode under churn at paper scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HybridChurnRound:
    """One simulated hybrid-mode round under churn."""

    round_number: int
    online_clients: int
    round_time: float
    corrupted: bool
    blame_time: float  # verifiable replay + trace; 0.0 for clean rounds

    @property
    def total(self) -> float:
        return self.round_time + self.blame_time


@dataclass(frozen=True)
class HybridChurnTrace:
    """A whole hybrid-mode run: round timings plus blame events."""

    rounds: tuple[HybridChurnRound, ...]

    @property
    def total_time(self) -> float:
        return sum(r.total for r in self.rounds)

    @property
    def corrupted_rounds(self) -> int:
        return sum(1 for r in self.rounds if r.corrupted)

    @property
    def mean_time_to_blame(self) -> float:
        """Mean detect-to-named latency over the corrupted rounds."""
        blamed = [r for r in self.rounds if r.corrupted]
        if not blamed:
            return 0.0
        return sum(r.round_time + r.blame_time for r in blamed) / len(blamed)


def simulate_hybrid_churn(
    num_clients: int,
    num_servers: int,
    rounds: int = 24,
    churn: SessionChurnModel | None = None,
    disruption_prob: float = 0.05,
    message_bytes: int = 128,
    topology: Topology | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    chunk_bytes: int = 96,
    batched: bool = True,
    seed: int = 0,
) -> HybridChurnTrace:
    """Drive hybrid mode through churned rounds at paper scale.

    The ROADMAP integration scenario: the online population evolves under
    the memoryless churn model, each round's timing comes from the
    event-driven round simulator at the *current* population, and a
    disrupted round (probability ``disruption_prob``) additionally pays
    the verifiable replay + trace — so time-to-blame lands in the same
    trace as the fast-path round times it interrupts.  Real small-group
    hybrid sessions run the identical round/replay sequence via
    :func:`repro.sim.churn.drive_session_under_churn`.
    """
    topo = topology or deterlab_topology()
    model = churn or SessionChurnModel()
    rng = random.Random(seed)
    online = [True] * num_clients
    rows: list[HybridChurnRound] = []
    for r in range(rounds):
        online = model.step(online, r / max(1, rounds), rng)
        population = max(num_servers, sum(online))
        workload = Workload.microblog(population, message_bytes=message_bytes)
        config = RoundSimConfig(
            num_clients=population,
            num_servers=num_servers,
            workload=workload,
            topology=topo,
            cost=cost,
        )
        round_time = simulate_round(config, rng).total
        corrupted = rng.random() < disruption_prob
        blame_time = 0.0
        if corrupted:
            width = max(1, -(-message_bytes // chunk_bytes))
            blame_time = _verifiable_round_cost(config, width, batched) + _trace_time(
                config, workload
            )
        rows.append(
            HybridChurnRound(r, population, round_time, corrupted, blame_time)
        )
    return HybridChurnTrace(tuple(rows))


# ---------------------------------------------------------------------------
# Full-protocol stage model (Figure 9)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolStageTimes:
    """Durations of the four stages §5.3 measures."""

    key_shuffle: float
    dcnet_round: float
    blame_shuffle: float
    blame_evaluation: float


def simulate_full_protocol(
    num_clients: int,
    num_servers: int,
    message_bytes: int = 128,
    topology: Topology | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    lam: int = 64,
    pipeline_depth: int = 1,
    seed: int = 0,
) -> ProtocolStageTimes:
    """Model one full protocol execution (§5.3, Figure 9).

    Stages:

    * **key shuffle** — serial mix cascade over N width-1 key vectors in
      the cheap key group, plus cascade network transfers;
    * **DC-net round** — one microblog-style exchange;
    * **blame shuffle** — the same cascade over embedded accusation
      messages in the expensive embedding group;
    * **blame evaluation** — per-pair PRNG bit disclosure, evidence
      signature checks, and rebuttal verification.
    """
    topo = topology or deterlab_topology()
    rng = random.Random(seed)

    key_element_bytes = KEY_CIPHERTEXT_BYTES
    msg_element_bytes = EMBED_CIPHERTEXT_BYTES

    def cascade_network(element_bytes: int) -> float:
        # Each cascade turn forwards all N vectors to the next server and
        # broadcasts the step transcript (≈ lam cut-and-choose shuffles) for
        # verification.
        per_turn = topo.server_link.transfer_time(
            num_clients * element_bytes
        ) + topo.server_broadcast_time(
            num_servers, num_clients * element_bytes * (lam + 1)
        )
        return num_servers * per_turn

    key_shuffle = (
        cost.key_shuffle_time(num_clients, num_servers, lam)
        + cascade_network(key_element_bytes)
        # Clients submit their encrypted pseudonym keys first.
        + topo.clients_to_server_time(
            max(1, num_clients // num_servers), key_element_bytes
        )
    )

    workload = Workload.microblog(num_clients, message_bytes=message_bytes)
    config = RoundSimConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        workload=workload,
        topology=topo,
        cost=cost,
        pipeline_depth=pipeline_depth,
    )
    # With rounds in flight the steady-state DC-net stage is the pipeline
    # period rather than one isolated round's end-to-end latency.
    dcnet_round = simulate_round(config, rng).pipeline_period

    blame_shuffle = (
        cost.message_shuffle_time(num_clients, num_servers, 1, lam)
        + cascade_network(msg_element_bytes)
        + topo.clients_to_server_time(
            max(1, num_clients // num_servers), msg_element_bytes
        )
    )

    round_bytes = workload.round_bytes(num_clients)
    evidence_exchange = _server_exchange_time(
        config, num_clients * round_bytes // max(1, num_servers)
    )
    blame_evaluation = (
        cost.blame_evaluation_time(num_clients, num_servers) + evidence_exchange
    )

    return ProtocolStageTimes(
        key_shuffle=key_shuffle,
        dcnet_round=dcnet_round,
        blame_shuffle=blame_shuffle,
        blame_evaluation=blame_evaluation,
    )
