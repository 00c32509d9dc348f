"""The four workloads, their metrics, and the correctness checks.

Every workload is a lockstep closed loop: one driver thread, one round
in flight, the next post only after the previous round returned.  The
post schedule is drawn from ``--seed`` here; the program receives only
the generated messages.

``run_workload`` returns a report whose ``metrics`` are the end-to-end
metrics (untraced pass) or the per-layer metrics (traced pass).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.consensus import output_body_digest
from repro.core import DissentSession
from repro.core.adversary import DisruptorClient
from repro.core.client import DissentClient, unframe_messages
from repro.core.schedule import Scheduler
from repro import persist
from repro.errors import DissentError
from repro.net.runner import NetworkedSession

from e2ebench import trace as tracing
from e2ebench.stats import summarize

NUM_SERVERS = 3

#: Share of the untraced window spent on individually timed rounds; the
#: rest runs ``run_rounds(BATCH)``, the call a pipelined driver could
#: overlap.
LATENCY_SHARE = 0.75
BATCH = 4

#: Share of the traced pass's window that runs before the tracer is
#: installed, to price the tracer itself.
UNTRACED_SHARE = 0.4

#: (name, unit, better, bound) — mirrored by BENCHMARK.json.  A bound is
#: shared by all workloads, and the timing bounds are set by the noisiest:
#: bulk's round time sat at 565, 656 and 696 ms in three sessions on the
#: 2-core box this was written on while microblog stayed within 7%, and one
#: ten-seed set spread 16%.  README.md has the measurements.
E2E_METRICS = (
    ("setup_s", "s", "lower", 0.25),
    ("round_latency_p50_ms", "ms", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("delivery_latency_p50_ms", "ms", "lower", 0.25),
    ("goodput_kib_per_s", "KiB/s", "higher", 0.25),
    ("cpu_ms_per_round", "ms", "lower", 0.25),
    ("warm_rss_mib", "MiB", "lower", 0.10),
)

#: Layers whose ``<layer>_ms`` is self time per measured round; with
#: ``driver.unattributed_ms`` they sum to ``driver.round_span_ms``.  Only
#: layers every workload uses: a run reports every metric, and a time that
#: reads 0 on every run of a workload is not a measurement.
SELF_TIME_LAYERS = (
    "crypto.schnorr.batch_verify",
    "crypto.schnorr.verify",
    "crypto.schnorr.sign",
    "crypto.group.multiexp",
    "crypto.prng.pad",
    "util.bytesops.xor",
    "core.client.produce",
    "core.client.output",
    "core.server.phase",
    "net.wire.codec",
    "consensus.certify",
)

#: Layers only ``blame-recover`` uses; a traced run reports their total
#: seconds in its detail, next to ``time_to_blame_s``.
DETAIL_LAYERS = (
    "core.keyshuffle.message_shuffle",
    "core.accusation.trace",
    "persist.checkpoint.write",
    "persist.checkpoint.restore",
)

#: (name, unit) — every one is better lower; mirrored by BENCHMARK.json.
PER_LAYER_METRICS = (
    *((f"{layer}_ms", "ms") for layer in SELF_TIME_LAYERS),
    ("crypto.schnorr.batch_verify_n", "count"),
    ("crypto.schnorr.batch_verify_sigs", "count"),
    ("crypto.schnorr.verify_n", "count"),
    ("crypto.schnorr.sign_n", "count"),
    ("crypto.group.multiexp_n", "count"),
    ("crypto.prng.pad_bytes", "bytes"),
    ("util.bytesops.xor_bytes", "bytes"),
    ("net.wire.codec_n", "count"),
    ("net.transport.frames", "count"),
    ("net.transport.bytes", "bytes"),
    ("consensus.certify_incl_ms", "ms"),
    ("consensus.votes_n", "count"),
    ("core.schedule.rounds_to_deliver_mean", "count"),
    ("core.keyshuffle.key_shuffle_s", "s"),
    ("core.keyshuffle.shuffle_total_s", "s"),
    ("core.accusation.rounds_to_verdict", "count"),
    ("persist.checkpoint.bytes", "bytes"),
    ("obs.telemetry_overhead_ratio", "ratio"),
    ("driver.round_span_ms", "ms"),
    ("driver.unattributed_ms", "ms"),
    ("driver.peak_rss_mib", "MiB"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "tcp" or "inproc"
    clients: int
    #: How many seeded-random clients post before each round.  A fixed
    #: count, not a per-client coin: the coin's variance (a tenth of the
    #: posts in a window) would be charged to goodput.
    posters: int
    message_bytes: int
    warmup_rounds: int
    group: str = "ec25519"
    #: The last client is a disruptor and only its victim posts.
    disrupted: bool = False
    #: How many times an untraced run builds and sets up, for the median.
    setups: int = 3
    #: Floors that hold however short ``--seconds`` is.
    min_rounds: int = 5
    #: The traced pass reruns the window with telemetry off (tcp only).
    telemetry_probe: bool = False


WORKLOADS = (
    Workload(
        name="microblog-tcp-32",
        why="real sockets, real group, sparse 96-byte posts: the full stack, where signature checks and the wire path dominate",
        mode="tcp",
        clients=32,
        posters=2,
        message_bytes=96,
        warmup_rounds=6,
        setups=2,
        telemetry_probe=True,
    ),
    Workload(
        name="microblog-inproc-32",
        why="same seed and posts with no sockets: a net change must leave it flat, a crypto or core change must move both",
        mode="inproc",
        clients=32,
        posters=2,
        message_bytes=96,
        warmup_rounds=6,
        setups=2,
    ),
    Workload(
        name="bulk-tcp-16",
        why="every client sends 32000 bytes a round: pad PRNG, XOR, slot codec and large frames dominate, signatures are the minority",
        mode="tcp",
        clients=16,
        posters=16,
        message_bytes=32000,
        warmup_rounds=5,
    ),
    Workload(
        name="blame-recover-inproc-12",
        why="a disruptor jams a slot, then every round follows a checkpoint restore: accusation shuffle, tracing and persistence",
        mode="inproc",
        clients=12,
        posters=1,
        disrupted=True,
        message_bytes=96,
        warmup_rounds=3,
    ),
)


def quick(workload: Workload) -> Workload:
    """The smoke-test shape: toy group, four clients, one set-up.

    The blame workload keeps twelve: expelling one of four would drop
    participation below the alpha floor and fail every later round.
    """
    return replace(
        workload,
        group="test-256",
        clients=12 if workload.disrupted else 4,
        posters=min(workload.posters, 4),
        setups=1,
        min_rounds=3,
        warmup_rounds=3,
        message_bytes=min(workload.message_bytes, 2000),
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def _victim(workload: Workload) -> int:
    return min(2, workload.clients - 2)


def _blame_client(definition, index, key, rng):
    """Last client is the disruptor (dormant until it is given a target)."""
    factory = (
        DisruptorClient if index == definition.num_clients - 1 else DissentClient
    )
    return factory(definition, index, key, rng)


def build_session(workload: Workload, seed: int, telemetry=None):
    if workload.mode == "tcp":
        return NetworkedSession.build(
            workload.group,
            NUM_SERVERS,
            workload.clients,
            seed=seed,
            mode="tcp",
            telemetry=telemetry,
        )
    return DissentSession.build(
        workload.group,
        NUM_SERVERS,
        workload.clients,
        seed=seed,
        client_factory=_blame_client if workload.disrupted else DissentClient,
    )


def close_session(session) -> None:
    close = getattr(session, "close", None)
    if close is not None:
        close()


def set_up(workload: Workload, seed: int, repeats: int, telemetry=None):
    """Build and set up ``repeats`` times; keep the last session."""
    session = None
    samples = []
    for _ in range(repeats):
        if session is not None:
            close_session(session)
        start = time.perf_counter()
        session = build_session(workload, seed, telemetry)
        try:
            session.setup()
        except BaseException:
            close_session(session)
            raise
        samples.append(time.perf_counter() - start)
    return session, samples


def _prepare(workload: Workload, seed: int, tracer):
    """Set up for a run: several times untraced, once under the tracer."""
    if tracer is None:
        return set_up(workload, seed, workload.setups)
    with tracer.installed(), tracer.measure("setup"):
        return set_up(workload, seed, 1)


def _root(tracer, kind: str, index: int | None = None):
    """The root span around one timed operation, when a tracer records."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.measure(kind, index)


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Window:
    """The measured interval: which rounds, how long, how much CPU.

    ``warm_rss_mib`` is the high-water mark when the window opens, after a
    fixed amount of work (set-ups and warm-up rounds).  The whole-run peak
    is not an end-to-end metric: the hub keeps sent frames for replay, so
    on the bulk workload it grows with the rounds a window fits, and a
    faster program would read as a memory regression.
    """

    def __init__(self, session) -> None:
        self.first_round = session.round_number
        self.warm_rss_mib = _max_rss_mib()
        self._cpu_start = _cpu_seconds()
        self.start = time.perf_counter()

    def close(self, session) -> None:
        self.wall_s = time.perf_counter() - self.start
        self.cpu_s = _cpu_seconds() - self._cpu_start
        self.rounds = session.round_number - self.first_round


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


class Traffic:
    """Seeded post schedule and the ledger of what was posted when."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.sequence = 0
        #: message -> (post() call time, round the post preceded)
        self.posted: dict[bytes, tuple[float, int]] = {}

    def _message(self, client: int) -> bytes:
        self.sequence += 1
        tag = client.to_bytes(2, "big") + self.sequence.to_bytes(4, "big")
        return tag + self.rng.randbytes(self.workload.message_bytes - len(tag))

    def post(self, session) -> None:
        """Queue the posts that precede the session's next round."""
        workload = self.workload
        if workload.disrupted:
            senders = [_victim(workload)]
        else:
            senders = self.rng.sample(range(workload.clients), workload.posters)
        for client in senders:
            message = self._message(client)
            self.posted[message] = (time.perf_counter(), session.round_number)
            session.post(client, message)


class Timeline:
    """Latency samples and round-end timestamps of individually timed rounds."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.round_end: dict[int, float] = {}

    def timed(self, session, traffic, until, min_rounds, tracer=None) -> list[float]:
        """Post, then time one ``run_round()``, until the deadline."""
        samples = []
        while len(samples) < min_rounds or time.perf_counter() < until:
            traffic.post(session)
            index = session.round_number
            with _root(tracer, tracing.ROUND, index):
                start = time.perf_counter()
                session.run_round()
                end = time.perf_counter()
            samples.append(end - start)
            self.round_end[index] = end
        self.latencies.extend(samples)
        return samples


# ---------------------------------------------------------------------------
# Correctness: checked from the certified transcript, outside timed windows
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def replay_transcript(session) -> list[tuple[int, bytes]]:
    """(round, message) pairs any reader derives from the round outputs.

    The same walk a client's output phase does.  Asking a networked node
    for its deliveries ships the whole history in one frame, which the
    bulk workload would push past the 16 MiB frame cap.
    """
    definition = session.definition
    scheduler = Scheduler(definition.num_clients, definition.policy)
    delivered = []
    for record in session.records:
        if record.output is None:
            continue
        for content in scheduler.advance(record.output.cleartext):
            if content.payload is not None:
                for message in unframe_messages(content.payload):
                    delivered.append((record.round_number, message))
    return delivered


def verify_transcript(session, traffic: Traffic, checks: Checks) -> dict[bytes, int]:
    """Rounds completed and certified; every post delivered exactly once."""
    definition = session.definition
    for record in session.records:
        checks.expect(record.completed, f"round {record.round_number} not completed")
        if record.output is None:
            continue
        certificate = record.certificate
        try:
            if certificate is None:
                raise DissentError("no certificate")
            certificate.verify(definition)
            certified = certificate.digest == output_body_digest(
                definition.group, record.output
            )
            why = "digest does not match the output"
        except DissentError as exc:
            certified, why = False, str(exc)
        checks.expect(certified, f"round {record.round_number} certificate: {why}")
    rounds_of: dict[bytes, list[int]] = {}
    for round_number, message in replay_transcript(session):
        rounds_of.setdefault(message, []).append(round_number)
    delivered_in = {}
    for message in traffic.posted:
        rounds = rounds_of.get(message, [])
        checks.expect(
            len(rounds) == 1,
            f"message {message[:6].hex()} delivered {len(rounds)} times",
        )
        if rounds:
            delivered_in[message] = rounds[0]
    return delivered_in


def output_chain(session) -> list[str]:
    """Rolling sha256 over the ordered round outputs, one entry per round."""
    rolling = hashlib.sha256()
    chain = []
    for record in session.records:
        rolling.update(record.round_number.to_bytes(8, "big"))
        rolling.update(record.output.cleartext if record.output else b"\xff")
        chain.append(rolling.hexdigest())
    return chain


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _end_to_end(setup_samples, timeline, window, traffic, delivered_in):
    """(metric values, sample summaries) of one untraced run."""
    last_round = window.first_round + window.rounds
    delivery = []
    payload_bytes = 0
    for message, round_number in delivered_in.items():
        posted_at, before_round = traffic.posted[message]
        if window.first_round <= round_number < last_round:
            payload_bytes += len(message)
        if before_round >= window.first_round and round_number in timeline.round_end:
            delivery.append(timeline.round_end[round_number] - posted_at)
    values = {
        "setup_s": statistics.median(setup_samples),
        "round_latency_p50_ms": statistics.median(timeline.latencies) * 1e3,
        "rounds_per_s": window.rounds / window.wall_s,
        "delivery_latency_p50_ms": statistics.median(delivery) * 1e3,
        "goodput_kib_per_s": payload_bytes / 1024 / window.wall_s,
        "cpu_ms_per_round": window.cpu_s * 1e3 / window.rounds,
        "warm_rss_mib": window.warm_rss_mib,
    }
    samples = {
        "setup_s": summarize(setup_samples),
        "round_latency_ms": summarize([s * 1e3 for s in timeline.latencies]),
        "delivery_latency_ms": summarize([s * 1e3 for s in delivery]),
    }
    return values, samples


def _per_layer(tracer, traced, untraced, traffic, delivered_in) -> dict:
    """Per-layer values every workload reports; 0 where a layer is not used."""
    spans = tracer.spans
    budget = tracing.round_budget(spans)
    layers = budget["layers"]

    def layer(name, field):
        return layers.get(name, {}).get(field, 0.0)

    writes = [s for s in spans if s.layer == "persist.checkpoint.write"]
    key_shuffle_s = tracing.total_seconds(spans, "core.keyshuffle.key_shuffle")
    # Self time of layers without a metric of their own (the restore on
    # blame-recover) stays in the budget as unattributed.
    unlisted_ms = sum(
        layer["self_ms"]
        for name, layer in layers.items()
        if name not in SELF_TIME_LAYERS
    )
    waits = [
        round_number - traffic.posted[message][1] + 1
        for message, round_number in delivered_in.items()
    ]
    values = {f"{name}_ms": layer(name, "self_ms") for name in SELF_TIME_LAYERS}
    values.update(
        {
            "crypto.schnorr.batch_verify_n": layer("crypto.schnorr.batch_verify", "n"),
            "crypto.schnorr.batch_verify_sigs": layer(
                "crypto.schnorr.batch_verify", "amount"
            ),
            "crypto.schnorr.verify_n": layer("crypto.schnorr.verify", "n"),
            "crypto.schnorr.sign_n": layer("crypto.schnorr.sign", "n"),
            "crypto.group.multiexp_n": layer("crypto.group.multiexp", "n"),
            "crypto.prng.pad_bytes": layer("crypto.prng.pad", "amount"),
            "util.bytesops.xor_bytes": layer("util.bytesops.xor", "amount"),
            "net.wire.codec_n": layer("net.wire.codec", "n"),
            "net.transport.frames": layer("net.transport.send", "n"),
            "net.transport.bytes": layer("net.transport.send", "amount"),
            "consensus.certify_incl_ms": layer("consensus.certify", "incl_ms"),
            "consensus.votes_n": budget["calls"].get(
                "DissentServer.vote_on_proposal", 0.0
            ),
            "core.schedule.rounds_to_deliver_mean": (
                statistics.fmean(waits) if waits else 0.0
            ),
            "core.keyshuffle.key_shuffle_s": key_shuffle_s,
            "core.keyshuffle.shuffle_total_s": key_shuffle_s
            + tracing.total_seconds(spans, "core.keyshuffle.message_shuffle"),
            "core.accusation.rounds_to_verdict": 0.0,
            "persist.checkpoint.bytes": (
                statistics.fmean(s.amount for s in writes) if writes else 0.0
            ),
            "obs.telemetry_overhead_ratio": 0.0,
            "driver.round_span_ms": budget["round_span_ms"],
            "driver.unattributed_ms": budget["unattributed_ms"] + unlisted_ms,
            "driver.peak_rss_mib": _max_rss_mib(),
            "trace.overhead_ratio": (
                statistics.median(traced) / statistics.median(untraced)
            ),
        }
    )
    return values


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """What a driver hands back for the metrics to be computed from."""

    setup_samples: list[float]
    timeline: Timeline
    window: Window
    traffic: Traffic
    delivered_in: dict[bytes, int]
    detail: dict
    #: Traced pass only: the two halves' latencies, and values only this
    #: workload measures.
    untraced: list[float] | None = None
    traced: list[float] | None = None
    layer_values: dict | None = None


def _warm_up(session, traffic, rounds: int) -> None:
    for _ in range(rounds):
        traffic.post(session)
        session.run_round()


def _close_window(session, window, traffic, checks) -> dict[bytes, int]:
    """End the window, drain, and check the transcript outside it."""
    window.close(session)
    checks.expect(session.run_until_quiet().drained, "traffic did not drain")
    return verify_transcript(session, traffic, checks)


def _steady(workload, seed, seconds, tracer, checks) -> Measured:
    """Microblog and bulk: warm up, measure a window of rounds, drain."""
    traffic = Traffic(workload, seed)
    timeline = Timeline()
    untraced = traced = None
    session, setup_samples = _prepare(workload, seed, tracer)
    try:
        _warm_up(session, traffic, workload.warmup_rounds)
        window = Window(session)
        floor = workload.min_rounds
        if tracer is None:
            timeline.timed(
                session, traffic, window.start + seconds * LATENCY_SHARE, floor
            )
            compared = session.round_number
            batches = 0
            while batches < 1 or time.perf_counter() < window.start + seconds:
                for _ in range(BATCH):
                    traffic.post(session)
                session.run_rounds(BATCH)
                batches += 1
        else:
            untraced = timeline.timed(
                session, traffic, window.start + seconds * UNTRACED_SHARE, floor
            )
            with tracer.installed():
                traced = timeline.timed(
                    session, traffic, window.start + seconds, floor, tracer
                )
            compared = session.round_number
        delivered_in = _close_window(session, window, traffic, checks)
        detail = {
            "compared_rounds": compared,
            "output_chain": output_chain(session)[:compared],
        }
    finally:
        close_session(session)
    layer_values = {}
    if tracer is not None and workload.telemetry_probe:
        layer_values["obs.telemetry_overhead_ratio"] = statistics.median(
            untraced
        ) / _telemetry_off_p50(workload, seed, seconds)
    return Measured(
        setup_samples, timeline, window, traffic, delivered_in, detail,
        untraced, traced, layer_values,
    )  # fmt: skip


def _telemetry_off_p50(workload, seed, seconds) -> float:
    """Median round latency of the same rounds with telemetry stripped."""
    traffic = Traffic(workload, seed)
    session, _ = set_up(workload, seed, 1, telemetry=False)
    try:
        _warm_up(session, traffic, workload.warmup_rounds)
        return statistics.median(
            Timeline().timed(
                session,
                traffic,
                time.perf_counter() + seconds * UNTRACED_SHARE,
                workload.min_rounds,
            )
        )
    finally:
        close_session(session)


def _blame_recover(workload, seed, seconds, tracer, checks, out_dir) -> Measured:
    """Jam the victim's slot, blame the disruptor, then restore before every round.

    The window opens when the disruptor starts flipping bits, so time to
    blame is most of ``rounds_per_s``, ``goodput_kib_per_s`` and
    ``cpu_ms_per_round`` here.  A latency sample is ``restore_session``
    plus the next ``run_round()``: after the verdict the session is
    checkpointed and rebuilt before every round, so that is the time to the
    next round a restarted group sees.  The victim keeps one message in
    flight: the jammed one until the verdict, then one per restore cycle.
    """
    traffic = Traffic(workload, seed)
    timeline = Timeline()
    untraced = traced = None
    session, setup_samples = _prepare(workload, seed, tracer)
    path = out_dir / f"{workload.name}-{seed}-{os.getpid()}.ckpt"

    def restore_cycles(until, minimum, tracer=None):
        nonlocal session
        samples = []
        while len(samples) < minimum or time.perf_counter() < until:
            persist.save_session(session, path)
            fresh = build_session(workload, seed)
            index = session.round_number
            with _root(tracer, tracing.ROUND, index):
                begin = time.perf_counter()
                persist.restore_session(fresh, path)
                fresh.run_round()
                end = time.perf_counter()
            session = fresh
            samples.append(end - begin)
            timeline.round_end[index] = end
            traffic.post(session)
        timeline.latencies.extend(samples)
        return samples

    try:
        # The victim's slot must be open before it can be jammed.
        traffic.post(session)
        for _ in range(workload.warmup_rounds):
            session.run_round()
        victim = session.clients[_victim(workload)]
        disruptor_index = workload.clients - 1
        disruptor = session.clients[disruptor_index]
        disruptor.flips_per_round = 8
        window = Window(session)
        disruptor.target_slot = victim.slot
        traffic.post(session)
        verdicts = []
        while not verdicts and session.round_number - window.first_round < 32:
            if session.run_round().shuffle_requested:
                installed = tracer.installed() if tracer else contextlib.nullcontext()
                with installed, _root(tracer, "accusation"):
                    verdicts = session.run_accusation_phase()
        time_to_blame = time.perf_counter() - window.start
        rounds_to_verdict = session.round_number - window.first_round
        checks.expect(
            [(v.culprit_kind, v.culprit_index) for v in verdicts]
            == [("client", disruptor_index)],
            f"verdicts {verdicts} do not name client {disruptor_index} alone",
        )
        checks.expect(
            session.expelled == {disruptor_index},
            f"expelled {sorted(session.expelled)}, expected [{disruptor_index}]",
        )
        minimum = 2 * workload.min_rounds
        if tracer is None:
            restore_cycles(window.start + seconds, minimum)
        else:
            untraced = restore_cycles(0.0, minimum // 2)
            with tracer.installed():
                traced = restore_cycles(window.start + seconds, minimum // 2, tracer)
        delivered_in = _close_window(session, window, traffic, checks)
        detail = {
            "time_to_blame_s": time_to_blame,
            "rounds_to_verdict": rounds_to_verdict,
            "checkpoint_bytes": path.stat().st_size,
        }
    finally:
        path.unlink(missing_ok=True)
    layer_values = {"core.accusation.rounds_to_verdict": float(rounds_to_verdict)}
    return Measured(
        setup_samples, timeline, window, traffic, delivered_in, detail,
        untraced, traced, layer_values,
    )  # fmt: skip


def find_workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """One run of one workload; ``metrics`` holds one pass's metrics.

    Scratch checkpoints and, on a traced run, the span dump go to ``out_dir``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    tracer = tracing.Tracer() if trace else None
    if workload.disrupted:
        run = _blame_recover(workload, seed, seconds, tracer, checks, out_dir)
    else:
        run = _steady(workload, seed, seconds, tracer, checks)
    detail = {"rounds": run.window.rounds, "window_s": run.window.wall_s, **run.detail}
    if tracer is None:
        values, samples = _end_to_end(
            run.setup_samples, run.timeline, run.window, run.traffic, run.delivered_in
        )
        units = {name: unit for name, unit, _, _ in E2E_METRICS}
    else:
        values = _per_layer(
            tracer, run.traced, run.untraced, run.traffic, run.delivered_in
        )
        values.update(run.layer_values)
        samples = {}
        units = dict(PER_LAYER_METRICS)
        detail["layer_total_s"] = {
            layer: tracing.total_seconds(tracer.spans, layer)
            for layer in DETAIL_LAYERS
        }
        detail["spans"] = tracer.dump(
            out_dir / f"{workload.name}-{seed}.spans.ndjson"
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:20],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
        "samples": samples,
        "detail": detail,
    }
