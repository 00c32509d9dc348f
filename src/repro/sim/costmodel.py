"""Computation cost model for simulated-time experiments.

The paper's prototype is C++ with CryptoPP on 2012 testbed hardware; pure
Python is 10-50x slower, so simulated experiments charge *modeled* costs
for cryptographic work rather than Python wall-clock.  The defaults below
approximate mid-2012 commodity server hardware (DeterLab pc3000-class
nodes, EC2 m1.large):

* symmetric PRNG (AES-CTR class): hundreds of MB/s per core;
* XOR combining: ~1 GB/s;
* modular exponentiation: ~0.2 ms in a shuffle-friendly 256-bit group,
  ~3 ms in a 2048-bit message-embedding group — the gap behind the
  paper's observation that key shuffles are far cheaper than general
  message (accusation) shuffles (§3.10, Figure 9);
* signatures ~1 ms.

The shuffle formulas charge a cut-and-choose shuffle with ``lam``
repetitions: the cost shape behind the paper's Figure 9 constants, which
the figures reproduce.  The implementation's own proof of shuffle
(:mod:`repro.crypto.shuffle`, Terelius–Wikström) is one re-randomized
shuffle plus O(N·W) proof work at any soundness; its measured cost is
``setup_s`` and ``time_to_blame_s`` of the end-to-end benchmark.

Every constant is a dataclass field, so sensitivity analyses and ablations
can re-run any figure under different hardware assumptions.  The
reproduction target is the *shape* of each figure, not absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs in seconds (or bytes/second for streams)."""

    #: Pairwise PRNG stream generation (AES-CTR class), bytes/second.
    prng_bytes_per_sec: float = 200e6
    #: XOR combining of ciphertexts, bytes/second.
    xor_bytes_per_sec: float = 1.0e9
    #: Hashing (commitments, digests), bytes/second.
    hash_bytes_per_sec: float = 150e6
    #: One signature creation.
    sign_seconds: float = 1.0e-3
    #: One signature verification (scalar path).
    verify_seconds: float = 1.2e-3
    #: Whether per-round signature sets are checked with one random-linear-
    #: combination multi-exponentiation (commitment-form Schnorr) instead
    #: of one-at-a-time.  Matches the implementation's default.
    batched_signatures: bool = True
    #: Marginal cost of one signature inside a batch, as a fraction of
    #: ``verify_seconds``: the short batching coefficient plus the hot
    #: fixed-base table walk replace the two full exponentiations
    #: (calibrated at commit d227f23: one 32-client / 3-server round's 41
    #: envelopes on the 1536-bit group checked in 115 ms batched against
    #: 621 ms one at a time, 0.19 of a scalar check each).
    batch_verify_fraction: float = 0.22
    #: Fixed per-batch overhead in ``verify_seconds`` units (the shared
    #: squaring ladder, coefficient sampling, and the one generator term).
    batch_verify_overhead: float = 1.5
    #: One modular exponentiation in the *key-shuffle* group (§3.10's
    #: "more computationally efficient groups" for key shuffles).
    key_exp_seconds: float = 0.2e-3
    #: One modular exponentiation in the message-embedding group used by
    #: general message (accusation) shuffles.
    msg_exp_seconds: float = 3.0e-3
    #: Cores a server may parallelize stream generation across (§3.4:
    #: "these computations are parallelizable").
    server_cores: int = 4
    #: Clients are assumed single-core commodity machines.
    client_cores: int = 1
    #: Fixed client turnaround per round: receive, parse, schedule, and
    #: serialize in the prototype's event loop.  The paper observes round
    #: time is "dominated by client delays, namely the time between clients
    #: receiving the previous round's cleartext and the servers receiving
    #: the current round's ciphertext" — this constant is that floor.
    turnaround_base_seconds: float = 0.30
    #: Extra turnaround per colocated client process beyond the first
    #: (testbed CPU contention when multiplexing clients onto machines).
    turnaround_per_process_seconds: float = 0.10

    # -- stream work -----------------------------------------------------

    def prng_time(self, nbytes: int, cores: int = 1) -> float:
        """Seconds to generate ``nbytes`` of pairwise PRNG stream."""
        return nbytes / self.prng_bytes_per_sec / max(1, cores)

    def xor_time(self, nbytes: int, cores: int = 1) -> float:
        return nbytes / self.xor_bytes_per_sec / max(1, cores)

    def hash_time(self, nbytes: int) -> float:
        return nbytes / self.hash_bytes_per_sec

    # -- protocol-level aggregates ---------------------------------------

    def verify_many_seconds(self, count: int) -> float:
        """Seconds to check ``count`` signatures arriving together.

        The batched model (default) charges one multi-exponentiation:
        fixed overhead plus a small per-signature marginal cost.  With
        ``batched_signatures=False`` — the pre-batching protocol — each
        signature costs a full :attr:`verify_seconds`.  Zero or one
        signature degrades to the scalar path in both models, exactly as
        the implementation does.
        """
        if count <= 0:
            return 0.0
        if count == 1 or not self.batched_signatures:
            return count * self.verify_seconds
        return (
            self.batch_verify_overhead + count * self.batch_verify_fraction
        ) * self.verify_seconds

    def client_submission_compute(self, round_bytes: int, num_servers: int) -> float:
        """Client work per round: M streams + M XORs + one signature."""
        streams = self.prng_time(round_bytes * num_servers, self.client_cores)
        combine = self.xor_time(round_bytes * num_servers, self.client_cores)
        return streams + combine + self.sign_seconds

    def server_round_compute(
        self, round_bytes: int, num_clients: int, attached_clients: int = 0
    ) -> float:
        """Server work per round: N streams + N XORs + commit hash + sign.

        ``attached_clients`` adds the signature checks on directly-received
        client envelopes (one batched multi-exponentiation, or one scalar
        verification each under ``batched_signatures=False``).
        """
        streams = self.prng_time(round_bytes * num_clients, self.server_cores)
        combine = self.xor_time(round_bytes * num_clients, self.server_cores)
        envelope_checks = self.verify_many_seconds(attached_clients)
        return (
            streams
            + combine
            + self.hash_time(round_bytes)
            + self.sign_seconds
            + envelope_checks
        )

    def client_output_verify(self, round_bytes: int, num_servers: int) -> float:
        """Client work on receipt: M signature verifications + one parse.

        The M output signatures cover one digest and arrive together, so
        they batch into one multi-exponentiation.
        """
        return self.verify_many_seconds(num_servers) + self.hash_time(round_bytes)

    # -- shuffle cost model (Figure 9) ------------------------------------

    def shuffle_prove_time(
        self, num_inputs: int, width: int, per_exp: float, lam: int
    ) -> float:
        """One server's proving turn: O(lam * N * W) exponentiations."""
        exps = 2 * (lam + 1) * num_inputs * width + 2 * num_inputs * width
        return exps * per_exp / max(1, self.server_cores)

    def shuffle_verify_time(
        self, num_inputs: int, width: int, per_exp: float, lam: int
    ) -> float:
        """One verifier's check of one step (same asymptotics as proving)."""
        exps = 2 * lam * num_inputs * width + 4 * num_inputs * width
        return exps * per_exp / max(1, self.server_cores)

    def key_shuffle_time(
        self, num_clients: int, num_servers: int, lam: int = 80
    ) -> float:
        """Full serial cascade: each server proves, every other verifies.

        Verifications of one step happen in parallel across the other
        servers, so a cascade turn costs prove + one verify.
        """
        per_turn = self.shuffle_prove_time(
            num_clients, 1, self.key_exp_seconds, lam
        ) + self.shuffle_verify_time(
            num_clients, 1, self.key_exp_seconds, lam
        )
        return num_servers * per_turn

    def message_shuffle_time(
        self,
        num_clients: int,
        num_servers: int,
        width: int = 1,
        lam: int = 80,
    ) -> float:
        """Accusation (general message) shuffle: embedding group, width W."""
        per_turn = self.shuffle_prove_time(
            num_clients, width, self.msg_exp_seconds, lam
        ) + self.shuffle_verify_time(
            num_clients, width, self.msg_exp_seconds, lam
        )
        return num_servers * per_turn

    def blame_evaluation_time(self, num_clients: int, num_servers: int) -> float:
        """Tracing one witness bit: per-pair PRNG bit recomputation plus
        signature checks over the archived evidence (batched — all N
        archived client envelopes re-verify in one multi-exponentiation)."""
        per_pair = 20e-6  # one short PRNG invocation per (client, server)
        sig_checks = self.verify_many_seconds(num_clients)
        return num_clients * num_servers * per_pair + sig_checks

    def pipeline_period(self, phase_times, depth: int) -> float:
        """Steady-state round period with ``depth`` rounds in flight.

        Lockstep (depth 1) pays the *sum* of the phase times.  A pipelined
        engine overlaps successive rounds' phases, so with enough rounds
        in flight the steady-state period collapses to the *slowest
        phase*; a shallow window is issue-limited at ``sum / depth``.
        This is the repository's one model of overlap: the in-process
        :class:`repro.core.pipeline.PipelinedSession` keeps the window and
        its drain semantics but runs every phase in one process, so it
        measures no overlap of its own.
        """
        phases = list(phase_times)
        if depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        total = sum(phases)
        if depth == 1 or not phases:
            return total
        return max(max(phases), total / depth)

    def scaled(self, factor: float) -> "CostModel":
        """A uniformly faster/slower machine (sensitivity analyses)."""
        return replace(
            self,
            prng_bytes_per_sec=self.prng_bytes_per_sec / factor,
            xor_bytes_per_sec=self.xor_bytes_per_sec / factor,
            hash_bytes_per_sec=self.hash_bytes_per_sec / factor,
            sign_seconds=self.sign_seconds * factor,
            verify_seconds=self.verify_seconds * factor,
            key_exp_seconds=self.key_exp_seconds * factor,
            msg_exp_seconds=self.msg_exp_seconds * factor,
        )


#: The default 2012-testbed-like model used by all figure benches.
DEFAULT_COST_MODEL = CostModel()
