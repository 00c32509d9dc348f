"""XOR vs verifiable vs hybrid DC-net benchmarks (real crypto + sim scale).

Four questions, mirroring Verdict's evaluation:

* what does proactive verifiability cost per round (throughput of the
  three modes on identical small groups)?
* what does batching buy (per-proof loops vs one random-linear-combination
  multi-exponentiation per round, with bit-identical verdicts)?
* how fast does each mode name a disruptor (time-to-blame: hybrid's
  verifiable replay vs the §3.9 accusation shuffle)?
* what do both look like at paper scale (simulated-time model)?

Run with ``-s`` to see the comparison tables.  The module writes its
measurements to ``benchmarks/BENCH_verdict.json`` (uploaded by CI) so the
perf trajectory is tracked across commits.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.core import DissentSession
from repro.core.adversary import DisruptorClient
from repro.crypto import elgamal
from repro.crypto.groups import testing_group as toy_group, wide_group
from repro.crypto.keys import PrivateKey
from repro.sim.roundsim import simulate_disruption_recovery, simulate_hybrid_churn
from repro.verdict.ciphertext import (
    VerdictClientCiphertext,
    batch_verify_client_ciphertexts,
    make_client_ciphertext,
    verify_client_ciphertext,
)
from repro.verdict.hybrid import HybridSession, build_hybrid_with_disruptor
from repro.verdict.session import VerdictSession

_PAYLOAD = 24

#: Measurements accumulated by the tests below; dumped once per run.
_REPORT: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_artifact():
    """Write everything the module measured to BENCH_verdict.json."""
    yield
    if _REPORT:
        path = Path(__file__).with_name("BENCH_verdict.json")
        path.write_text(json.dumps(_REPORT, indent=2, sort_keys=True) + "\n")


def _batch_fixture(group, num_clients, width, seed=7):
    """A round's worth of client submissions against one slot key."""
    rng = random.Random(seed)
    server_keys = [PrivateKey.generate(group, rng) for _ in range(3)]
    combined = elgamal.combined_key([k.public for k in server_keys])
    slot_private = PrivateKey.generate(group, rng)
    payload = b"q" * min(8, group.message_bytes)
    submissions = []
    for i in range(num_clients):
        owner = i == 0
        submissions.append(
            make_client_ciphertext(
                group, combined, slot_private.y, i, b"sid", 5, 0, width,
                payload=payload if owner else None,
                slot_private=slot_private if owner else None,
                rng=rng,
            )
        )
    return combined, slot_private, submissions


def _garble(group, submission, rng):
    """Corrupt one chunk so the proof no longer matches (disruptor move)."""
    garbled = list(submission.ciphertexts)
    noise = group.random_element(rng)
    garbled[0] = elgamal.Ciphertext(
        garbled[0].a, group.mul(garbled[0].b, noise)
    )
    return VerdictClientCiphertext(
        submission.client_index, tuple(garbled), submission.proofs
    )


def test_batched_verification_speedup_16_clients(capsys):
    """Acceptance: >= 2x client-proof verification throughput at 16 clients.

    Measured on the 1536-bit production-grade group, where exponentiation
    cost dominates Python overhead (the paper-scale regime).
    """
    group = wide_group()
    combined, slot_private, submissions = _batch_fixture(group, 16, width=1)

    t0 = time.perf_counter()
    per_proof_ok = [
        verify_client_ciphertext(
            group, combined, slot_private.y, b"sid", 5, 0, 1, s
        )
        for s in submissions
    ]
    per_proof_s = time.perf_counter() - t0
    assert all(per_proof_ok)

    t0 = time.perf_counter()
    rejected = batch_verify_client_ciphertexts(
        group, combined, slot_private.y, b"sid", 5, 0, 1, submissions
    )
    batched_s = time.perf_counter() - t0
    assert rejected == set()

    speedup = per_proof_s / batched_s
    _REPORT["batched_client_verification"] = {
        "group": "modp1536",
        "clients": 16,
        "width": 1,
        "per_proof_s": round(per_proof_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 2.0, f"batched path only {speedup:.2f}x faster"
    with capsys.disabled():
        print()
        print(
            f"client-proof verification, 16 clients, modp1536: "
            f"per-proof {per_proof_s*1e3:.0f} ms, batched {batched_s*1e3:.0f} ms "
            f"({speedup:.1f}x)"
        )


def test_ec_backend_verification_speedup(capsys):
    """Acceptance: ec25519 verifies batched client proofs >= 5x faster.

    Same multi-exponentiation machinery on both backends; the EC group's
    32-byte elements make each group operation an order of magnitude
    cheaper than 1536-bit modular exponentiation.
    """
    from repro.crypto.ec25519 import ec_group

    rows = {}
    for label, group in (("modp1536", wide_group()), ("ec25519", ec_group())):
        combined, slot_private, submissions = _batch_fixture(group, 16, width=1)

        def batched_all():
            assert (
                batch_verify_client_ciphertexts(
                    group, combined, slot_private.y, b"sid", 5, 0, 1, submissions
                )
                == set()
            )

        batched_all()  # warm fixed-base tables (steady state across rounds)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            batched_all()
            best = min(best, time.perf_counter() - t0)
        rows[label] = best

    speedup = rows["modp1536"] / rows["ec25519"]
    _REPORT["ec_backend_batched_verification"] = {
        "clients": 16,
        "width": 1,
        "modp1536_s": round(rows["modp1536"], 4),
        "ec25519_s": round(rows["ec25519"], 4),
        "speedup": round(speedup, 2),
    }
    with capsys.disabled():
        print()
        print(
            f"batched client-proof verification, 16 clients: "
            f"modp1536 {rows['modp1536']*1e3:.0f} ms, "
            f"ec25519 {rows['ec25519']*1e3:.0f} ms ({speedup:.1f}x)"
        )
    assert speedup >= 5.0, f"ec backend only {speedup:.2f}x faster"


def test_batched_verdicts_bit_identical_on_mixed_batches():
    """Accept/reject and culprit sets match per-proof checking exactly."""
    group = toy_group()
    rng = random.Random(17)
    combined, slot_private, submissions = _batch_fixture(group, 16, width=2)
    bad = {3, 7, 11}
    mixed = [
        _garble(group, s, rng) if s.client_index in bad else s
        for s in submissions
    ]
    per_proof_rejected = {
        s.client_index
        for s in mixed
        if not verify_client_ciphertext(
            group, combined, slot_private.y, b"sid", 5, 0, 2, s
        )
    }
    batched_rejected = batch_verify_client_ciphertexts(
        group, combined, slot_private.y, b"sid", 5, 0, 2, mixed
    )
    assert per_proof_rejected == bad
    assert batched_rejected == per_proof_rejected
    _REPORT["mixed_batch_culprits_identical"] = sorted(batched_rejected)


def _xor_session(num_servers=3, num_clients=6, seed=11):
    session = DissentSession.build(
        num_servers=num_servers, num_clients=num_clients, seed=seed
    )
    session.setup()
    return session


def test_bench_round_xor(benchmark):
    session = _xor_session()
    session.post(0, b"x" * _PAYLOAD)

    def round_once():
        session.post(0, b"x" * _PAYLOAD)
        return session.run_round()

    record = benchmark.pedantic(round_once, rounds=3, iterations=1)
    assert record.completed


def test_bench_round_verifiable(benchmark):
    session = VerdictSession.build(
        num_servers=3, num_clients=6, seed=11, slot_payload=_PAYLOAD
    )
    target_slot = session.clients[0].slot

    def round_once():
        session.post(0, b"x" * _PAYLOAD)
        return session.run_round(target_slot)

    record = benchmark.pedantic(round_once, rounds=3, iterations=1)
    assert record.payload == b"x" * _PAYLOAD
    assert not record.rejected_clients


def test_bench_round_hybrid_clean(benchmark):
    session = HybridSession.build(num_servers=3, num_clients=6, seed=11)
    session.setup()
    session.post(0, b"x" * _PAYLOAD)

    def round_once():
        session.post(0, b"x" * _PAYLOAD)
        return session.run_round()

    record = benchmark.pedantic(round_once, rounds=3, iterations=1)
    assert record.completed
    assert not session.blames


def _drive_to_corruption(session, victim=1, max_rounds=16):
    """Run fast rounds until the disruptor corrupts the victim's slot."""
    session.post(victim, b"jam me" * 3)
    for _ in range(max_rounds):
        record = session.run_round()
        if getattr(session, "blames", None) and session.blames[-1].status == "blamed":
            return record
        if record.shuffle_requested:
            return record
    raise AssertionError("disruption never surfaced")


def test_bench_time_to_blame_hybrid(benchmark):
    """Verifiable replay latency, measured on a freshly corrupted round."""
    session, _ = build_hybrid_with_disruptor(seed=33, flips_per_round=3)
    _drive_to_corruption(session)
    blame = session.blames[-1]
    assert blame.status == "blamed"

    def replay():
        return session.replay_blame(blame.round_number, blame.slot_index)

    result = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert result.client_culprits == blame.client_culprits
    assert session.hybrid_counters.accusation_shuffles == 0


def test_bench_time_to_blame_accusation(benchmark):
    """The §3.9 path on the same attack: accusation shuffle + trace."""
    rng = random.Random(33)
    from repro.core.client import DissentClient
    from repro.core.server import DissentServer
    from repro.core.session import build_keys

    built = build_keys("test-256", 3, 6, None, rng)
    servers = [
        DissentServer(built.definition, j, key, random.Random(rng.getrandbits(64)))
        for j, key in enumerate(built.server_keys)
    ]
    clients = [
        (DisruptorClient if i == 4 else DissentClient)(
            built.definition, i, key, random.Random(rng.getrandbits(64))
        )
        for i, key in enumerate(built.client_keys)
    ]
    session = DissentSession(built.definition, servers, clients, rng)
    session.setup()
    clients[4].target_slot = clients[1].slot
    clients[4].flips_per_round = 3
    record = _drive_to_corruption(session)
    assert record.shuffle_requested

    def accuse():
        return session.run_accusation_phase()

    verdicts = benchmark.pedantic(accuse, rounds=1, iterations=1)
    assert any(v.culprit_index == 4 for v in verdicts)


def test_disruption_recovery_paper_scale(capsys):
    """Simulated time-to-blame at paper scale (printed with -s)."""
    rows = [
        simulate_disruption_recovery(1024, 8, mode)
        for mode in ("xor", "hybrid", "verifiable")
    ]
    assert rows[1].time_to_blame < rows[0].time_to_blame / 10
    assert rows[2].blame == 0.0 and rows[2].verifiable_overhead_per_round > 0
    # Before/after figure for the batching layer: the same replay charged
    # per-proof vs as one multi-exponentiation per round.
    unbatched = simulate_disruption_recovery(1024, 8, "hybrid", batched=False)
    assert rows[1].blame < unbatched.blame
    _REPORT["disruption_recovery_1024x8"] = {
        t.mode: {
            "detect_s": round(t.detection, 3),
            "blame_s": round(t.blame, 3),
            "clean_round_tax_s": round(t.verifiable_overhead_per_round, 3),
        }
        for t in rows
    }
    _REPORT["disruption_recovery_1024x8"]["hybrid_unbatched_blame_s"] = round(
        unbatched.blame, 3
    )
    with capsys.disabled():
        print()
        print("disruption recovery, 1024 clients / 8 servers (simulated):")
        print(f"{'mode':12s} {'detect(s)':>10s} {'blame(s)':>10s} "
              f"{'time-to-blame(s)':>17s} {'clean-round tax(s)':>19s}")
        for t in rows:
            print(
                f"{t.mode:12s} {t.detection:10.2f} {t.blame:10.2f} "
                f"{t.time_to_blame:17.2f} {t.verifiable_overhead_per_round:19.2f}"
            )
        print(
            f"hybrid blame without batching: {unbatched.blame:.2f} s "
            f"(batched: {rows[1].blame:.2f} s)"
        )


def test_hybrid_churn_paper_scale(capsys):
    """Hybrid mode driven through churned rounds at paper scale."""
    trace = simulate_hybrid_churn(
        1024, 8, rounds=12, disruption_prob=0.25, seed=3
    )
    assert len(trace.rounds) == 12
    assert trace.corrupted_rounds >= 1
    assert all(r.online_clients > 0 for r in trace.rounds)
    # A corrupted round costs its replay on top of the fast path.
    assert trace.mean_time_to_blame > trace.mean_round_time
    _REPORT["hybrid_churn_1024x8"] = {
        "rounds": len(trace.rounds),
        "corrupted_rounds": trace.corrupted_rounds,
        "mean_round_s": round(trace.mean_round_time, 3),
        "mean_time_to_blame_s": round(trace.mean_time_to_blame, 3),
    }
    with capsys.disabled():
        print()
        print(
            f"hybrid under churn, 1024 clients / 8 servers: "
            f"mean round {trace.mean_round_time:.2f} s, "
            f"{trace.corrupted_rounds}/12 rounds corrupted, "
            f"mean time-to-blame {trace.mean_time_to_blame:.2f} s"
        )


def test_throughput_comparison_real_crypto(capsys):
    """Wall-clock payload throughput of the three modes on small groups."""
    results = {}

    session = _xor_session(seed=21)
    t0 = time.perf_counter()
    rounds = 4
    for _ in range(rounds):
        session.post(0, b"y" * _PAYLOAD)
        session.run_round()
    results["xor"] = rounds * _PAYLOAD / (time.perf_counter() - t0)

    hybrid = HybridSession.build(num_servers=3, num_clients=6, seed=21)
    hybrid.setup()
    t0 = time.perf_counter()
    for _ in range(rounds):
        hybrid.post(0, b"y" * _PAYLOAD)
        hybrid.run_round()
    results["hybrid"] = rounds * _PAYLOAD / (time.perf_counter() - t0)

    verifiable = VerdictSession.build(
        num_servers=3, num_clients=6, seed=21, slot_payload=_PAYLOAD
    )
    slot = verifiable.clients[0].slot
    t0 = time.perf_counter()
    for _ in range(rounds):
        verifiable.post(0, b"y" * _PAYLOAD)
        verifiable.run_round(slot)
    results["verifiable"] = rounds * _PAYLOAD / (time.perf_counter() - t0)

    assert all(v > 0 for v in results.values())
    _REPORT["throughput_Bps_3x6"] = {k: round(v) for k, v in results.items()}
    # The verifiable mode's proof ledger backs the benchmark comparison:
    # every chunk proof made was checked once per server.
    counters = verifiable.total_counters()
    assert counters.client_proofs_made > 0
    assert counters.client_proofs_checked == 3 * counters.client_proofs_made
    with capsys.disabled():
        print()
        print("payload throughput, 3 servers / 6 clients, real crypto:")
        for mode, bps in results.items():
            print(f"  {mode:11s} {bps:10.0f} B/s")
