#!/usr/bin/env python3
"""Verdict-style verifiable DC-nets: proactive and hybrid accountability.

Part 1 — fully verifiable mode: every ciphertext carries a disjunctive
proof of well-formedness; a disruptor's garbage fails verification and
expels its sender in the same round, with no accusation machinery.

Part 2 — hybrid mode: rounds run on the cheap XOR fast path; a corrupted
round is detected publicly (the padding check fails for everyone), then
replayed in verifiable mode against the archived round to reconstruct the
true slot bytes and trace the disruptor — skipping the §3.9 accusation
shuffle entirely.
"""

import argparse


def verifiable_demo(num_servers: int, num_clients: int) -> None:
    from repro.core import DissentSession, Policy
    from repro.core.adversary import DisruptingVerdictClient
    from repro.core.client import DissentClient

    print("--- fully verifiable mode: disruptor named in-round ---")
    disruptor_index = num_clients - 1

    def client_factory(definition, index, key, rng):
        cls = DisruptingVerdictClient if index == disruptor_index else DissentClient
        return cls(definition, index, key, rng)

    session = DissentSession.build(
        num_servers=num_servers,
        num_clients=num_clients,
        seed=42,
        policy=Policy(dcnet_mode="verifiable", initial_slot_payload=48),
        client_factory=client_factory,
        telemetry=True,  # the verdict.* counters
    )
    session.setup()  # the key shuffle gives every client its slot
    session.post(1, b"a message worth jamming")
    record = session.run_round()
    print(f"round {record.round_number}: rejected clients "
          f"{sorted(session.expelled)} (proof verification failed)")
    outcome = session.run_until_quiet()
    assert outcome.drained
    for round_number, slot, message in session.delivered_messages(0):
        print(f"  round {round_number}, slot {slot}: {message.decode()}")
    counters = session.metrics()["counters"]
    print(f"proofs made: {counters['verdict.client_proofs_made']}, checked: "
          f"{counters['verdict.client_proofs_checked']} (one batched "
          "multi-exp per server per round), rejected submissions: "
          f"{counters['verdict.rejected_submissions']}")


def hybrid_demo(num_servers: int, num_clients: int) -> None:
    from repro.verdict.hybrid import build_hybrid_with_disruptor

    print("\n--- hybrid mode: XOR fast path + verifiable replay ---")
    session, victim_slot = build_hybrid_with_disruptor(
        num_servers=num_servers,
        num_clients=num_clients,
        disruptor_index=num_clients - 2,
        victim_index=1,
        seed=33,
        flips_per_round=3,
    )
    session.enable_telemetry()  # the hybrid.* and session.* counters
    print(f"disruptor client-{num_clients - 2} jams slot {victim_slot} "
          "(owned, unknowably to it, by client-1)")
    session.post(1, b"the hybrid path protects this")
    for _ in range(12):
        session.run_round()
        if session.blames and session.blames[-1].status == "blamed":
            break
    blame = session.blames[-1]
    print(f"round {blame.round_number}: corruption publicly visible, "
          "verifiable replay ran")
    print(f"  witness bit {blame.witness_bit}, culprits "
          f"{list(blame.client_culprits)} — expelled without any "
          "accusation shuffle")
    session.run_until_quiet()
    delivered = [m for (_, _, m) in session.delivered_messages(0)]
    print("delivered after expulsion:", delivered[-1].decode())
    counters = session.metrics()["counters"]
    print(f"fast rounds: {counters.get('hybrid.fast_rounds', 0)}, corrupted: "
          f"{counters.get('hybrid.corrupted_rounds', 0)}, replay chunks "
          f"opened: {counters.get('hybrid.replay_chunks_opened', 0)}, "
          "accusation shuffles: "
          f"{counters.get('session.accusation_phases', 0)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--clients", type=int, default=6)
    args = parser.parse_args(argv)
    verifiable_demo(args.servers, max(3, args.clients))
    hybrid_demo(args.servers, max(4, args.clients))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
