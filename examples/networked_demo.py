#!/usr/bin/env python3
"""Dissent as real networked processes: nodes over localhost TCP.

Builds a 3-server / 8-client group where every node runs behind a real
asyncio TCP socket (or as spawned operating-system processes with
``--processes``): clients submit signed ciphertexts to their upstream
server, servers exchange inventory/commit/reveal/signature envelopes
peer to peer, and certified outputs broadcast back — the same bytes the
in-process session produces, now crossing actual sockets.  Prints
per-round wall-clock latency from the session tracer plus the merged
cross-process phase breakdown (paper §6 style).
"""

import argparse
import json
import os

from repro.net.runner import NetworkedSession
from repro.obs.critical import chrome_trace_json, trace_table
from repro.obs.export import parse_flight_dump, phase_table, snapshot_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--processes",
        action="store_true",
        help="spawn every node as a real subprocess instead of asyncio tasks",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged metrics snapshot as JSON (feed to repro.obs.report)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "write the stitched cross-process trace as JSON: the raw span "
            "events (feed to repro.obs.report --trace) plus Chrome "
            "traceEvents loadable in ui.perfetto.dev"
        ),
    )
    parser.add_argument(
        "--health-out",
        metavar="PATH",
        help="write per-node health snapshots as JSON (feed to repro.obs.report --health)",
    )
    parser.add_argument(
        "--flight-out",
        metavar="DIR",
        help="write the tail of each node's event log as NDJSON into DIR",
    )
    args = parser.parse_args(argv)

    mode = "subprocess" if args.processes else "tcp"
    with NetworkedSession.build(
        num_servers=args.servers,
        num_clients=args.clients,
        seed=2012,
        mode=mode,
        flight_dir=args.flight_out,
    ) as session:
        tracer = session.tracer
        clock = tracer.clock
        t0 = clock()
        session.setup()
        setup_s = clock() - t0
        print(
            f"{args.servers} servers + {args.clients} clients up as "
            f"{'processes' if args.processes else 'asyncio TCP nodes'}; "
            f"key shuffle over the wire in {setup_s:.2f}s"
        )
        print("group id:", session.definition.group_id().hex()[:16])

        session.post(2 % args.clients, b"meet at the fountain at noon")
        session.post(5 % args.clients, b"bring the documents")

        print(f"\n{'round':>5} {'status':>10} {'participants':>13} {'latency':>9}")
        for _ in range(args.rounds):
            record = session.run_round()
            # The coordinator tracer timed the round span for us.
            round_span = next(e for e in reversed(tracer.events) if e.name == "round")
            latency_ms = round_span.duration * 1e3
            print(
                f"{record.round_number:>5} {record.status.value:>10} "
                f"{record.participation:>13} {latency_ms:>7.1f}ms"
            )

        delivered = session.delivered_messages(0)
        print(f"\ndelivered to client-0 ({len(delivered)} messages):")
        for round_number, slot, message in delivered:
            print(f"  round {round_number}, slot {slot}: {message.decode()}")
        assert any(b"fountain" in m for _, _, m in delivered)

        snapshot = session.metrics()
        print("\nphase breakdown across all nodes (§6 style):")
        print(phase_table(snapshot))
        sent = snapshot["counters"].get("net.sent.bytes.total", 0)
        frames = snapshot["counters"].get("net.sent.frames.total", 0)
        print(f"\nnode traffic: {frames} frames, {sent} bytes")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(snapshot_json(snapshot))
            print(f"metrics snapshot written to {args.metrics_out}")
        if args.trace_out:
            events = session.trace_events()
            chrome = json.loads(chrome_trace_json(events))
            artifact = {"events": events, "traceEvents": chrome["traceEvents"]}
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, sort_keys=True, separators=(",", ":"))
            print(f"\nstitched trace ({len(events)} spans) written to {args.trace_out}")
            print(trace_table(events))
        if args.health_out:
            health = session.health()
            with open(args.health_out, "w", encoding="utf-8") as handle:
                json.dump(health, handle, sort_keys=True, indent=1)
            print(f"health snapshots written to {args.health_out}")
        if args.flight_out:
            os.makedirs(args.flight_out, exist_ok=True)
            written = []
            for dump in session.flight_dumps():
                header, _ = parse_flight_dump(dump)
                path = os.path.join(
                    args.flight_out, f"flight-{header['flight']}.ndjson"
                )
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(dump)
                written.append(path)
            print(f"flight rings written: {len(written)} files in {args.flight_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
