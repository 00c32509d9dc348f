#!/usr/bin/env python3
"""Round time and fixed-base table builds as the group grows, in process.

Builds ``DissentSession.build(backend, servers, N, seed)`` for each N,
runs set-up and then empty rounds, and prints set-up seconds, the median
round (rounds 2 on) and the tables built in round 1 and after it.  Every
member pins the keys it walks each round when it is built
(``repro.crypto.groups.TableResidency``), so a steady round builds none
at any N; one that does is a table policy that thrashes.  ``--gate``
exits 1 if any round after the first built a table.

    PYTHONPATH=src python examples/table_probe.py --clients 32 64 96 --gate
"""

import argparse
import statistics
import time

from repro.core import DissentSession
from repro.obs import metrics


def probe(backend: str, servers: int, clients: int, rounds: int, seed: int) -> dict:
    """One group: set-up seconds, median round ms, builds in and after round 1."""
    if not metrics.GLOBAL.enabled:
        metrics.set_global_registry(metrics.MetricsRegistry())

    def builds() -> int:
        return metrics.GLOBAL.counter("crypto.fixed_base.table_builds").value

    start = time.perf_counter()
    session = DissentSession.build(backend, servers, clients, seed=seed)
    session.setup()
    setup_s = time.perf_counter() - start
    per_round = []
    times = []
    for _ in range(rounds):
        before = builds()
        start = time.perf_counter()
        session.run_round()
        times.append(time.perf_counter() - start)
        per_round.append(builds() - before)
    return {
        "clients": clients,
        "setup_s": setup_s,
        "round_ms": 1000 * statistics.median(times[1:] or times),
        "builds_round_1": per_round[0],
        "builds_after": sum(per_round[1:]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backend", default="ec25519")
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--clients", type=int, nargs="+", default=[96])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2041)
    parser.add_argument(
        "--gate", action="store_true", help="exit 1 if a round after the first builds a table"
    )
    args = parser.parse_args(argv)

    print(f"{'N':>5} {'set-up s':>9} {'round ms':>9} {'builds r1':>10} {'builds r2+':>11}")
    steady = True
    for clients in args.clients:
        row = probe(args.backend, args.servers, clients, args.rounds, args.seed)
        print(
            f"{row['clients']:>5} {row['setup_s']:>9.2f} {row['round_ms']:>9.1f}"
            f" {row['builds_round_1']:>10} {row['builds_after']:>11}"
        )
        steady = steady and row["builds_after"] == 0
    if args.gate and not steady:
        print("FAIL: a steady-state round built a fixed-base table")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
