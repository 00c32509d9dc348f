#!/usr/bin/env python3
"""Anonymous microblogging under churn (paper §4.2 + §3.6).

A 12-client group posts to a shared feed while clients drop offline and
return between rounds.  Dissent's client/server coin graph means rounds
complete without the offline clients — no restarts — and the published
participation counts track the anonymity set size round by round.

``--mode hybrid`` runs the identical app over Verdict's hybrid DC-net
(``Policy.dcnet_mode``): the feed code does not change, clean rounds stay
on the XOR fast path, and any disruption would be blamed by verifiable
replay instead of an accusation shuffle.
"""

import argparse
import random

from repro.apps import MicroblogFeed
from repro.core import Policy, build_session


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode",
        choices=("xor", "hybrid"),
        default="xor",
        help="DC-net pipeline to run the unchanged app over",
    )
    parser.add_argument(
        "--clients", type=int, default=12, help="group size (authors wrap around)"
    )
    args = parser.parse_args(argv)

    session = build_session(
        num_servers=3,
        num_clients=args.clients,
        seed=7,
        # alpha=0.5: tolerate a 50% participation drop under churn.
        policy=Policy(alpha=0.5, dcnet_mode=args.mode),
    )
    session.setup()
    print(f"dcnet mode: {session.definition.policy.dcnet_mode}")
    feed = MicroblogFeed(session)
    rng = random.Random(42)

    posts = [
        (1, "day 14: checkpoints on the north bridge"),
        (4, "confirmed: two checkpoints, avoid after dark"),
        (1, "day 15: they are checking phones now"),
        (9, "use the paper maps from the library"),
    ]

    for author, text in posts:
        author %= args.clients
        feed.post(author, text)
        # Random churn: each client is online with probability 0.8, but
        # the author stays online to transmit.
        for _ in range(3):
            online = {i for i in range(args.clients) if rng.random() < 0.8} | {author}
            feed.run_round(online)
        record = session.records[-1]
        print(
            f"round {record.round_number}: participation={record.participation} "
            f"status={record.status.value}"
        )

    print("\n--- the feed every member reconstructs ---")
    for post in feed.timeline():
        print(f"  [{post.author}] {post.text}")

    print("\nnote: posts by the same author share a slot (pseudonymity),")
    print("but nothing links a slot to a client identity.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
