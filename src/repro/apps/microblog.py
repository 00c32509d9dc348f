"""Anonymous microblogging over Dissent (paper §4.2).

A chat-like feed where posts are attributed to pseudonymous *slots*, never
to client identities: followers see "slot 3 said X" and — by the DC-net's
guarantee — cannot learn which client owns slot 3.  This is the workload
behind the paper's PlanetLab/DeterLab evaluation ("a random 1% of all
clients submit 128-byte messages during any particular round").

Two layers:

* :class:`MicroblogFeed` — a real-mode application on a
  :class:`~repro.core.session.DissentSession`.
* :func:`microblog_workload` — the stochastic 1%-submit round generator
  used by the simulated-scale benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.session import DissentSession


@dataclass(frozen=True)
class Post:
    """One delivered microblog post, attributed to its slot pseudonym."""

    round_number: int
    slot_index: int
    text: str

    @property
    def author(self) -> str:
        return f"slot-{self.slot_index}"


@dataclass
class MicroblogFeed:
    """The shared feed every group member reconstructs from round outputs."""

    session: DissentSession
    max_post_bytes: int = 128
    #: How much of the session's delivery log is folded into the feed.
    _read: int = 0
    posts: list[Post] = field(default_factory=list)

    def post(self, client_index: int, text: str) -> None:
        """Queue a post from one client (anonymity comes from the slot)."""
        data = text.encode("utf-8")
        if len(data) > self.max_post_bytes:
            raise ValueError(
                f"post of {len(data)} bytes exceeds the {self.max_post_bytes}-byte limit"
            )
        self.session.post(client_index, data)

    def run_round(self, online: set[int] | None = None) -> None:
        """Advance the group one round and fold new posts into the feed."""
        self.session.run_schedule([online])
        self.refresh()

    def refresh(self) -> None:
        """Fold newly delivered messages from the session's log into the feed."""
        delivered = self.session.delivered
        fresh, self._read = delivered[self._read :], len(delivered)
        for round_number, slot_index, message in fresh:
            try:
                text = message.decode("utf-8")
            except UnicodeDecodeError:
                continue
            self.posts.append(Post(round_number, slot_index, text))

    def timeline(self) -> list[Post]:
        """Posts in delivery order."""
        return list(self.posts)

    def by_author(self, slot_index: int) -> list[Post]:
        """All posts attributable to one pseudonymous slot."""
        return [post for post in self.posts if post.slot_index == slot_index]


def microblog_workload(
    num_clients: int,
    num_rounds: int,
    submit_fraction: float = 0.01,
    message_bytes: int = 128,
    seed: int = 0,
) -> list[list[tuple[int, int]]]:
    """Generate the paper's 1%-submit traffic pattern for simulations.

    Returns, per round, a list of (client_index, message_bytes) pairs for
    the clients that post that round.
    """
    rng = random.Random(seed)
    rounds: list[list[tuple[int, int]]] = []
    for _ in range(num_rounds):
        senders = [
            i for i in range(num_clients) if rng.random() < submit_fraction
        ]
        if not senders:
            senders = [rng.randrange(num_clients)]
        rounds.append([(i, message_bytes) for i in senders])
    return rounds
