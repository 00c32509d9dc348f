"""The Dissent protocol core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.config.GroupDefinition` / :class:`~repro.core.config.Policy`
  — static group membership and protocol constants (§3.2, §3.7).
* :class:`~repro.core.client.DissentClient` — Algorithm 1.
* :class:`~repro.core.server.DissentServer` — Algorithm 2.
* :class:`~repro.core.session.DissentSession` — in-process real-crypto
  driver for a whole group, with up to W rounds in flight
  (``run_rounds(n, window=W)``) and outputs bit-identical at every W; it
  drains to a barrier on failure/blame/schedule/membership events.  The
  overlap a window buys a deployment is modelled in :mod:`repro.sim`
  (``RoundSimConfig.pipeline_depth``), not timed here.
* :mod:`~repro.core.schedule` — slot scheduling S(r, pi(i), H) (§3.8).
* :mod:`~repro.core.policy` — window-closure and participation policies
  (§3.7, §5.1).
* :mod:`~repro.core.keyshuffle` — scheduling via verifiable shuffles (§3.10).
* :mod:`~repro.core.accusation` — the blame protocol (§3.9).
* :mod:`~repro.core.adversary` — byzantine node models for tests and demos.
"""

from repro.core.config import GroupDefinition, Policy, make_group_definition
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.core.session import DissentSession, build_keys, build_session
from repro.core.rounds import QuietOutcome, RoundOutput, RoundRecord, RoundStatus
from repro.core.policy import (
    FractionMultiplierPolicy,
    ParticipationTracker,
    WaitForAllPolicy,
    WindowOutcome,
    WindowPolicy,
)

__all__ = [
    "GroupDefinition",
    "Policy",
    "make_group_definition",
    "DissentClient",
    "DissentServer",
    "DissentSession",
    "build_keys",
    "build_session",
    "QuietOutcome",
    "RoundOutput",
    "RoundRecord",
    "RoundStatus",
    "FractionMultiplierPolicy",
    "ParticipationTracker",
    "WaitForAllPolicy",
    "WindowOutcome",
    "WindowPolicy",
]
