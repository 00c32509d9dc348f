"""Shared test helpers importable as ``tests.helpers``."""

import contextlib
import dataclasses

from repro.core import DissentSession
from repro.crypto.ec25519 import RistrettoGroup
from repro.obs import metrics


def fresh_session(num_servers=3, num_clients=5, seed=7, policy=None):
    """A freshly scheduled real-crypto session for mutation-heavy tests."""
    session = DissentSession.build(
        num_servers=num_servers, num_clients=num_clients, seed=seed, policy=policy
    )
    session.setup()
    return session


def assert_schedules_agree(session, clients):
    """Each client has stepped the slot schedule exactly as the session's
    delivery log did, so that log is what the client observed."""
    for client in clients:
        assert client.scheduler == session.delivery_schedule, client.name


@contextlib.contextmanager
def global_counters(prefix):
    """Record the ``{prefix}.*`` counters of the block; yields ``read(name)``.

    The crypto layer and the slot schedule have no session to hang a
    registry on and count into the process-global one, which is off unless
    something installs it.
    """
    registry = metrics.MetricsRegistry()
    old = metrics.set_global_registry(registry)
    try:
        yield lambda name: registry.counter(f"{prefix}.{name}").value
    finally:
        metrics.set_global_registry(old)


def crypto_counters():
    """:func:`global_counters` of the ``crypto.*`` layer."""
    return global_counters("crypto")


def untabled(group):
    """A new instance of ``group``: no table but the generator's, no pin."""
    if isinstance(group, RistrettoGroup):
        fresh = RistrettoGroup()
        fresh._generator_table = group._generator_table  # no 60 ms rebuild
        return fresh
    return dataclasses.replace(group)
