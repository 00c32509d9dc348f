"""Shared test helpers importable as ``tests.helpers``."""

import contextlib

from repro.core import DissentSession
from repro.obs import metrics


def fresh_session(num_servers=3, num_clients=5, seed=7, policy=None):
    """A freshly scheduled real-crypto session for mutation-heavy tests."""
    session = DissentSession.build(
        num_servers=num_servers, num_clients=num_clients, seed=seed, policy=policy
    )
    session.setup()
    return session


@contextlib.contextmanager
def crypto_counters():
    """Record the ``crypto.*`` counters of the block; yields ``read(name)``.

    The crypto layer has no session to hang a registry on and counts into
    the process-global one, which is off unless something installs it.
    """
    registry = metrics.MetricsRegistry()
    old = metrics.set_global_registry(registry)
    try:
        yield lambda name: registry.counter(f"crypto.{name}").value
    finally:
        metrics.set_global_registry(old)
