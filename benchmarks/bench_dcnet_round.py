"""End-to-end real-crypto round benchmarks (the functional prototype).

Two families of measurements:

* full real-mode rounds on the toy group (pytest-benchmark harnesses, as
  before);
* **per-round envelope verification**, scalar vs batched, on the 1536-bit
  production-grade group — the tentpole measurement for commitment-form
  Schnorr signatures.  One DC-net round at N clients / M servers carries
  N client ciphertexts plus 3M peer messages (inventory, commit, reveal),
  each signed; the batched path folds them all into one random-linear-
  combination multi-exponentiation with the long-term keys on hot
  fixed-base tables.

The module writes its measurements to ``benchmarks/BENCH_dcnet.json``
(uploaded by CI) so the round-verification trajectory is tracked across
commits, alongside ``BENCH_verdict.json``.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.core import DissentSession
from repro.crypto.groups import wide_group
from repro.crypto.keys import PrivateKey
from repro.crypto.schnorr import require_valid
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    SERVER_COMMIT,
    SERVER_INVENTORY,
    SERVER_REVEAL,
    batch_verify_envelopes,
    make_envelope,
)

#: Measurements accumulated by the tests below; dumped once per run.
_REPORT: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_artifact():
    """Write everything the module measured to BENCH_dcnet.json."""
    yield
    if _REPORT:
        path = Path(__file__).with_name("BENCH_dcnet.json")
        path.write_text(json.dumps(_REPORT, indent=2, sort_keys=True) + "\n")


def _build(num_servers, num_clients, seed=3):
    session = DissentSession.build(
        num_servers=num_servers, num_clients=num_clients, seed=seed
    )
    session.setup()
    return session


def test_bench_real_round_8_clients(benchmark):
    session = _build(3, 8)
    session.post(0, b"x" * 64)

    def round_once():
        return session.run_round()

    record = benchmark.pedantic(round_once, rounds=3, iterations=1)
    assert record.completed


def test_bench_real_round_24_clients(benchmark):
    session = _build(5, 24)
    session.post(0, b"x" * 64)

    def round_once():
        return session.run_round()

    record = benchmark.pedantic(round_once, rounds=2, iterations=1)
    assert record.completed


def test_bench_key_shuffle_setup(benchmark):
    def setup():
        session = DissentSession.build(num_servers=3, num_clients=6, seed=4)
        session.setup()
        return session

    session = benchmark.pedantic(setup, rounds=1, iterations=1)
    assert session.scheduled


# ---------------------------------------------------------------------------
# Scalar vs batched per-round envelope verification (the tentpole numbers)
# ---------------------------------------------------------------------------


def _round_envelopes(group, num_clients, num_servers, seed=9):
    """One round's signed traffic: N ciphertexts + 3M peer messages.

    Returns ``(items, hot)``: the (envelope, sender key) pairs a verifying
    server checks in one round, and the long-term key elements it should
    keep on hot fixed-base tables.
    """
    rng = random.Random(seed)
    gid = b"bench-group"
    client_keys = [PrivateKey.generate(group, rng) for _ in range(num_clients)]
    server_keys = [PrivateKey.generate(group, rng) for _ in range(num_servers)]
    items = []
    for i, key in enumerate(client_keys):
        body = rng.randbytes(96)
        env = make_envelope(key, CLIENT_CIPHERTEXT, f"client-{i}", gid, 7, body)
        items.append((env, key.public))
    for j, key in enumerate(server_keys):
        for msg_type, body in (
            (SERVER_INVENTORY, rng.randbytes(4 * num_clients)),
            (SERVER_COMMIT, rng.randbytes(32)),
            (SERVER_REVEAL, rng.randbytes(96)),
        ):
            env = make_envelope(key, msg_type, f"server-{j}", gid, 7, body)
            items.append((env, key.public))
    hot = [key.y for key in client_keys] + [key.y for key in server_keys]
    return items, hot


def _best_of(fn, repetitions=3):
    best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_round_envelope_verification_scalar_vs_batched(capsys):
    """Acceptance: >= 3x cheaper round verification at 32 clients / 3 servers.

    Measured on the 1536-bit group, where exponentiation cost dominates
    Python overhead (the paper-scale regime).  The batched path must agree
    with the scalar path on every envelope.
    """
    group = wide_group()
    rows = {}
    for num_clients in (8, 16, 32):
        items, hot = _round_envelopes(group, num_clients, 3)

        # The baseline is textbook one-at-a-time verification with no
        # key tables (envelope.verify now walks fixed-base tables for its
        # roster key, which would fold half of the batching win into it).
        def scalar_all():
            for envelope, key in items:
                require_valid(key, envelope.signed_payload(), envelope.signature)

        def batched_all():
            assert batch_verify_envelopes(items, hot_bases=hot) == ()

        # Warm both paths once: generator/hot-key tables amortize across
        # rounds in a session, so steady state is what we measure.
        scalar_all()
        batched_all()

        scalar_s = _best_of(scalar_all)
        batched_s = _best_of(batched_all)
        rows[num_clients] = {
            "envelopes": len(items),
            "scalar_s": round(scalar_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(scalar_s / batched_s, 2),
        }

    _REPORT["round_envelope_verification"] = {
        "group": "modp1536",
        "servers": 3,
        "by_clients": rows,
    }
    with capsys.disabled():
        print()
        print("per-round envelope verification, 3 servers, modp1536:")
        for n, row in rows.items():
            print(
                f"  {n:3d} clients ({row['envelopes']} envelopes): "
                f"scalar {row['scalar_s']*1e3:7.1f} ms, "
                f"batched {row['batched_s']*1e3:6.1f} ms "
                f"({row['speedup']:.1f}x)"
            )
    assert rows[32]["speedup"] >= 3.0, (
        f"batched round verification only {rows[32]['speedup']:.2f}x faster"
    )


def test_bench_round_envelope_verification_ec_backend(capsys):
    """Acceptance: ec25519 round verification >= 5x faster than modp1536.

    The same batched multi-exponentiation path, measured per backend at
    32 clients / 3 servers (the regime of the scalar-vs-batched table).
    """
    from repro.crypto.ec25519 import ec_group

    rows = {}
    for label, group in (("modp1536", wide_group()), ("ec25519", ec_group())):
        items, hot = _round_envelopes(group, 32, 3)

        def batched_all():
            assert batch_verify_envelopes(items, hot_bases=hot) == ()

        batched_all()  # warm fixed-base tables
        rows[label] = {
            "envelopes": len(items),
            "batched_s": round(_best_of(batched_all, repetitions=5), 4),
        }

    speedup = rows["modp1536"]["batched_s"] / rows["ec25519"]["batched_s"]
    _REPORT["round_envelope_verification_ec_backend"] = {
        "clients": 32,
        "servers": 3,
        "modp1536_s": rows["modp1536"]["batched_s"],
        "ec25519_s": rows["ec25519"]["batched_s"],
        "speedup": round(speedup, 2),
    }
    with capsys.disabled():
        print()
        print(
            f"batched round verification, 32 clients / 3 servers: "
            f"modp1536 {rows['modp1536']['batched_s']*1e3:.1f} ms, "
            f"ec25519 {rows['ec25519']['batched_s']*1e3:.1f} ms "
            f"({speedup:.1f}x)"
        )
    assert speedup >= 5.0, f"ec backend only {speedup:.2f}x faster"


def test_bench_modeled_round_time_reflects_batching():
    """The simulator's batched-signature cost, recorded beside the real one."""
    from dataclasses import replace

    from repro.sim.costmodel import DEFAULT_COST_MODEL
    from repro.sim.network import deterlab_topology
    from repro.sim.roundsim import RoundSimConfig, Workload, simulate_round

    rows = {}
    for batched in (True, False):
        cost = replace(DEFAULT_COST_MODEL, batched_signatures=batched)
        config = RoundSimConfig(
            num_clients=1024,
            num_servers=8,
            workload=Workload.microblog(1024),
            topology=deterlab_topology(),
            cost=cost,
        )
        timing = simulate_round(config, random.Random(5))
        rows["batched" if batched else "scalar"] = round(timing.total, 4)
    assert rows["batched"] < rows["scalar"]
    _REPORT["modeled_round_total_1024x8_s"] = rows
