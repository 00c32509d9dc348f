"""Figure 7: time per round versus number of clients (32 servers).

Paper (§5.2): with 32 servers, client counts swept from 32 to 5,120, two
workloads — microblog (a random 1% of clients submit 128-byte messages)
and data sharing (one client transmits 128 KB) — decomposed into "client
submission" and "server processing" time, on DeterLab, plus a PlanetLab
microblog variant.

Reported shape: sub-second rounds (500-600 ms) for 32-256 clients, delays
exceeding one second past ~1,000 clients, bandwidth dominating the 128 KB
scenario and latency the microblog scenario; on PlanetLab, inter-server
latency dominates.
"""

from __future__ import annotations

from repro.bench.harness import FigureResult
from repro.sim.churn import LanJitterModel, StragglerModel
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.network import deterlab_topology, planetlab_topology
from repro.sim.roundsim import (
    RoundSimConfig,
    Workload,
    mean_timing,
    simulate_rounds,
)

CLIENT_COUNTS = (32, 100, 320, 1000, 5120)
NUM_SERVERS = 32
#: The paper's DeterLab runs used 320 physical client machines (32 servers
#: x 10 machines), multiplexing up to 16 client processes per machine.
CLIENT_MACHINES = 320


def _deterlab_config(
    num_clients: int, workload: Workload, cost: CostModel, pipeline_depth: int = 1
) -> RoundSimConfig:
    return RoundSimConfig(
        num_clients=num_clients,
        num_servers=NUM_SERVERS,
        workload=workload,
        topology=deterlab_topology(),
        cost=cost,
        jitter=LanJitterModel(),
        client_machines=CLIENT_MACHINES,
        pipeline_depth=pipeline_depth,
    )


def _planetlab_config(
    num_clients: int, workload: Workload, cost: CostModel, pipeline_depth: int = 1
) -> RoundSimConfig:
    return RoundSimConfig(
        num_clients=num_clients,
        num_servers=NUM_SERVERS,
        workload=workload,
        topology=planetlab_topology(),
        cost=cost,
        jitter=StragglerModel(),
        pipeline_depth=pipeline_depth,
    )


def run(
    client_counts: tuple[int, ...] = CLIENT_COUNTS,
    rounds_per_point: int = 10,
    seed: int = 7,
    cost: CostModel = DEFAULT_COST_MODEL,
    pipeline_depth: int = 1,
) -> FigureResult:
    """Sweep client count for both workloads (the six paper series).

    The default cost model charges batched signature verification (this
    repo's protocol); pass ``cost=replace(DEFAULT_COST_MODEL,
    batched_signatures=False)`` to reproduce the paper prototype's
    one-at-a-time verification.  ``pipeline_depth > 1`` adds the
    steady-state pipelined-period series for the microblog/DeterLab
    scenario (W rounds in flight, modelled by
    :meth:`repro.sim.costmodel.CostModel.pipeline_period`).
    """
    result = FigureResult(
        figure="Figure 7",
        title=f"time per round (s) vs clients, {NUM_SERVERS} servers",
        x_label="clients",
        x_values=list(client_counts),
    )
    series: dict[str, list[float]] = {
        "128K-server(Det)": [],
        "128K-client(Det)": [],
        "1%-server(PL)": [],
        "1%-client(PL)": [],
        "1%-server(Det)": [],
        "1%-client(Det)": [],
    }
    pipelined: list[float] = []
    for n in client_counts:
        micro = Workload.microblog(n)
        share = Workload.data_sharing()

        t = mean_timing(
            simulate_rounds(_deterlab_config(n, share, cost), rounds_per_point, seed)
        )
        series["128K-server(Det)"].append(t.server_processing)
        series["128K-client(Det)"].append(t.client_submission)

        t = mean_timing(
            simulate_rounds(_planetlab_config(n, micro, cost), rounds_per_point, seed)
        )
        series["1%-server(PL)"].append(t.server_processing)
        series["1%-client(PL)"].append(t.client_submission)

        # One simulation serves both views: the client/server decomposition
        # is depth-independent, and each RoundTiming already carries its
        # pipelined steady-state period.
        t = mean_timing(
            simulate_rounds(
                _deterlab_config(n, micro, cost, pipeline_depth),
                rounds_per_point,
                seed,
            )
        )
        series["1%-server(Det)"].append(t.server_processing)
        series["1%-client(Det)"].append(t.client_submission)
        if pipeline_depth > 1:
            pipelined.append(t.pipeline_period)

    for name, values in series.items():
        result.add_series(name, values)
    if pipeline_depth > 1:
        result.add_series(f"1%-period(Det,W={pipeline_depth})", pipelined)

    micro_total = [
        series["1%-server(Det)"][i] + series["1%-client(Det)"][i]
        for i in range(len(client_counts))
    ]
    small = [t for n, t in zip(client_counts, micro_total) if n <= 320]
    result.add_note(
        f"microblog total at <=320 clients: {min(small):.2f}-{max(small):.2f}s "
        "(paper: 0.5-0.6s at 32-256 clients)"
    )
    big = [t for n, t in zip(client_counts, micro_total) if n >= 1000]
    result.add_note(
        f"microblog total at >=1000 clients: {min(big):.2f}s+ (paper: >1s past 1000)"
    )
    if pipeline_depth > 1:
        largest = len(client_counts) - 1
        lockstep = micro_total[largest]
        result.add_note(
            f"pipelined period at {client_counts[largest]} clients, "
            f"W={pipeline_depth}: {pipelined[largest]:.2f}s vs {lockstep:.2f}s "
            f"lockstep ({lockstep / pipelined[largest]:.1f}x rounds/sec)"
        )
    return result
