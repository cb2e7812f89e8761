"""The timing-only replay of the engine network equals the DES exactly.

:func:`~repro.engines.builder.time_dataflow_network` compiles each
process of the network into read/write/delay steps and replays them
under the simulator's scheduling rules.  The cost paths (grid timing and
dispatch-cost calibration) use it in place of the discrete-event run, so
for every generated configuration it must give the same floats, not
close ones: each engine chunk's makespan, every process finish time (in
process order) and the multi-engine batch's kernel cycles.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import CDSOption
from repro.cpu.engine import chunk_options
from repro.dataflow.engine import Simulator
from repro.engines.base import EngineWorkload
from repro.engines.builder import build_dataflow_network, time_dataflow_network
from repro.engines.interoption import time_streaming
from repro.engines.multi_engine import MultiEngineSystem
from repro.engines.stages import StageModels
from repro.hls.interpolation import InterpolatorModel
from repro.risk.engine import make_book
from repro.workloads.scenarios import PaperScenario

random_options = st.lists(
    st.builds(
        CDSOption,
        maturity=st.floats(min_value=0.1, max_value=12.0, allow_nan=False),
        frequency=st.sampled_from([1, 2, 4, 12]),
        recovery_rate=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)

seeded_book = st.builds(
    lambda kind, n, seed: list(make_book(kind, n, seed=seed).options),
    st.sampled_from(["uniform", "skewed", "heterogeneous"]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)

configs = st.fixed_dictionaries(
    {
        "n_rates": st.integers(min_value=2, max_value=64),
        # Spans shorter than a maturity put time points past the last
        # knot; spans that are multiples of the payment step put them on
        # knots.
        "curve_span_years": st.sampled_from([5.0, 6.0, 10.0, 12.0]),
        "replication_factor": st.integers(min_value=1, max_value=6),
        "stream_depth": st.integers(min_value=1, max_value=6),
        "uram_read_ports": st.integers(min_value=1, max_value=3),
        "precision": st.sampled_from(["double", "single"]),
    }
)


@given(
    config=configs,
    options=st.one_of(random_options, seeded_book),
    n_engines=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=120, deadline=None)
def test_replay_equals_simulation(config, options, n_engines):
    sc = PaperScenario(**config)
    yc, hc = sc.yield_curve(), sc.hazard_curve()
    system = MultiEngineSystem(sc, n_engines=n_engines)
    simulated = system.run(options, yc, hc)

    workload = EngineWorkload.build(options, yc, hc)
    chunks = chunk_options(list(range(len(options))), n_engines)
    assert len(chunks) == len(simulated.sim_results)
    for chunk, sim in zip(chunks, simulated.sim_results):
        timing = time_streaming(
            sc, workload, chunk, replication=sc.replication_factor
        )
        assert timing.makespan_cycles == sim.makespan_cycles
        assert list(timing.process_times.items()) == list(
            sim.process_times.items()
        )
    assert system.kernel_cycles(options, yc, hc) == simulated.kernel_cycles


@given(
    options=random_options,
    data=st.data(),
    n_rates=st.integers(min_value=2, max_value=40),
    interleaved=st.booleans(),
    early_exit_scan_ii=st.sampled_from([None, 1.0, 0.7, 1.3]),
    stream_depth=st.integers(min_value=1, max_value=6),
    replication=st.integers(min_value=1, max_value=6),
    uram_ports=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_replay_equals_simulation_for_any_stage_models(
    options, data, n_rates, interleaved, early_exit_scan_ii,
    stream_depth, replication, uram_ports,
):
    """Beyond the engines' configuration: the naive accumulator, an
    early-exit table scan and any subset of option indices."""
    sc = PaperScenario(n_rates=n_rates)
    workload = EngineWorkload.build(options, sc.yield_curve(), sc.hazard_curve())
    models = StageModels.for_scenario(sc, interleaved=interleaved)
    if early_exit_scan_ii is not None:
        models = dataclasses.replace(
            models,
            interpolator=InterpolatorModel(
                n_rates, scan_ii=early_exit_scan_ii, fixed_bound=False
            ),
        )
    indices = sorted(
        data.draw(
            st.sets(
                st.integers(min_value=0, max_value=len(options) - 1), min_size=1
            )
        )
    )
    network = dict(
        stream_depth=stream_depth, replication=replication, uram_ports=uram_ports
    )
    sim = Simulator("reference")
    build_dataflow_network(sim, workload, indices, models, **network)
    simulated = sim.run()
    timing = time_dataflow_network(workload, indices, models, **network)
    assert timing.makespan_cycles == simulated.makespan_cycles
    assert list(timing.process_times.items()) == list(
        simulated.process_times.items()
    )
