"""Pins of the cycle-level dataflow DES against recorded results.

The scheduler's hot loop and the stage kernels are written for host
speed (direct FIFO access, command objects built once per kernel).  None
of that may move a simulated number: every :class:`~repro.dataflow.
engine.SimulationResult` field and every traced transfer below was
recorded from the straightforward implementation (checked ``Stream``
push/pop, fresh ``Read``/``Delay`` per token) and must reproduce exactly.

The configuration is small but reaches every scheduler path: two engine
chunks of a heterogeneous book, round-robin replication of the hazard and
interpolation stages, and depth-2 FIFOs deep enough for writer
back-pressure (``timegrid`` stalls on ``tg->hazard``).
"""

import hashlib

import pytest

from repro.dataflow.engine import Simulator
from repro.dataflow.tracing import Trace
from repro.engines.base import EngineWorkload
from repro.engines.builder import build_dataflow_network
from repro.engines.multi_engine import MultiEngineSystem
from repro.engines.stages import StageModels
from repro.risk.engine import make_book
from repro.workloads.scenarios import PaperScenario

#: Per engine chunk: makespan, commands, process name -> (finish time,
#: busy, read stall, write stall), stream name -> (tokens, max occupancy,
#: reader stall, writer stall).
RECORDED = (
    (
        1017.0,
        1405,
        {
            'timegrid': (37.0, 25.0, 0.0, 12.0),
            'hazard_rr_sched': (41.0, 25.0, 16.0, 0.0),
            'hazard_acc[0]': (859.0, 855.0, 4.0, 0.0),
            'hazard_acc[1]': (791.0, 786.0, 5.0, 0.0),
            'hazard_rr_collect': (867.0, 25.0, 842.0, 0.0),
            'interp_rr_sched': (41.0, 25.0, 16.0, 0.0),
            'interp[0]': (212.0, 208.0, 4.0, 0.0),
            'interp[1]': (197.0, 192.0, 5.0, 0.0),
            'interp_rr_collect': (269.0, 25.0, 244.0, 0.0),
            'defprob': (867.0, 25.0, 842.0, 0.0),
            'discount': (269.0, 25.0, 244.0, 0.0),
            'tee_S': (904.0, 25.0, 879.0, 0.0),
            'tee_D': (305.0, 25.0, 280.0, 0.0),
            'payment': (904.0, 25.0, 879.0, 0.0),
            'payoff': (904.0, 25.0, 879.0, 0.0),
            'accrual': (904.0, 25.0, 879.0, 0.0),
            'accum_payment': (974.0, 138.0, 836.0, 0.0),
            'accum_payoff': (968.0, 138.0, 830.0, 0.0),
            'accum_accrual': (974.0, 138.0, 836.0, 0.0),
            'combine': (983.0, 4.0, 979.0, 0.0),
            'drain': (1017.0, 2.0, 1015.0, 0.0),
        },
        {
            'tg->hazard': (25, 2, 16.0, 12.0),
            'tg->interp': (25, 2, 16.0, 0.0),
            'tg->combine.params': (2, 1, 4.0, 0.0),
            'hazard->defprob': (25, 2, 842.0, 0.0),
            'defprob->teeS': (25, 2, 879.0, 0.0),
            'interp->discount': (25, 2, 244.0, 0.0),
            'discount->teeD': (25, 2, 280.0, 0.0),
            'teeS->payment': (25, 2, 877.0, 0.0),
            'teeS->payoff': (25, 2, 877.0, 0.0),
            'teeS->accrual': (25, 2, 877.0, 0.0),
            'teeD->payment': (25, 2, 2.0, 0.0),
            'teeD->payoff': (25, 2, 2.0, 0.0),
            'teeD->accrual': (25, 2, 2.0, 0.0),
            'payment->accum': (25, 2, 836.0, 0.0),
            'payoff->accum': (25, 2, 830.0, 0.0),
            'accrual->accum': (25, 2, 836.0, 0.0),
            'accum.payment->combine': (2, 1, 975.0, 0.0),
            'accum.payoff->combine': (2, 1, 0.0, 0.0),
            'accum.accrual->combine': (2, 1, 0.0, 0.0),
            'combine->drain': (2, 1, 1015.0, 0.0),
            'rr->hazard[0]': (13, 1, 4.0, 0.0),
            'rr->hazard[1]': (12, 1, 5.0, 0.0),
            'hazard[0]->rr': (13, 1, 842.0, 0.0),
            'hazard[1]->rr': (12, 1, 0.0, 0.0),
            'rr->interp[0]': (13, 1, 4.0, 0.0),
            'rr->interp[1]': (12, 1, 5.0, 0.0),
            'interp[0]->rr': (13, 1, 244.0, 0.0),
            'interp[1]->rr': (12, 1, 0.0, 0.0),
        },
    ),
    (
        1618.0,
        2560,
        {
            'timegrid': (68.0, 46.0, 0.0, 22.0),
            'hazard_rr_sched': (72.0, 46.0, 26.0, 0.0),
            'hazard_acc[0]': (1458.0, 1454.0, 4.0, 0.0),
            'hazard_acc[1]': (1452.0, 1447.0, 5.0, 0.0),
            'hazard_rr_collect': (1467.0, 46.0, 1421.0, 0.0),
            'interp_rr_sched': (72.0, 46.0, 26.0, 0.0),
            'interp[0]': (372.0, 368.0, 4.0, 0.0),
            'interp[1]': (373.0, 368.0, 5.0, 0.0),
            'interp_rr_collect': (430.0, 46.0, 384.0, 0.0),
            'defprob': (1467.0, 46.0, 1421.0, 0.0),
            'discount': (430.0, 46.0, 384.0, 0.0),
            'tee_S': (1504.0, 46.0, 1458.0, 0.0),
            'tee_D': (466.0, 46.0, 420.0, 0.0),
            'payment': (1504.0, 46.0, 1458.0, 0.0),
            'payoff': (1504.0, 46.0, 1458.0, 0.0),
            'accrual': (1504.0, 46.0, 1458.0, 0.0),
            'accum_payment': (1575.0, 166.0, 1409.0, 0.0),
            'accum_payoff': (1569.0, 166.0, 1403.0, 0.0),
            'accum_accrual': (1575.0, 166.0, 1409.0, 0.0),
            'combine': (1584.0, 4.0, 1580.0, 0.0),
            'drain': (1618.0, 2.0, 1616.0, 0.0),
        },
        {
            'tg->hazard': (46, 2, 26.0, 22.0),
            'tg->interp': (46, 2, 26.0, 0.0),
            'tg->combine.params': (2, 1, 4.0, 0.0),
            'hazard->defprob': (46, 2, 1421.0, 0.0),
            'defprob->teeS': (46, 2, 1458.0, 0.0),
            'interp->discount': (46, 2, 384.0, 0.0),
            'discount->teeD': (46, 2, 420.0, 0.0),
            'teeS->payment': (46, 2, 1456.0, 0.0),
            'teeS->payoff': (46, 2, 1456.0, 0.0),
            'teeS->accrual': (46, 2, 1456.0, 0.0),
            'teeD->payment': (46, 2, 2.0, 0.0),
            'teeD->payoff': (46, 2, 2.0, 0.0),
            'teeD->accrual': (46, 2, 2.0, 0.0),
            'payment->accum': (46, 2, 1409.0, 0.0),
            'payoff->accum': (46, 2, 1403.0, 0.0),
            'accrual->accum': (46, 2, 1409.0, 0.0),
            'accum.payment->combine': (2, 1, 1576.0, 0.0),
            'accum.payoff->combine': (2, 1, 0.0, 0.0),
            'accum.accrual->combine': (2, 1, 0.0, 0.0),
            'combine->drain': (2, 1, 1616.0, 0.0),
            'rr->hazard[0]': (23, 1, 4.0, 0.0),
            'rr->hazard[1]': (23, 1, 5.0, 0.0),
            'hazard[0]->rr': (23, 1, 1421.0, 0.0),
            'hazard[1]->rr': (23, 1, 0.0, 0.0),
            'rr->interp[0]': (23, 1, 4.0, 0.0),
            'rr->interp[1]': (23, 1, 5.0, 0.0),
            'interp[0]->rr': (23, 1, 384.0, 0.0),
            'interp[1]->rr': (23, 1, 0.0, 0.0),
        },
    ),
)

#: Transfers and SHA-256 of ``(kind, time, process, stream)`` for a traced
#: single-engine run over options 0 and 1.
RECORDED_TRACE = (
    970,
    "871c57c216778132185ac9434315fa7fdb373122ec866a2c50edd635516ad096",
)


@pytest.fixture(scope="module")
def setup():
    scenario = PaperScenario(
        n_rates=16, n_options=4, replication_factor=2, stream_depth=2
    )
    book = make_book("heterogeneous", 4, seed=7)
    return scenario, list(book.options)


def test_multi_engine_results_pinned(setup):
    scenario, options = setup
    res = MultiEngineSystem(scenario, n_engines=2).run(
        options, scenario.yield_curve(), scenario.hazard_curve()
    )
    assert res.kernel_cycles == 19698.9
    assert len(res.sim_results) == len(RECORDED)
    for sim, (makespan, commands, processes, streams) in zip(
        res.sim_results, RECORDED
    ):
        assert sim.makespan_cycles == makespan
        assert sim.commands == commands
        assert list(sim.process_times) == list(processes)
        for name, (finish, busy, stall_read, stall_write) in processes.items():
            assert sim.process_times[name] == finish, name
            assert sim.process_busy[name] == busy, name
            assert sim.process_stall_read[name] == stall_read, name
            assert sim.process_stall_write[name] == stall_write, name
        assert list(sim.stream_stats) == list(streams)
        for name, (tokens, occupancy, reader, writer) in streams.items():
            stats = sim.stream_stats[name]
            assert stats.tokens == tokens, name
            assert stats.max_occupancy == occupancy, name
            assert stats.reader_stall_cycles == reader, name
            assert stats.writer_stall_cycles == writer, name


def test_traced_transfers_pinned(setup):
    scenario, options = setup
    workload = EngineWorkload.build(
        options, scenario.yield_curve(), scenario.hazard_curve()
    )
    sim = Simulator("traced")
    sim.tracer = Trace()
    build_dataflow_network(
        sim,
        workload,
        [0, 1],
        StageModels.for_scenario(scenario, interleaved=True),
        stream_depth=scenario.stream_depth,
        replication=scenario.replication_factor,
        uram_ports=scenario.effective_uram_ports,
    )
    sim.run()
    digest = hashlib.sha256()
    for e in sim.tracer.events:
        digest.update(repr((e.kind, e.time, e.process, e.stream)).encode())
    assert (len(sim.tracer.events), digest.hexdigest()) == RECORDED_TRACE
