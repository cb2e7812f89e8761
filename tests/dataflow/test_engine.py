"""Unit tests for the dataflow scheduler: timing semantics, back-pressure,
stall accounting, determinism, deadlock detection."""

import pytest

from repro.dataflow.engine import Simulator, collector, feeder, transformer
from repro.dataflow.process import Delay, Read, Write
from repro.errors import DeadlockError, SimulationError


def _gen(*commands):
    """A kernel that yields a fixed command sequence."""
    for c in commands:
        yield c


class TestBasicChains:
    def test_single_feeder_collector(self):
        sim = Simulator()
        s = sim.stream("s", depth=2)
        sink = []
        sim.process("src", feeder(s, [1, 2, 3]))
        sim.process("dst", collector(s, 3, sink))
        res = sim.run()
        assert sink == [1, 2, 3]
        assert res.makespan_cycles >= 3

    def test_values_transformed_in_order(self):
        sim = Simulator()
        a = sim.stream("a")
        b = sim.stream("b")
        sink = []
        sim.process("src", feeder(a, list(range(10))))
        sim.process("t", transformer(a, b, 10, lambda v: v * v))
        sim.process("dst", collector(b, 10, sink))
        sim.run()
        assert sink == [v * v for v in range(10)]

    def test_empty_feeder(self):
        sim = Simulator()
        s = sim.stream("s")
        sim.process("src", feeder(s, []))
        sim.process("dst", collector(s, 0, []))
        res = sim.run()
        assert res.makespan_cycles == 0


class TestTimingSemantics:
    def test_ii_dominates_makespan(self):
        """A chain's steady-state cost is n * max(II)."""
        n = 200
        sim = Simulator()
        a = sim.stream("a", depth=2)
        b = sim.stream("b", depth=2)
        sim.process("src", feeder(a, list(range(n))))
        sim.process("slow", transformer(a, b, n, lambda v: v, ii=5.0))
        sim.process("dst", collector(b, n, []))
        res = sim.run()
        assert res.makespan_cycles == pytest.approx(5.0 * n, rel=0.02)

    def test_latency_adds_once(self):
        """Pipeline latency shifts completion but does not multiply."""
        n = 100
        sim = Simulator()
        a = sim.stream("a", depth=2)
        b = sim.stream("b", depth=2)
        sim.process("src", feeder(a, list(range(n))))
        sim.process("t", transformer(a, b, n, lambda v: v, ii=1.0, latency=50.0))
        sim.process("dst", collector(b, n, []))
        res = sim.run()
        # ~ n * II + latency, not n * latency.
        assert res.makespan_cycles < n * 1.0 + 50.0 + 20.0

    def test_sequential_delays_accumulate(self):
        sim = Simulator()

        def only_delays():
            yield Delay(10)
            yield Delay(5.5)

        sim.process("p", only_delays())
        res = sim.run()
        assert res.makespan_cycles == pytest.approx(15.5)
        assert res.process_busy["p"] == pytest.approx(15.5)

    def test_backpressure_throttles_producer(self):
        """A fast producer into a slow consumer is limited by the consumer."""
        n = 100
        sim = Simulator()
        s = sim.stream("s", depth=2)
        sink = []
        sim.process("src", feeder(s, list(range(n)), ii=1.0))
        sim.process("dst", collector(s, n, sink, ii=10.0))
        res = sim.run()
        assert res.makespan_cycles == pytest.approx(10.0 * n, rel=0.05)
        # The producer stalled on the full FIFO.
        assert res.process_stall_write["src"] > 0

    def test_pop_releases_blocked_writer_once(self):
        """Back-pressure is release-once, not per token.

        The first pop after a write blocks releases the writer at
        ``max(writer, reader)``; the writer then refills every freed slot
        without waiting for the pops that freed them.  Per-token
        back-pressure (write k waits for pop k - depth) would finish the
        feeder at 31.0.
        """
        sim = Simulator()
        s = sim.stream("s", depth=2)
        sim.process("feeder", feeder(s, list(range(6)), ii=1.0))
        sim.process("collector", collector(s, 6, [], ii=10.0))
        res = sim.run()
        assert res.process_times["feeder"] == 22.0
        assert res.process_stall_write["feeder"] == 16.0
        assert res.makespan_cycles == 60.0

    def test_starved_consumer_records_read_stalls(self):
        n = 50
        sim = Simulator()
        s = sim.stream("s", depth=4)
        sim.process("src", feeder(s, list(range(n)), ii=20.0))
        sim.process("dst", collector(s, n, [], ii=1.0))
        res = sim.run()
        assert res.process_stall_read["dst"] > 0

    def test_deeper_fifo_absorbs_burstiness(self):
        """A bursty producer (alternating 0/20-cycle gaps) loses less time
        with a deeper FIFO."""

        def bursty(stream, n):
            for i in range(n):
                yield Write(stream, i)
                yield Delay(20.0 if i % 2 == 0 else 0.0)

        def run(depth):
            sim = Simulator()
            s = sim.stream("s", depth=depth)
            sim.process("src", bursty(s, 60))
            sim.process("dst", collector(s, 60, [], ii=10.0))
            return sim.run().makespan_cycles

        assert run(16) <= run(1)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        def build():
            sim = Simulator()
            a = sim.stream("a", depth=3)
            b = sim.stream("b", depth=2)
            sim.process("src", feeder(a, list(range(37)), ii=2.0))
            sim.process("t", transformer(a, b, 37, lambda v: v + 1, ii=3.0, latency=9.0))
            sim.process("dst", collector(b, 37, [], ii=1.0))
            return sim.run()

        r1, r2 = build(), build()
        assert r1.makespan_cycles == r2.makespan_cycles
        assert r1.process_times == r2.process_times
        assert r1.process_stall_read == r2.process_stall_read


class TestErrorHandling:
    def test_deadlock_reader_no_writer(self):
        sim = Simulator()
        s = sim.stream("s")

        def reader():
            yield Read(s)

        sim.process("r", reader())
        with pytest.raises(DeadlockError, match="blocked-read"):
            sim.run()

    def test_deadlock_writer_no_reader(self):
        sim = Simulator()
        s = sim.stream("s", depth=1)

        def writer():
            yield Write(s, 1)
            yield Write(s, 2)  # blocks forever: FIFO full, no reader

        sim.process("w", writer())
        with pytest.raises(DeadlockError, match="blocked-write"):
            sim.run()

    def test_cyclic_deadlock_detected(self):
        sim = Simulator()
        a = sim.stream("a")
        b = sim.stream("b")

        def p1():
            v = yield Read(a)
            yield Write(b, v)

        def p2():
            v = yield Read(b)
            yield Write(a, v)

        sim.process("p1", p1())
        sim.process("p2", p2())
        with pytest.raises(DeadlockError, match="2 blocked"):
            sim.run()

    def test_duplicate_names_rejected(self):
        sim = Simulator()
        sim.stream("s")
        with pytest.raises(SimulationError):
            sim.stream("s")
        sim.process("p", feeder(sim.stream("s2"), []))
        with pytest.raises(SimulationError):
            sim.process("p", feeder(sim.stream("s3"), []))

    def test_rerun_rejected(self):
        sim = Simulator()
        sim.process("p", _gen())
        sim.run()
        with pytest.raises(SimulationError, match="already run"):
            sim.run()

    def test_command_budget(self):
        sim = Simulator()

        def forever():
            while True:
                yield Delay(1)

        sim.process("p", forever())
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_commands=100)

    def test_unknown_command_rejected(self):
        sim = Simulator()

        def bad():
            yield "not-a-command"

        sim.process("p", bad())
        with pytest.raises(SimulationError, match="unknown command"):
            sim.run()

    def test_foreign_stream_read_rejected(self):
        sim = Simulator()
        s = sim.stream("s", depth=4)

        def w():
            yield Write(s, 1)
            yield Write(s, 2)

        def r1():
            yield Read(s)

        def r2():
            yield Read(s)

        sim.process("w", w())
        sim.process("r1", r1())
        sim.process("r2", r2())
        with pytest.raises(SimulationError):
            sim.run()


class TestResultAccessors:
    def test_seconds_and_throughput(self):
        sim = Simulator()
        sim.process("p", _gen(Delay(300)))
        res = sim.run()
        assert res.seconds(300e6) == pytest.approx(1e-6)
        assert res.throughput(10, 300e6) == pytest.approx(1e7)

    def test_throughput_zero_makespan_rejected(self):
        sim = Simulator()
        sim.process("p", _gen())
        res = sim.run()
        with pytest.raises(SimulationError):
            res.throughput(1, 1e6)

    def test_bottleneck(self):
        sim = Simulator()
        sim.process("fast", _gen(Delay(10)))
        sim.process("slow", _gen(Delay(100)))
        res = sim.run()
        assert res.bottleneck() == "slow"
