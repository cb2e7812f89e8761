"""Unit tests for the quote server: cost model, event loop, metrics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import DispatchCostModel, VectorizedBackend
from repro.cluster.batching import BatchQueue
from repro.errors import ValidationError
from repro.gateway import Gateway
from repro.risk.engine import make_book
from repro.serving import PricingRequest, QuoteServer, make_request_stream
from repro.serving.metrics import LatencyStats
from repro.serving.request import ShedReason
from repro.telemetry import KernelProfiler

from .conftest import N_POSITIONS, N_STATES


class TestDispatchCostModel:
    def test_calibration_positive(self, server):
        m = server.cost_model
        assert m.invocation_seconds > 0
        assert m.row_transfer_seconds > 0
        assert m.cell_kernel_seconds > 0

    def test_fixed_overhead_amortises(self, server):
        """Per-request service must fall as the batch grows — the whole
        point of micro-batching."""
        m = server.cost_model
        single = m.service_seconds(1, 1)
        batched = m.service_seconds(64, 64) / 64
        assert batched < single / 3

    def test_contention_stretches_pcie_only(self, server):
        m = server.cost_model
        base = m.service_seconds(4, 4, contention=1.0)
        stretched = m.service_seconds(4, 4, contention=2.0)
        assert base < stretched < 2.0 * base

    def test_validation(self, server):
        m = server.cost_model
        with pytest.raises(ValidationError):
            m.service_seconds(0, 1)
        with pytest.raises(ValidationError):
            m.service_seconds(1, 1, contention=0.5)
        with pytest.raises(ValidationError):
            DispatchCostModel(-1.0, 0.0, 0.0, 0.0, 0.0)


class TestServe:
    def test_every_request_accounted_for(self, server, stream):
        res = server.serve(stream)
        assert res.n_offered == len(stream)
        assert res.n_completed + res.n_shed == res.n_offered
        answered = {r.request_id for r in res.responses}
        shed = {s.request.request_id for s in res.sheds}
        assert answered | shed == {r.request_id for r in stream}
        assert not (answered & shed)

    def test_latencies_positive_and_ordered(self, server, stream):
        res = server.serve(stream)
        for r in res.responses:
            assert r.completion_s > r.formed_s >= r.arrival_s
            assert r.latency_s == r.completion_s - r.arrival_s
        assert res.latency.p50_s <= res.latency.p95_s <= res.latency.p99_s
        assert res.latency.p99_s <= res.latency.max_s

    def test_deterministic(self, server, stream):
        first = server.serve(stream)
        second = server.serve(stream)
        assert first == second  # responses excluded from eq; compare core
        assert [r.value for r in first.responses] == [
            r.value for r in second.responses
        ]

    def test_card_accounting_consistent(self, server, stream):
        res = server.serve(stream)
        assert sum(c.dispatches for c in res.cards) >= res.n_dispatches
        assert all(c.busy_seconds >= 0 for c in res.cards)
        total_rows = sum(c.n_rows for c in res.cards)
        assert total_rows == round(res.mean_batch_rows * res.n_dispatches)

    def test_empty_trace_rejected(self, server):
        with pytest.raises(ValidationError):
            server.serve([])

    def test_zero_chunk_size_rejected_at_construction(
        self, server, tape, serving_scenario
    ):
        """Rejected when the server (or a gateway replica) is built, not
        when its first batch reaches the kernel mid-replay."""
        with pytest.raises(ValidationError) as err:
            QuoteServer(
                server.book,
                tape,
                scenario=serving_scenario,
                chunk_size=0,
            )
        assert str(err.value) == "chunk_size must be an integer >= 1, got 0"
        with pytest.raises(
            ValidationError, match="chunk_size must be an integer >= 1"
        ):
            Gateway(server.book, tape, scenario=serving_scenario, chunk_size=0)

    def test_row_beyond_tape_rejected(self, server):
        bad = PricingRequest(
            0, "reval", 0.0, 1.0, rows=(N_STATES,)
        )
        with pytest.raises(ValidationError, match="beyond the"):
            server.serve([bad])

    def test_option_beyond_book_rejected(self, server):
        bad = PricingRequest(
            0, "quote", 0.0, 1.0, rows=(0,), option_index=N_POSITIONS
        )
        with pytest.raises(ValidationError, match="beyond the"):
            server.serve([bad])

    def test_first_bad_request_in_trace_order_is_named(self, server, stream):
        trace = list(stream[:6])
        trace[4] = replace(trace[4], rows=(N_STATES,), kind="reval",
                           option_index=None)
        trace[2] = replace(trace[2], kind="quote", rows=(0,),
                           option_index=N_POSITIONS)
        with pytest.raises(ValidationError, match=(
            f"request {trace[2].request_id} quotes option {N_POSITIONS}"
        )):
            server.serve(trace)

    def test_duplicate_request_id_rejected(self, server):
        """Two requests under one id would get two responses with that id."""
        trace = [
            PricingRequest(1, "quote", 0.0, 1.0, rows=(0,), option_index=0),
            PricingRequest(1, "quote", 0.0, 1.0, rows=(1,), option_index=0),
            PricingRequest(2, "quote", 1e-4, 1.0, rows=(0,), option_index=0),
        ]
        with pytest.raises(ValidationError, match="request id 1 appears"):
            server.serve(trace)

    def test_shared_rows_not_double_charged(self, server):
        """Two revals on the same tape row cost the card one book
        repricing, not two — the batch dedupes rows before the kernel."""
        dup = [
            PricingRequest(0, "reval", 0.0, 1.0, rows=(5,)),
            PricingRequest(1, "reval", 0.0, 1.0, rows=(5,)),
        ]
        res = server.serve(dup)
        assert sum(c.n_cells for c in res.cards) == N_POSITIONS
        assert sum(c.n_rows for c in res.cards) == 1

    def test_quote_cells_count_distinct_contracts(self, server):
        """Quotes sharing one row charge one cell per distinct contract."""
        quotes = [
            PricingRequest(i, "quote", 0.0, 1.0, rows=(2,), option_index=i % 3)
            for i in range(6)
        ]
        res = server.serve(quotes)
        assert sum(c.n_cells for c in res.cards) == 3

    def test_render_and_summary(self, server, stream):
        res = server.serve(stream)
        assert "goodput" in res.summary()
        text = res.render()
        assert "Card" in text and "Util" in text


class TestBackpressure:
    def test_idle_server_admits_at_any_queue_depth(self, serving_scenario, tape):
        """Completed work must not count as in-flight: a request arriving
        long after the previous one finished is admitted even at depth 1."""
        srv = QuoteServer(
            make_book("heterogeneous", N_POSITIONS, seed=5),
            tape,
            scenario=serving_scenario,
            n_cards=1,
            n_engines=2,
            queue=BatchQueue(max_batch=8, linger_s=1e-3),
            queue_depth=1,
        )
        reqs = [
            PricingRequest(0, "quote", 0.0, 1.0, rows=(0,), option_index=0),
            PricingRequest(1, "quote", 10.0, 11.0, rows=(1,), option_index=1),
        ]
        res = srv.serve(reqs)
        assert res.n_completed == 2
        assert res.n_shed_queue == 0

    def test_tiny_queue_depth_sheds(self, serving_scenario, tape):
        srv = QuoteServer(
            make_book("heterogeneous", N_POSITIONS, seed=5),
            tape,
            scenario=serving_scenario,
            n_cards=1,
            n_engines=2,
            queue=BatchQueue(max_batch=8, linger_s=5e-4),
            queue_depth=4,
        )
        reqs = make_request_stream(
            300,
            rate_hz=50_000.0,  # far beyond one card's capacity
            n_states=N_STATES,
            n_positions=N_POSITIONS,
            var_rows=6,
            seed=11,
        )
        res = srv.serve(reqs)
        assert res.n_shed_queue > 0
        assert res.shed_rate > 0.1

    def test_overload_sheds_or_misses_deadlines(self, serving_scenario, tape):
        srv = QuoteServer(
            make_book("heterogeneous", N_POSITIONS, seed=5),
            tape,
            scenario=serving_scenario,
            n_cards=1,
            n_engines=2,
            queue=BatchQueue(max_batch=1, linger_s=0.0),  # no coalescing
            queue_depth=10_000,
        )
        reqs = make_request_stream(
            400,
            rate_hz=100_000.0,
            n_states=N_STATES,
            n_positions=N_POSITIONS,
            var_rows=6,
            seed=11,
        )
        res = srv.serve(reqs)
        assert res.n_late + res.n_shed > 0
        assert res.goodput_rps < res.throughput_rps or res.n_shed > 0

    def _burst_server(self, serving_scenario, tape, queue_depth):
        return QuoteServer(
            make_book("heterogeneous", N_POSITIONS, seed=5),
            tape,
            scenario=serving_scenario,
            n_cards=1,
            n_engines=2,
            # Long linger: nothing flushes between burst arrivals, so
            # the coalescer's pending count alone drives admission.
            queue=BatchQueue(max_batch=64, linger_s=1e-2),
            queue_depth=queue_depth,
        )

    @staticmethod
    def _burst(n):
        return [
            PricingRequest(
                i, "quote", i * 1e-6, 1.0, rows=(i % 4,), option_index=i % 4
            )
            for i in range(n)
        ]

    def test_exact_boundary_admits_up_to_depth(self, serving_scenario, tape):
        """The contract is ``outstanding >= queue_depth`` sheds: the
        request arriving with depth-1 outstanding is admitted, the one
        arriving at exactly depth outstanding is shed."""
        srv = self._burst_server(serving_scenario, tape, queue_depth=3)
        res = srv.serve(self._burst(4))
        assert res.n_completed == 3
        assert res.n_shed_queue == 1
        shed = res.sheds[0]
        assert shed.request.request_id == 3
        assert shed.reason == ShedReason.BACKPRESSURE

    def test_exactly_depth_requests_all_admitted(self, serving_scenario, tape):
        srv = self._burst_server(serving_scenario, tape, queue_depth=3)
        res = srv.serve(self._burst(3))
        assert res.n_completed == 3
        assert res.n_shed_queue == 0

    def test_queue_depth_one_serialises_admission(self, serving_scenario, tape):
        """Depth 1: one request outstanding at a time — the second of a
        simultaneous pair is shed, a later spaced arrival is admitted."""
        srv = self._burst_server(serving_scenario, tape, queue_depth=1)
        reqs = self._burst(2) + [
            PricingRequest(2, "quote", 5.0, 6.0, rows=(0,), option_index=0)
        ]
        res = srv.serve(reqs)
        assert res.n_completed == 2
        assert res.n_shed_queue == 1
        assert res.sheds[0].request.request_id == 1


class TestLaneTick:
    """A lane's tick acts on whatever is due at or before ``now``."""

    def _lane_with(self, server, deadline_s: float):
        lane = server.lane()
        req = PricingRequest(0, "quote", 0.0, deadline_s, rows=(0,),
                             option_index=0)
        lane.tick(0.0)
        assert lane.offer(req, 0.0)
        return lane

    def test_linger_expiring_now_forms_the_batch(self, server):
        lane = self._lane_with(server, deadline_s=1.0)
        expiry = server.queue.linger_s
        lane.tick(np.nextafter(expiry, 0.0))
        assert lane.coalescer.n_pending == 1
        lane.tick(expiry)
        assert lane.coalescer.n_pending == 0
        assert len(lane.dispatcher.responses) == 1

    def test_completion_now_leaves_the_in_flight_window(self, server):
        lane = self._lane_with(server, deadline_s=1.0)
        lane.tick(server.queue.linger_s)
        done = lane.dispatcher.responses[0].completion_s
        lane.tick(np.nextafter(done, 0.0))
        assert len(lane.in_flight) == 1
        lane.tick(done)
        assert len(lane.in_flight) == 0

    def test_deadline_now_reaps_the_request(self, server):
        deadline = server.queue.linger_s / 2
        lane = self._lane_with(server, deadline_s=deadline)
        lane.tick(np.nextafter(deadline, 0.0))
        assert lane.coalescer.n_sheds == 0
        lane.tick(deadline)
        assert lane.coalescer.n_sheds == 1
        assert lane.coalescer.n_pending == 0


class TestValueSemantics:
    def test_quote_matches_kernel_spread(self, server, tape):
        req = PricingRequest(
            0, "quote", 0.0, 1.0, rows=(7,), option_index=3
        )
        res = server.serve([req])
        spreads, _ = server.engine.quote_rows(tape, (7,))
        assert res.responses[0].value == float(spreads[0, 3])

    def test_reval_matches_pnl_identity(self, server, tape):
        req = PricingRequest(0, "reval", 0.0, 1.0, rows=(5,))
        res = server.serve([req])
        _, pv = server.engine.quote_rows(tape, (5,))
        expected = float(
            np.sum(
                (pv[0] - server.engine.base_pv) * server.book.notionals
            )
        )
        assert res.responses[0].value == expected

    def test_var_is_positive_loss_number(self, server, stream):
        res = server.serve(stream)
        var_vals = [r for r in res.responses if r.kind == "var"]
        assert var_vals, "stream should carry var requests"
        # VaR is a loss quantile: finite, and its sign is meaningful
        # (positive when the tail loses money).
        assert all(np.isfinite(r.value) for r in var_vals)


class TestBadMarketRow:
    def test_kernel_error_names_tape_row(self, server, tape, serving_scenario):
        """A NaN in tape row 3 fails naming row 3 — not its slot in the
        micro-batch's row list — with the annuity as a plain float."""
        hazard = tape.hazard_values.copy()
        hazard[3] = np.nan
        bad = QuoteServer(
            server.book,
            replace(tape, hazard_values=hazard),
            scenario=serving_scenario,
            n_cards=2,
        )
        # One batch over rows (1, 3): row 3 is batch slot 1.
        requests = [
            PricingRequest(0, "quote", 0.0, 1.0, rows=(1,), option_index=0),
            PricingRequest(1, "quote", 0.0, 1.0, rows=(3,), option_index=0),
        ]
        with pytest.raises(ValidationError) as err:
            bad.serve(requests)
        assert str(err.value) == (
            "non-positive risky annuity for scenario 3, option index 0: nan"
        )

    @pytest.fixture
    def nan_shift_tape(self, tape):
        """A 16-state tape whose row 3 carries a NaN recovery shift."""
        shifts = np.zeros(16)
        shifts[3] = np.nan
        return replace(
            tape,
            yield_values=tape.yield_values[:16],
            hazard_values=tape.hazard_values[:16],
            recovery_shifts=shifts,
        )

    def test_nan_recovery_shift_fails_the_replay(
        self, server, nan_shift_tape, serving_scenario
    ):
        """The shift is rejected naming the tape row, instead of the
        requests touching row 3 completing with NaN values."""
        bad = QuoteServer(
            server.book,
            nan_shift_tape,
            scenario=serving_scenario,
            n_cards=2,
        )
        stream = make_request_stream(
            300, rate_hz=2000.0, n_states=16, n_positions=N_POSITIONS, seed=11
        )
        assert any(3 in r.rows for r in stream)
        with pytest.raises(ValidationError) as err:
            bad.serve(stream)
        assert str(err.value) == "non-finite recovery shift for scenario 3: nan"

    def test_looped_backend_rejects_the_shift_too(
        self, server, nan_shift_tape, serving_scenario
    ):
        bad = QuoteServer(
            server.book,
            nan_shift_tape,
            scenario=serving_scenario,
            n_cards=1,
            backend="cpu",
        )
        request = PricingRequest(0, "quote", 0.0, 1.0, rows=(3,), option_index=0)
        with pytest.raises(ValidationError, match="non-finite recovery shift"):
            bad.serve([request])

    def test_quotes_fail_only_where_the_bad_knot_reaches(
        self, server, tape, serving_scenario
    ):
        """Row 3's NaN sits at its 2.03-year hazard knot.  A batch of
        quotes prices only the contracts it quotes, so quotes on the
        sub-year contracts complete with their clean-tape values; a quote
        on a longer contract fails naming its own book index; a reval of
        row 3 needs the whole book and fails as before."""
        knot = int(np.searchsorted(tape.hazard_times, 2.0))
        assert round(float(tape.hazard_times[knot]), 2) == 2.03
        hazard = tape.hazard_values.copy()
        hazard[3, knot] = np.nan
        bad = QuoteServer(
            server.book,
            replace(tape, hazard_values=hazard),
            scenario=serving_scenario,
            n_cards=2,
        )
        maturities = [o.maturity for o in server.book.options]
        short = [i for i, m in enumerate(maturities) if m < 1.0]
        longer = [i for i, m in enumerate(maturities) if m > 2.1]
        assert len(short) >= 2 and longer

        quotes = [
            PricingRequest(k, "quote", 0.0, 1.0, rows=(3,), option_index=i)
            for k, i in enumerate(short)
        ]
        served = bad.serve(quotes)  # one batch over the short contracts
        assert served.n_dispatches == 1
        values = {r.request_id: r.value for r in served.responses}
        assert [values[q.request_id] for q in quotes] == (
            server.price_individually(quotes)
        )
        for i in longer:
            with pytest.raises(ValidationError) as err:
                bad.serve(
                    [PricingRequest(0, "quote", 0.0, 1.0, rows=(3,),
                                    option_index=i)]
                )
            assert str(err.value) == (
                "non-positive risky annuity for scenario 3, "
                f"option index {i}: nan"
            )
        with pytest.raises(ValidationError) as err:
            bad.serve([PricingRequest(0, "reval", 0.0, 1.0, rows=(3,))])
        assert str(err.value) == (
            "non-positive risky annuity for scenario 3, option index 0: nan"
        )


class TestTapeTable:
    def test_a_batch_fails_only_on_cells_its_requests_read(
        self, server, tape, serving_scenario
    ):
        """Row 3's NaN at its 2.03-year hazard knot invalidates its
        longer contracts only.  A reval of clean row 1 batched with a
        quote of a sub-year contract on row 3 completes: the batch reads
        its requests' cells, not the whole book of every row it touches."""
        knot = int(np.searchsorted(tape.hazard_times, 2.0))
        hazard = tape.hazard_values.copy()
        hazard[3, knot] = np.nan
        bad = QuoteServer(
            server.book,
            replace(tape, hazard_values=hazard),
            scenario=serving_scenario,
            n_cards=2,
        )
        short = next(
            i for i, o in enumerate(server.book.options) if o.maturity < 1.0
        )
        mixed = [
            PricingRequest(0, "reval", 0.0, 1.0, rows=(1,)),
            PricingRequest(1, "quote", 0.0, 1.0, rows=(3,), option_index=short),
        ]
        served = bad.serve(mixed)
        assert served.n_dispatches == 1
        values = {r.request_id: r.value for r in served.responses}
        assert [values[0], values[1]] == server.price_individually(mixed)

    @pytest.fixture
    def knot_tape(self, tape):
        """Row 3 with a NaN at its 2.03-year hazard knot: its sub-year
        contracts stay valid, its longer ones do not."""
        hazard = tape.hazard_values.copy()
        hazard[3, int(np.searchsorted(tape.hazard_times, 2.0))] = np.nan
        return replace(tape, hazard_values=hazard)

    def test_a_bad_cell_fails_from_the_table_as_on_the_direct_path(
        self, server, knot_tape, serving_scenario
    ):
        """One batch over clean row 1 and bad row 3 fills both rows; a
        later batch that reads row 3's bad cells fails from the table
        with the message the direct path gives."""
        short = next(
            i for i, o in enumerate(server.book.options) if o.maturity < 1.0
        )
        mixed = [
            PricingRequest(0, "reval", 0.0, 1.0, rows=(1,)),
            PricingRequest(1, "quote", 0.0, 1.0, rows=(3,), option_index=short),
        ]
        reads_bad = [
            PricingRequest(0, "reval", 0.0, 1.0, rows=(1,)),
            PricingRequest(1, "reval", 0.0, 1.0, rows=(3,)),
        ]
        bad = QuoteServer(
            server.book, knot_tape, scenario=serving_scenario, n_cards=2
        )
        served = bad.serve(mixed)
        assert served.n_dispatches == 1
        assert [r.value for r in served.responses] == (
            server.price_individually(mixed)
        )
        with pytest.raises(ValidationError) as from_table:
            bad.serve(reads_bad)
        with pytest.raises(ValidationError) as direct:
            bad.price_individually(reads_bad)
        assert str(from_table.value) == str(direct.value)

    def test_a_partial_report_fails_the_fill(
        self, server, knot_tape, serving_scenario
    ):
        """A backend that prices a fill row by row reports only the
        failing row.  The server fails the batch, as a backend without
        the report does, rather than table row 3's surfaces and bad cells
        under row 1 and serve valid-looking quotes."""

        class RowByRow(VectorizedBackend):
            def price_rows(self, grid, rows, *, chunk_size=None):
                parts = []
                for row in rows:
                    parts.append(
                        super().price_rows(
                            grid, np.array([row]), chunk_size=chunk_size
                        )
                    )
                spreads, legs = zip(*parts)
                return np.vstack(spreads), tuple(map(np.vstack, zip(*legs)))

        bad = QuoteServer(
            server.book,
            knot_tape,
            scenario=serving_scenario,
            n_cards=2,
            backend=RowByRow(),
        )
        short = next(
            i for i, o in enumerate(server.book.options) if o.maturity < 1.0
        )
        quotes = [
            PricingRequest(k, "quote", 0.0, 1.0, rows=(r,), option_index=short)
            for k, r in enumerate((1, 3))
        ]
        with pytest.raises(ValidationError, match="for scenario 3, option"):
            bad.serve(quotes)

    @staticmethod
    def _nan_shift_server(server, tape, serving_scenario, rows, **kwargs):
        """A server over ``tape`` with a NaN recovery shift in ``rows``."""
        shifts = np.zeros(tape.n_scenarios)
        shifts[list(rows)] = np.nan
        return QuoteServer(
            server.book,
            replace(tape, recovery_shifts=shifts),
            scenario=serving_scenario,
            n_cards=2,
            **kwargs,
        )

    def test_a_bad_row_read_only_by_a_shed_request_spares_the_replay(
        self, server, tape, serving_scenario
    ):
        """The replay primes the rows its trace reads before the first
        arrival; the fill that meets row 3's NaN shift leaves its rows
        to the batches that read them.  Only a request shed on
        backpressure reads row 3, so the replay completes."""
        bad = self._nan_shift_server(
            server, tape, serving_scenario, [3],
            queue=BatchQueue(max_batch=1, linger_s=0.0), queue_depth=1,
        )
        trace = [
            PricingRequest(0, "quote", 0.0, 1.0, rows=(1,), option_index=0),
            PricingRequest(1, "quote", 0.0, 1.0, rows=(3,), option_index=0),
            PricingRequest(2, "quote", 0.5, 1.0, rows=(2,), option_index=0),
        ]
        served = bad.serve(trace)
        assert (served.n_completed, served.n_shed) == (2, 1)
        assert served.sheds[0].request.request_id == 1
        assert served.sheds[0].reason is ShedReason.BACKPRESSURE

    def test_a_failed_replay_names_the_bad_row_its_batch_reads(
        self, server, tape, serving_scenario
    ):
        """Rows 3 and 9 carry NaN shifts and row 9 is read first.  The
        primed fill of both fails naming row 3; the batch that reads row
        9 then fills it alone and names it."""
        bad = self._nan_shift_server(server, tape, serving_scenario, [3, 9])
        trace = [
            PricingRequest(0, "quote", 0.0, 1.0, rows=(9,), option_index=0),
            PricingRequest(1, "quote", 0.5, 1.5, rows=(3,), option_index=0),
        ]
        with pytest.raises(ValidationError) as err:
            bad.serve(trace)
        assert str(err.value) == "non-finite recovery shift for scenario 9: nan"

    def test_each_row_is_priced_once_across_replays(
        self, serving_scenario, tape, stream
    ):
        server = QuoteServer(
            make_book("heterogeneous", N_POSITIONS, seed=5),
            tape,
            scenario=serving_scenario,
            n_cards=2,
        )
        with KernelProfiler() as profiler:
            first = server.serve(stream)
            second = server.serve(stream)
        rows = {r for req in stream for r in req.rows}
        cells = profiler.registry.get("kernel_cells_total").value
        assert cells == len(rows) * N_POSITIONS
        assert [r.value for r in first.responses] == [
            r.value for r in second.responses
        ]


class TestLatencyStats:
    def test_empty_sample(self):
        s = LatencyStats.from_latencies(np.array([]))
        assert s.n == 0 and s.max_s == 0.0

    def test_percentile_order(self):
        s = LatencyStats.from_latencies(np.linspace(0.0, 1.0, 101))
        assert s.p50_s == pytest.approx(0.5)
        assert s.p95_s == pytest.approx(0.95)
        assert s.n == 101

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            LatencyStats.from_latencies(np.array([-1.0]))
