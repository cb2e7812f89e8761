"""Unit tests for the size-or-linger micro-batch coalescer."""

import numpy as np
import pytest

from repro.cluster.batching import BatchQueue
from repro.errors import ValidationError
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.request import PricingRequest, ShedRecord


def req(rid, arrival, *, deadline=None, priority=0, row=0) -> PricingRequest:
    return PricingRequest(
        request_id=rid,
        kind="quote",
        arrival_s=arrival,
        deadline_s=deadline if deadline is not None else arrival + 10.0,
        rows=(row,),
        option_index=0,
        priority=priority,
    )


def coalescer(max_batch=4, linger_s=1.0) -> MicroBatchCoalescer:
    return MicroBatchCoalescer(BatchQueue(max_batch=max_batch, linger_s=linger_s))


class TestSizeTrigger:
    def test_full_queue_dispatches_immediately(self):
        c = coalescer(max_batch=3)
        assert c.offer(req(0, 0.0)) == []
        assert c.offer(req(1, 0.1)) == []
        batches = c.offer(req(2, 0.2))
        assert len(batches) == 1
        assert batches[0].formed_s == 0.2
        assert [r.request_id for r in batches[0].requests] == [0, 1, 2]
        assert c.n_pending == 0

    def test_batch_ids_increment(self):
        c = coalescer(max_batch=1, linger_s=0.0)
        ids = [c.offer(req(i, i * 0.1))[0].batch_id for i in range(3)]
        assert ids == [0, 1, 2]


class TestLingerTrigger:
    def test_oldest_request_bounds_the_wait(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0))
        c.offer(req(1, 0.5))
        # Arrival at 2.0 fires the timer that expired at 0.0 + 1.0.
        batches = c.offer(req(2, 2.0))
        assert len(batches) == 1
        assert batches[0].formed_s == 1.0
        assert [r.request_id for r in batches[0].requests] == [0, 1]
        assert c.n_pending == 1

    def test_causality_of_linger_sweep(self):
        """A linger batch formed at t only carries requests arrived by t."""
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0))
        batches = c.offer(req(1, 1.5))  # after the timer at 1.0 fired
        batches += c.offer(req(2, 3.0))
        # Two batches: {0} at t=1.0, {1} at t=2.5 — request 1 never rides
        # the timer that expired before it arrived.
        assert [b.formed_s for b in batches] == [1.0, 2.5]
        assert [r.request_id for b in batches for r in b.requests] == [0, 1]

    def test_flush_drains_at_linger_expiry(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0))
        c.offer(req(1, 0.2))
        batches = c.flush()
        assert len(batches) == 1
        assert batches[0].formed_s == 1.0
        assert c.n_pending == 0


class TestPriorityAndDeadline:
    def test_priority_orders_the_batch(self):
        c = coalescer(max_batch=2, linger_s=1.0)
        c.offer(req(0, 0.0, priority=0))
        batches = c.offer(req(1, 0.1, priority=5))
        assert len(batches) == 1
        assert [r.request_id for r in batches[0].requests] == [1, 0]

    def test_equal_priority_keeps_arrival_order(self):
        c = coalescer(max_batch=2, linger_s=1.0)
        c.offer(req(0, 0.0, priority=1))
        batches = c.offer(req(1, 0.1, priority=1))
        assert [r.request_id for r in batches[0].requests] == [0, 1]
        assert c.n_pending == 0

    def test_expired_requests_are_shed_not_priced(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=0.5))  # expires before the timer
        c.offer(req(1, 0.1))
        batches = c.flush()
        assert [r.request_id for r in batches[0].requests] == [1]
        assert len(c.sheds) == 1
        assert c.sheds[0].request.request_id == 0
        assert c.sheds[0].reason == "deadline"

    def test_all_expired_forms_no_batch(self):
        c = coalescer(max_batch=100, linger_s=1.0)
        c.offer(req(0, 0.0, deadline=0.5))
        assert c.flush() == []
        assert len(c.sheds) == 1


class TestOrdering:
    def test_out_of_order_offer_rejected(self):
        c = coalescer()
        c.offer(req(0, 1.0))
        with pytest.raises(ValidationError, match="arrival order"):
            c.offer(req(1, 0.5))

    def test_advance_ratchets_the_time_guard(self):
        """offer() after advance(t) cannot rewind simulated time."""
        c = coalescer(max_batch=100, linger_s=1.0)
        c.advance(10.0)
        with pytest.raises(ValidationError, match="arrival order"):
            c.offer(req(0, 5.0))

    def test_reap_sheds_expired_pending(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=1.0))
        c.offer(req(1, 0.0, deadline=100.0))
        assert c.reap(2.0) == 1
        assert c.n_pending == 1
        assert c.sheds[0].request.request_id == 0
        assert c.sheds[0].reason == "deadline"
        # The survivor still prices normally.
        batches = c.flush()
        assert [r.request_id for r in batches[0].requests] == [1]

    def test_reap_tracks_the_earliest_deadline(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=3.0))
        c.offer(req(1, 0.5, deadline=2.0))
        assert c.reap(1.9) == 0
        assert c.reap(2.0) == 1  # a deadline at ``now`` has passed
        assert c.reap(2.5) == 0
        c.offer(req(2, 2.6, deadline=2.8))  # earlier than request 0's
        assert c.reap(2.9) == 1
        assert c.reap(3.0) == 1
        assert [s.request.request_id for s in c.sheds] == [1, 2, 0]
        assert c.n_pending == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_reap_equals_a_full_scan_every_call(self, seed):
        """Skipping reap's scan changes no batch and no shed, in order."""

        class Scanning(MicroBatchCoalescer):
            def reap(self, now):
                expired = [r for r in self._pending if r.deadline_s <= now]
                self._sheds.extend(ShedRecord(r, now, "deadline") for r in expired)
                self._pending = [r for r in self._pending if r.deadline_s > now]
                return len(expired)

        def arrive(c, r):
            """The lane's per-arrival sequence: linger sweep, reap, offer."""
            formed = c.advance(r.arrival_s)
            reaped = c.reap(r.arrival_s)
            return formed + c.offer(r), reaped

        rng = np.random.default_rng(seed)
        queue = BatchQueue(max_batch=int(rng.integers(2, 9)), linger_s=0.5)
        fast, slow = MicroBatchCoalescer(queue), Scanning(queue)
        t = 0.0
        for rid in range(300):
            t += float(rng.exponential(0.05))
            r = req(
                rid, t, deadline=t + float(rng.uniform(0.01, 0.6)),
                priority=int(rng.integers(0, 3)),
            )
            assert arrive(fast, r) == arrive(slow, r)
        assert fast.flush() == slow.flush()
        assert fast.sheds == slow.sheds
        assert fast.sheds, "the trace should expire some requests"

    def test_sheds_since_reads_only_new_records(self):
        c = coalescer(max_batch=100, linger_s=10.0)
        c.offer(req(0, 0.0, deadline=1.0))
        c.offer(req(1, 0.0, deadline=2.0))
        c.reap(1.5)
        assert [s.request.request_id for s in c.sheds_since(0)] == [0]
        c.reap(2.5)
        assert [s.request.request_id for s in c.sheds_since(1)] == [1]
        assert c.sheds_since(2) == []
        assert tuple(c.sheds_since(0)) == c.sheds

    def test_advance_without_due_timers_is_empty(self):
        c = coalescer(max_batch=100, linger_s=5.0)
        c.offer(req(0, 0.0))
        assert c.advance(1.0) == []
        assert c.n_pending == 1
