"""Tests for FCFS + token/block-budget admission (repro.serve.scheduler)."""

import numpy as np
import pytest

from repro.serve.request import GenerationRequest
from repro.serve import ServeConfig
from repro.serve.scheduler import QueueFullError, Scheduler


class _Seq:
    """Minimal stand-in for the engine's sequence state."""

    def __init__(self, rid, prompt_len=8, max_tokens=8):
        self.request = GenerationRequest(
            rid, np.arange(1, prompt_len + 1), max_tokens=max_tokens
        )

    @property
    def prefill_len(self):
        return int(self.request.prompt.size)


def ids(seqs):
    return [s.request.request_id for s in seqs]


class TestBatchCap:
    def test_admits_up_to_max_batch(self):
        sch = Scheduler(ServeConfig(max_batch_size=2))
        for i in range(4):
            sch.submit(_Seq(f"r{i}"))
        assert ids(sch.admit()) == ["r0", "r1"]
        assert sch.queue_depth == 2 and sch.n_running == 2

    def test_admission_after_release(self):
        sch = Scheduler(ServeConfig(max_batch_size=2))
        for i in range(3):
            sch.submit(_Seq(f"r{i}"))
        admitted = sch.admit()
        assert sch.admit() == []          # full: nothing more admitted
        sch.release(admitted[0])          # one finishes mid-batch
        assert ids(sch.admit()) == ["r2"]
        assert sch.queue_depth == 0 and sch.n_running == 2

    def test_fcfs_order_preserved(self):
        sch = Scheduler(ServeConfig(max_batch_size=1))
        for i in range(3):
            sch.submit(_Seq(f"r{i}"))
        order = []
        while sch.has_work():
            batch = sch.admit()
            order += ids(batch)
            for s in batch:
                sch.release(s)
        assert order == ["r0", "r1", "r2"]


class TestTokenBudget:
    def test_budget_limits_admission(self):
        # Each request's worst case is 8 + 8 = 16 tokens.
        sch = Scheduler(ServeConfig(max_batch_size=8, max_tokens_in_flight=40))
        for i in range(4):
            sch.submit(_Seq(f"r{i}"))
        assert ids(sch.admit()) == ["r0", "r1"]   # 32 fits, 48 would not
        assert sch.tokens_in_flight == 32

    def test_head_of_line_blocks_smaller_requests(self):
        sch = Scheduler(ServeConfig(max_batch_size=8, max_tokens_in_flight=40))
        sch.submit(_Seq("big", prompt_len=16, max_tokens=16))    # 32
        sch.submit(_Seq("huge", prompt_len=24, max_tokens=12))   # 36
        sch.submit(_Seq("small", prompt_len=2, max_tokens=2))    # 4, would fit
        assert ids(sch.admit()) == ["big"]   # "huge" blocks "small" (FCFS)

    def test_oversized_request_rejected_at_submit(self):
        # Queued, it would reach the FCFS head and wedge the queue
        # forever; rejection must happen before it is ever enqueued.
        sch = Scheduler(ServeConfig(max_batch_size=8, max_tokens_in_flight=10))
        with pytest.raises(ValueError, match="max_tokens_in_flight"):
            sch.submit(_Seq("too-big", prompt_len=16, max_tokens=16))
        assert sch.queue_depth == 0
        sch.submit(_Seq("ok", prompt_len=3, max_tokens=3))
        assert ids(sch.admit()) == ["ok"]   # queue still serviceable

    def test_budget_frees_on_release(self):
        sch = Scheduler(ServeConfig(max_batch_size=8, max_tokens_in_flight=16))
        sch.submit(_Seq("a"))
        sch.submit(_Seq("b"))
        (a,) = sch.admit()
        assert sch.admit() == []
        sch.release(a)
        assert ids(sch.admit()) == ["b"]


class TestQueueBound:
    def test_queue_full_rejects_at_submit(self):
        sch = Scheduler(ServeConfig(max_batch_size=1, max_queue_len=2))
        sch.submit(_Seq("r0"))
        sch.submit(_Seq("r1"))
        with pytest.raises(QueueFullError, match="max_queue_len"):
            sch.submit(_Seq("r2"))
        assert sch.queue_depth == 2

    def test_admission_frees_queue_space(self):
        sch = Scheduler(ServeConfig(max_batch_size=1, max_queue_len=1))
        sch.submit(_Seq("r0"))
        with pytest.raises(QueueFullError):
            sch.submit(_Seq("r1"))
        sch.admit()
        sch.submit(_Seq("r1"))          # slot freed by admission
        assert sch.queue_depth == 1


class TestBlockAwareAdmission:
    def test_admission_keyed_on_free_blocks(self):
        """With a gauge bound, the head needs its prefill pages free —
        not its worst-case prompt+max_tokens footprint."""
        free = {"n": 1}
        sch = Scheduler(ServeConfig(max_batch_size=8))
        sch.bind_block_gauge(lambda: free["n"], block_tokens=8)
        sch.submit(_Seq("a", prompt_len=8, max_tokens=100))   # 1 page prefill
        sch.submit(_Seq("b", prompt_len=8, max_tokens=100))
        assert sch.admit_one().request.request_id == "a"
        free["n"] = 0                       # a's prefill took the page
        assert sch.admit_one() is None      # b: no free page left
        free["n"] = 1
        assert sch.admit_one().request.request_id == "b"

    def test_requeue_front_preserves_fcfs(self):
        """Preempted sequences re-enter at the queue head, ahead of
        later arrivals; youngest-first preemption restores order."""
        sch = Scheduler(ServeConfig(max_batch_size=4))
        for i in range(3):
            sch.submit(_Seq(f"r{i}"))
        admitted = sch.admit()
        sch.submit(_Seq("late"))
        # Engine preempts youngest-first: r2, then r1.
        sch.requeue_front(admitted[2])
        sch.requeue_front(admitted[1])
        assert sch.n_running == 1
        assert ids(sch.admit()) == ["r1", "r2", "late"]


class TestConfigValidation:
    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch_size=0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(max_tokens_in_flight=0)

    def test_zero_queue_len_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(max_queue_len=0)
