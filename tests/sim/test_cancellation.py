"""Lazy event cancellation: tombstones, compaction, and abandoned timers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.events import race


@pytest.fixture()
def env():
    return Environment()


class TestCancelSemantics:
    def test_cancelled_timer_never_fires(self, env):
        fired = []
        t = env.timeout(5)
        assert t.callbacks is not None
        t.callbacks.append(lambda e: fired.append(env.now))
        t.cancel()
        env.run()
        assert fired == []

    def test_skip_does_not_advance_clock_or_count(self, env):
        env.timeout(1)
        late = env.timeout(9)
        late.cancel()
        env.run()
        # The cancelled timer at t=9 must leave no trace: the clock stays
        # at the last live event and the processed count excludes it.
        assert env.now == 1
        assert env.events_processed == 1

    def test_cancel_is_idempotent(self, env):
        t = env.timeout(1)
        t.cancel()
        t.cancel()  # no-op
        assert t.cancelled
        env.run()

    def test_cancel_processed_event_is_noop(self, env):
        t = env.timeout(1)
        env.run()
        t.cancel()
        assert not t.cancelled

    def test_cancel_untriggered_event_raises(self, env):
        with pytest.raises(RuntimeError, match="untriggered"):
            env.event().cancel()

    def test_cancel_failed_event_raises(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        ev.defuse()
        with pytest.raises(RuntimeError, match="failed"):
            ev.cancel()

    def test_len_and_peek_exclude_tombstones(self, env):
        first = env.timeout(1)
        env.timeout(2)
        assert len(env) == 2
        first.cancel()
        assert len(env) == 1
        assert env.peek() == 2

    def test_race_loser_can_be_cancelled(self, env):
        def proc(env):
            winner = env.timeout(1)
            loser = env.timeout(100)
            yield race(env, winner, loser)
            loser.cancel()
            return env.now

        assert env.run(until=env.process(proc(env))) == 1
        env.run()
        assert env.now == 1  # the loser never advanced the clock


class TestCompaction:
    def test_compaction_drops_tombstones_and_preserves_order(self, env):
        threshold = Environment.COMPACT_MIN_TOMBSTONES
        keep = [env.timeout(i + 0.5) for i in range(5)]
        doomed = [env.timeout(1000 + i) for i in range(2 * threshold)]
        for t in doomed:
            t.cancel()
        # Tombstones dominated the queue at some point, so the heap must
        # have compacted at least once — the raw queue is strictly smaller
        # than everything ever scheduled, while the live count is exact.
        assert len(env._queue) < len(keep) + len(doomed)
        assert len(env) == len(keep)
        order = []
        while len(env):
            env.step()
            order.append(env.now)
        assert order == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_compaction_when_every_entry_is_a_tombstone(self, env):
        doomed = [
            env.timeout(10.0 + i)
            for i in range(Environment.COMPACT_MIN_TOMBSTONES)
        ]
        for timer in doomed:
            timer.cancel()
        # The last cancel reaches the floor with tombstones filling the
        # whole heap: one compaction empties it.
        assert env.compactions_run == 1
        assert env._queue == []
        assert len(env) == 0
        assert env.peek() == float("inf")

    def test_no_compaction_below_minimum(self, env):
        env.timeout(1)
        doomed = env.timeout(2)
        doomed.cancel()
        # One tombstone is half the queue but far below the floor.
        assert env._tombstones == 1
        assert len(env._queue) == 2


class TestAbandonedTimers:
    def test_interrupt_cancels_sole_subscriber_timeout(self, env):
        def sleeper(env):
            try:
                yield env.timeout(1000)
            except Interrupt:
                pass

        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt("done")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        # The abandoned 1000 s timer must not keep the clock running.
        assert env.now == 1

    def test_interrupt_keeps_shared_timeout_alive(self, env):
        arrivals = []

        def waiter(env, shared):
            try:
                yield shared
            except Interrupt:
                return
            arrivals.append(env.now)

        shared = env.timeout(10)
        victim = env.process(waiter(env, shared))
        env.process(waiter(env, shared))

        def interrupter(env):
            yield env.timeout(1)
            victim.interrupt()

        env.process(interrupter(env))
        env.run()
        # The second waiter still depends on the timer: it must fire.
        assert arrivals == [10]
        assert env.now == 10

    def test_heap_stays_small_after_many_interrupted_sleepers(self, env):
        def heartbeat(env):
            try:
                while True:
                    yield env.timeout(3.0)
            except Interrupt:
                return

        def driver(env):
            for _ in range(100):
                p = env.process(heartbeat(env))
                yield env.timeout(0.01)
                p.interrupt("owner finished")

        env.run(until=env.process(driver(env)))
        # Every heartbeat left a pending 3 s timer when interrupted; with
        # cancellation they are tombstoned (and compacted), so the live
        # schedule does not grow with the number of abandoned timers —
        # only the final heartbeat's own completion event may remain.
        assert len(env) <= 1
        env.run()
        assert len(env) == 0
        # Running dry never reached any abandoned 3 s timer.
        assert env.now < 3.0


@given(
    spec=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),  # delay
            st.booleans(),  # cancelled before the run?
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_random_cancellation_matches_reference(spec):
    """Random schedules + cancellations: exactly the live timers fire, in
    (time, creation) order, and cancelled ones leave no trace on the
    clock or the processed count."""
    env = Environment()
    log = []
    for index, (delay, cancel) in enumerate(spec):
        timer = env.timeout(delay, value=index)
        if cancel:
            timer.cancel()
        else:
            timer.callbacks.append(lambda ev: log.append((ev.value, env.now)))
    env.run()

    live = sorted(
        (delay, index)
        for index, (delay, cancel) in enumerate(spec)
        if not cancel
    )
    assert log == [(index, delay) for delay, index in live]
    assert env.now == (live[-1][0] if live else 0.0)
    assert env.events_processed == len(live)
