"""The drain rule: ``run()`` ends at the last event someone waits on.

An entry is *abandoned* when its event succeeded and has no callbacks
(a timer whose waiter was interrupted).  Abandoned entries ahead of live
work fire harmlessly; once only abandoned entries remain, a drain drops
them without advancing the clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt


@pytest.fixture()
def env():
    return Environment()


def _sleeper(env, delay):
    try:
        yield env.timeout(delay)
    except Interrupt:
        pass


def _interrupt_at(env, victim, at):
    yield env.timeout(at)
    victim.interrupt("done")


class TestDrainEnd:
    def test_trailing_abandoned_timer_is_dropped(self, env):
        victim = env.process(_sleeper(env, 1000))
        env.process(_interrupt_at(env, victim, 1))
        env.run()
        # The interrupted sleeper's 1000 s timer holds no waiter.
        assert env.now == 1
        assert len(env) == 0
        assert env.peek() == float("inf")

    def test_abandoned_entries_alone_drain_at_once(self, env):
        for i in range(10):
            env.timeout(5.0 + i)  # nobody waits on any of them
        # Until a drain reaches them, abandoned entries stay scheduled.
        assert len(env) == 10
        assert env.peek() == 5.0
        env.run()
        assert env.now == 0
        assert len(env) == 0
        assert env.peek() == float("inf")
        assert env.events_processed == 0

    def test_abandoned_timer_ahead_of_live_work_fires_harmlessly(self, env):
        fired = []
        env.timeout(2)  # abandoned, but live work lies behind it
        env.timeout(5).callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        assert fired == [5]
        assert env.now == 5
        assert env.events_processed == 2

    def test_unhandled_failure_at_the_tail_still_raises(self, env):
        env.timeout(7)
        failure = env.event()
        failure._ok = False
        failure._value = RuntimeError("boom")
        env.schedule_at(failure, 8.0)
        env.timeout(9)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 8

    def test_dropped_events_count_as_processed(self, env):
        def quick(env):
            yield env.timeout(1)
            return "ok"

        done = env.process(quick(env))  # finishes with nobody waiting
        env.timeout(5)
        env.run()
        assert env.now == 1
        assert done.processed

        def late(env):
            return (yield done)

        # A waiter arriving after the drain resumes at once.
        assert env.run(until=env.process(late(env))) == "ok"
        assert env.now == 1


class TestAbandonedTimers:
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

    def test_many_interrupted_heartbeats_do_not_hold_the_drain(self, env):
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
        env.run()
        assert len(env) == 0
        # Running dry never reached any abandoned 3 s timer.
        assert env.now < 3.0


@given(
    spec=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),  # delay
            st.booleans(),  # watched by a callback?
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_random_drain_ends_at_the_last_watched_timer(spec):
    """Random watched and abandoned timers: every watched one fires in
    (time, creation) order, abandoned ones ahead of it fire too, and the
    drain stops at the last watched one with nothing left pending."""
    env = Environment()
    log = []
    for index, (delay, watched) in enumerate(spec):
        timer = env.timeout(delay, value=index)
        if watched:
            timer.callbacks.append(lambda ev: log.append((ev.value, env.now)))
    env.run()

    order = sorted((delay, index) for index, (delay, _) in enumerate(spec))
    live = [(delay, index) for delay, index in order if spec[index][1]]
    assert log == [(index, delay) for delay, index in live]
    assert env.now == (live[-1][0] if live else 0.0)
    assert env.events_processed == (order.index(live[-1]) + 1 if live else 0)
    assert len(env) == 0
