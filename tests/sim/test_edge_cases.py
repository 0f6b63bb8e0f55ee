"""Kernel edge cases: ordering guarantees, defuse semantics, conditions."""

import pytest

from repro.sim import Environment, Interrupt


@pytest.fixture()
def env():
    return Environment()


class TestUrgentOrdering:
    def test_process_start_precedes_same_instant_interrupt(self, env):
        """A process created and interrupted at the same instant must
        start before the interrupt is delivered (so the try/except in the
        process body can catch it)."""
        caught = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                caught.append("caught")

        p = env.process(victim(env))
        p.interrupt("immediate")
        env.run()
        assert caught == ["caught"]

    def test_interrupt_beats_same_instant_timeout(self, env):
        """An interrupt scheduled at time T runs before ordinary events
        already queued for T."""
        order = []

        def victim(env):
            try:
                yield env.timeout(5)
                order.append("timeout")
            except Interrupt:
                order.append("interrupt")

        def attacker(env, v):
            yield env.timeout(5)
            if v.is_alive:
                v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        # The victim's own 5s timeout was queued before the attacker ran,
        # so the timeout fires first — attacker sees a finished process
        # and must not crash (guarded by is_alive).
        assert order == ["timeout"]


class TestDefuseSemantics:
    def test_condition_defuses_losing_failures(self, env):
        """any_of resolving successfully defuses later constituent
        failures instead of crashing the run."""

        def failer(env):
            yield env.timeout(2)
            raise ValueError("late failure")

        def waiter(env):
            fast = env.timeout(1, value="fast")
            slow = env.process(failer(env))
            got = yield fast | slow
            return list(got.values())

        p = env.process(waiter(env))
        assert env.run(until=p) == ["fast"]
        env.run()  # the late failure must not surface

    def test_failed_until_event_reraises_not_crashes(self, env):
        def failer(env):
            yield env.timeout(1)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            env.run(until=env.process(failer(env)))


class TestZeroDelay:
    def test_zero_timeout_chains_preserve_order(self, env):
        log = []

        def proc(env, tag):
            for i in range(3):
                yield env.timeout(0)
                log.append((tag, i))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        # Round-robin interleaving: FIFO among same-instant events.
        assert log == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)
        ]

    def test_immediate_succeed_runs_before_timeouts(self, env):
        log = []
        ev = env.event()

        def waiter(env):
            yield ev
            log.append("event")

        def timed(env):
            yield env.timeout(0)
            log.append("timeout")

        env.process(waiter(env))
        env.process(timed(env))
        ev.succeed()
        env.run()
        assert set(log) == {"event", "timeout"}


class TestProcessValueSemantics:
    def test_generator_return_none_by_default(self, env):
        def proc(env):
            yield env.timeout(1)

        assert env.run(until=env.process(proc(env))) is None

    def test_nested_yield_from(self, env):
        def inner(env):
            yield env.timeout(1)
            return 21

        def outer(env):
            value = yield from inner(env)
            return value * 2

        assert env.run(until=env.process(outer(env))) == 42


class TestSchedulerHousekeeping:
    def test_schedule_at_in_the_past_raises(self, env):
        def proc(env):
            yield env.timeout(5.0)
            env.schedule_at(env.event(), 4.0)

        env.process(proc(env))
        with pytest.raises(ValueError, match="past"):
            env.run()

    def test_schedule_at_now_is_allowed(self, env):
        fired = []

        def proc(env):
            yield env.timeout(5.0)
            ev = env.event()
            ev._ok = True
            ev.callbacks.append(lambda _: fired.append(env.now))
            env.schedule_at(ev, env.now)

        env.process(proc(env))
        env.run()
        assert fired == [5.0]
