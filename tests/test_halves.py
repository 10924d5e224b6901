"""smoe.halves.map_halves: order, the serial loop's error, stopping, joining."""

import sys
import threading
import time

import pytest

from smoe.halves import map_halves

WAIT_S = 10.0  # a bound on every wait, far above what any of them takes


class Recorder:
    """An fn for map_halves that records each call's item, whether it ran on
    the calling thread, and whether an item had failed when it began. On the
    calling thread, an item of `hold_at` waits for the event `hold_until`
    names before it goes on."""

    def __init__(self, fail_at=(), hold_at=(), hold_until="failed", delay=0.0,
                 error=ValueError):
        self.calls = []
        self.failed = threading.Event()
        self.upper_started = threading.Event()
        self.fail_at, self.hold_at, self.hold_until = fail_at, hold_at, hold_until
        self.delay, self.error = delay, error
        self.errors = {}

    def __call__(self, x):
        on_caller = threading.current_thread() is threading.main_thread()
        self.calls.append((x, on_caller, self.failed.is_set()))
        if not on_caller:
            self.upper_started.set()
        if on_caller and x in self.hold_at:
            assert getattr(self, self.hold_until).wait(WAIT_S)
        if x in self.fail_at:
            self.errors[x] = self.error(f"item {x}")
            self.failed.set()
            raise self.errors[x]
        time.sleep(self.delay)
        return 10 * x

    def mapped(self, on_caller: bool, late: bool | None = None) -> list:
        """The items one side began: all of them, or those begun after
        (late=True) or before (late=False) the first failure."""
        return sorted(x for x, caller, after in self.calls
                      if caller == on_caller and late in (None, after))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8])
def test_results_come_back_in_input_order_lower_half_on_the_caller(n):
    threads = threading.active_count()
    fn = Recorder()
    assert map_halves(fn, list(range(n))) == [10 * x for x in range(n)]
    assert threading.active_count() == threads
    split = (n + 1) // 2 if n >= 2 else n
    assert fn.mapped(on_caller=True) == list(range(split))
    assert fn.mapped(on_caller=False) == list(range(split, n))


@pytest.mark.parametrize("n, started", [(0, 0), (1, 0), (2, 1), (5, 1)])
def test_only_two_or_more_items_start_a_thread(n, started, monkeypatch):
    starts, real = [], threading.Thread.start

    def recording(self):
        starts.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    assert map_halves(lambda x: -x, range(n)) == [-x for x in range(n)]
    assert len(starts) == started


def test_both_halves_fail_the_lower_half_error_is_raised():
    threads = threading.active_count()
    # the lower half fails at its last item, after the upper half failed
    fn = Recorder(fail_at={2, 3}, hold_at={2})
    with pytest.raises(ValueError) as info:
        map_halves(fn, [0, 1, 2, 3, 4])
    assert info.value is fn.errors[2]
    assert threading.active_count() == threads


def test_upper_half_failure_alone_is_raised_after_the_lower_half_ran_on():
    threads = threading.active_count()
    # a serial loop maps every lower item before the failing upper one, so
    # the lower half runs on: items 2 and 3 at least begin after the failure
    fn = Recorder(fail_at={4}, hold_at={1})
    with pytest.raises(ValueError) as info:
        map_halves(fn, list(range(8)))
    assert info.value is fn.errors[4]
    assert fn.mapped(on_caller=True) == [0, 1, 2, 3]
    assert {2, 3} <= set(fn.mapped(on_caller=True, late=True))
    assert threading.active_count() == threads


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_lower_half_failure_stops_the_helper_after_at_most_one_more_item(error):
    threads = threading.active_count()
    # the upper half's items are slow, so an unstopped helper would map all 8
    fn = Recorder(fail_at={0}, hold_at={0}, hold_until="upper_started", delay=0.02, error=error)
    with pytest.raises(error) as info:
        map_halves(fn, list(range(16)))
    assert info.value is fn.errors[0]
    assert fn.mapped(on_caller=False, late=False)[0] == 8
    assert len(fn.mapped(on_caller=False, late=True)) <= 1
    assert threading.active_count() == threads


def test_an_interrupt_while_waiting_for_the_helper_stops_and_joins_it(monkeypatch):
    threads = threading.active_count()
    upper_started, calls = threading.Event(), []
    real, joins = threading.Thread.join, []

    def interrupted_once(self, timeout=None):
        # the caller's half is done; Ctrl-C lands while it waits for the helper
        joins.append(self)
        if len(joins) == 1:
            assert upper_started.wait(WAIT_S)
            raise KeyboardInterrupt
        real(self, timeout)

    def fn(x):  # the upper half's items are slow: unstopped, the helper maps 8
        calls.append(x)
        if x >= 8:
            upper_started.set()
            time.sleep(0.02)
        return x

    monkeypatch.setattr(threading.Thread, "join", interrupted_once)
    with pytest.raises(KeyboardInterrupt):
        map_halves(fn, list(range(16)))
    monkeypatch.undo()
    assert len(joins) == 2 and not joins[0].is_alive()
    assert threading.active_count() == threads
    upper = [x for x in calls if x >= 8]
    time.sleep(0.1)
    assert [x for x in calls if x >= 8] == upper and len(upper) <= 2


def test_concurrent_maps_under_a_short_switch_interval_keep_their_own_results():
    # four callers and their helpers: eight threads on fewer cores, switching often
    outs, interval = {}, sys.getswitchinterval()

    def caller(k):
        outs[k] = map_halves(lambda x: (k, x), range(500))

    callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert outs == {k: [(k, x) for x in range(500)] for k in range(4)}
