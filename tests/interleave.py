"""Force two threads to leave a lock-guarded count in one order.

The gauge regressions need one interleaving: the first thread to leave
has computed its count and is about to publish it when the second
leaves. :func:`leave_together` produces it with events alone: the
gauge's lock is swapped for one that parks the first publisher before
it writes, and the owner's lock for one that reports contention, so
the second thread either publishes (the count was published outside
the owner's lock) or is seen waiting for that lock (published under
it). Only then is the first released. Every wait is bounded, so a
regression fails instead of hanging.
"""

import threading

TIMEOUT_S = 10.0


class _ParkFirstPublisher:
    """An instrument lock whose first entry parks until released; any
    later entry reports that the second thread got as far as
    publishing."""

    def __init__(self, progressed: threading.Event) -> None:
        self._lock = threading.Lock()
        self._progressed = progressed
        self._armed = True
        self.parked = threading.Event()
        self.release = threading.Event()

    def __enter__(self):
        if self._armed:
            self._armed = False
            self.parked.set()
            self.release.wait(TIMEOUT_S)
        else:
            self._progressed.set()
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class _ReportContention:
    """The owner's lock, reporting when a thread has to wait for it."""

    def __init__(self, inner, progressed: threading.Event) -> None:
        self._inner = inner
        self._progressed = progressed

    def __enter__(self):
        if not self._inner.acquire(blocking=False):
            self._progressed.set()
            self._inner.acquire()
        return self

    def __exit__(self, *exc_info):
        self._inner.release()


def leave_together(first, second, instrument, owner) -> None:
    """Run ``first`` until it publishes to ``instrument`` and park it
    there; run ``second`` until it publishes or waits for ``owner``'s
    ``_lock``; then release ``first`` and wait for both."""
    progressed = threading.Event()
    gate = _ParkFirstPublisher(progressed)
    instrument._lock = gate
    owner._lock = _ReportContention(owner._lock, progressed)
    leaving = threading.Thread(target=first)
    leaving.start()
    assert gate.parked.wait(TIMEOUT_S), "first thread never published"
    following = threading.Thread(target=second)
    following.start()
    assert progressed.wait(TIMEOUT_S), "second thread made no progress"
    gate.release.set()
    leaving.join(TIMEOUT_S)
    following.join(TIMEOUT_S)
    assert not leaving.is_alive() and not following.is_alive()
