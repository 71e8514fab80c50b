"""The background dispatcher: drains the job queue through the engine.

One daemon thread calls :meth:`SweepService.process_next
<repro.service.app.SweepService.process_next>` in a loop: claim the next
queued job, run its specs through the shared
:class:`~repro.experiments._engine.ExperimentEngine` (persistent warm
pool, retry/degrade recovery), persist the result blob, journal the
terminal state.  The loop parks on an event when the queue is empty and
is woken by ``submit``, so dispatch latency is bounded by neither the
poll interval nor a busy wait.
"""

from __future__ import annotations

import threading
from typing import Optional


class Dispatcher:
    """Daemon thread pumping ``service.process_next()`` until stopped."""

    def __init__(self, service, idle_poll_s: float = 0.5):
        self.service = service
        self.idle_poll_s = idle_poll_s
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-service-dispatcher",
                                        daemon=True)
        self._thread.start()

    def wake(self) -> None:
        """Nudge the loop (a job was just submitted)."""
        self._wake.set()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Ask the loop to exit and wait for the in-flight job to finish."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            worked = False
            try:
                worked = self.service.process_next()
            except Exception:  # noqa: BLE001 — a job failure must not
                # kill the dispatcher; process_next records per-job
                # errors itself, so anything reaching here is unexpected
                # but survivable.
                pass
            if worked:
                continue  # drain back-to-back jobs without parking
            self._wake.wait(timeout=self.idle_poll_s)
            self._wake.clear()
