"""The ``service`` executor backend: sweeps through the always-on daemon.

Two modes, selected by ``--coordinator``:

* **Connected** (``--backend service --coordinator HOST:PORT``): the
  sweep becomes one *job* on a running ``repro serve`` daemon, sharing
  its worker fleet, fair scheduler and network-served record store with
  every other submitter.
* **Self-hosted** (no coordinator): an ephemeral daemon is started on a
  background thread with local workers and a private temporary store,
  the job runs against it, and the daemon is drained and the store
  removed afterwards.  This keeps ``--backend service`` usable in tests
  and determinism gates without external processes -- and without ever
  touching the repo's own ``.repro_cache``.  It needs at least one
  local worker: nobody else knows its ephemeral address.

Multi-host sweeps run a long-lived daemon instead (``repro serve --host
0.0.0.0 --workers 0``), with ``repro worker --coordinator H:P
--reconnect`` on each host and ``--backend service --coordinator H:P``
on the submitting side.

Either way the records come back keyed by input index and pass through
the same ``execute_cell`` path as every other backend, so a service
sweep is byte-identical to a serial one (gated in
``scripts/check_determinism.py``).
"""

from __future__ import annotations

import shutil
import tempfile

from repro.experiments.backends.base import ExecutorBackend, merge_counters
from repro.util.validation import ReproError


class ServiceBackend(ExecutorBackend):
    """Submit the sweep as one job to a (possibly ephemeral) daemon."""

    name = "service"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.workers == 0 and not self.coordinator:
            raise ReproError(
                "service backend needs >= 1 local worker (got 0) unless "
                "--coordinator names a running daemon for external "
                "workers to join"
            )

    def run(self, cells, on_record=None):
        payloads = [cell.payload() for cell in cells]
        if self.coordinator:
            return self._run_connected(self.coordinator, payloads, on_record)
        return self._run_self_hosted(payloads, on_record)

    def _run_connected(self, coordinator, payloads, on_record=None):
        # Imported here, not at module top: the daemon imports this
        # package's batch planner, so a top-level import would be
        # circular when repro.service loads first.
        from repro.service.client import ServiceClient

        client = ServiceClient(coordinator)
        try:
            records, counters = client.run_job(
                payloads, chunk=self.chunk_size, on_record=on_record
            )
        finally:
            client.close()
        merge_counters(self.counters, counters)
        return records

    def _run_self_hosted(self, payloads, on_record=None):
        from repro.service.daemon import SweepService, start_service_thread

        workers = (
            self.workers
            if self.workers is not None
            else SweepService.DEFAULT_WORKERS
        )
        cache_dir = tempfile.mkdtemp(prefix="repro-service-")
        handle = start_service_thread(workers=workers, cache_dir=cache_dir)
        try:
            return self._run_connected(handle.coordinator, payloads, on_record)
        finally:
            handle.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)


__all__ = ["ServiceBackend"]
