"""One benchmark workload in a fresh process: set up, measure, verify.

``bench/run.py`` launches this file once per set-up sample and once per
measured pass, with every ``REPRO_*`` variable removed from the
environment so the program's defaults are what gets measured::

    python bench/workload.py --workload fig8-cold --seed 7 --seconds 20 \\
        --mode full --trace 0 --tmp DIR --out result.json

``--mode setup`` stops once set-up is done; ``--mode full`` then runs the
timed phase for ``--seconds`` (closed loop: the next operation starts when
the previous one returned), checks the records and writes a JSON result.
With ``--trace 1`` the layer wrappers of ``spans.py`` are installed and
recording only while operations run.  The process samples the host
probe (``host.py``) around set-up and after every operation; the result
carries each latency both as measured and divided by the host's slowness
around it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import spans
from host import SETUP_SAMPLES, HostProbe, normalise
from metrics import BENCH_DIR, canonical, digest

#: The Fig. 8 grid: CG fabrics 0..4 x PRCs 0..3, and the policies it compares
#: (RISC mode is the reference every speed-up divides by).
GRID: Tuple[Tuple[int, int], ...] = tuple(
    (cg, prc) for cg in range(5) for prc in range(4)
)
POLICIES: Tuple[str, ...] = ("risc", "rispp", "offline-optimal", "morpheus4s", "mrts")

#: Fig. 8 average speed-ups of mRTS the paper reports (EXPERIMENTS.md).
PAPER_SPEEDUPS = {"rispp": 1.3, "offline-optimal": 1.45, "morpheus4s": 1.78}

#: Application seeds are kept only when their total kernel-execution volume
#: lies within this share of the workload's median volume (see BalancedSeeds).
VOLUME_BAND = 0.05
REFERENCE_SEEDS = 100

#: Cells recomputed in-process with ``execute_cell`` to check a run whose
#: seed has no pinned digest.
CHECK_SAMPLE = 20
QUICK_CHECK_SAMPLE = 3

#: Stop a closed loop after this many operations failed in a row.
MAX_CONSECUTIVE_FAILURES = 5

FIXTURES = BENCH_DIR / "fixtures"


class Op:
    """One timed operation: a cell, a sweep or a job, started at ``start``
    on the ``perf_counter`` clock."""

    __slots__ = ("latency_s", "cells", "error", "start")

    def __init__(self, latency_s: float, cells: int, error: Optional[str],
                 start: float = 0.0):
        self.latency_s = latency_s
        self.cells = cells
        self.error = error
        self.start = start


class BalancedSeeds:
    """Application seeds of one workload, drawn from a stream keyed by the
    benchmark seed, keeping only seeds whose total kernel-execution volume
    lies within ``VOLUME_BAND`` of the median over seeds 0..99.

    Host time per cell grows with that volume, and the volume of an
    arbitrary seed varies by about 40% (up to 2x between seeds).  Fixing it
    fixes the input size, so a run's cells per second measures the code,
    not which seeds the run happened to draw; the traces themselves still
    differ from seed to seed.
    """

    def __init__(self, seed: int, workload: str, params: Dict[str, object]):
        from repro.experiments.engine import WORKLOADS

        self._family = WORKLOADS[workload]
        self._params = dict(params)
        self.reference = statistics.median(
            self._volume(s) for s in range(REFERENCE_SEEDS)
        )
        self._rng = random.Random(f"{workload}:{canonical(params)}:{seed}")
        self._seeds: List[int] = []
        self._tried: set = set()

    def _volume(self, seed: int) -> int:
        application = self._family.application(seed, dict(self._params))
        return sum(
            kernel.executions
            for iteration in application.iterations
            for kernel in iteration.kernels
        )

    def __getitem__(self, index: int) -> int:
        while len(self._seeds) <= index:
            seed = self._rng.randrange(1 << 31)
            if seed in self._tried:
                continue
            self._tried.add(seed)
            if abs(self._volume(seed) - self.reference) <= VOLUME_BAND * self.reference:
                self._seeds.append(seed)
        return self._seeds[index]


def _cell(budget, seed: int, policy: str, workload: str = "h264", **params):
    from repro.experiments.engine import SweepCell

    return SweepCell.make(budget, seed, policy, workload=workload, workload_params=params)


def _add(counters: Dict[str, float], name: str, amount: float) -> None:
    counters[name] = counters.get(name, 0) + amount


def _engine_counters(counters: Dict[str, float], stats) -> None:
    for name in ("cache_hits", "executed", "applications_built",
                 "libraries_built", "builds_saved", "frames_sent"):
        _add(counters, f"engine.{name}", getattr(stats, name))


def sample_mismatches(
    pairs: Sequence[Tuple[object, Dict[str, object]]],
    sample: int,
    seed: int,
    recompute,
) -> List[int]:
    """Indices of sampled ``(cell, record)`` pairs whose record differs
    from ``recompute(cell)``; samples ``sample`` pairs (all when fewer)."""
    rng = random.Random(f"check:{seed}")
    indices = sorted(rng.sample(range(len(pairs)), min(sample, len(pairs))))
    return [
        i for i in indices
        if canonical(recompute(pairs[i][0])) != canonical(pairs[i][1])
    ]


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    with open(FIXTURES / "digests.json", "r", encoding="utf-8") as handle:
        pins = json.load(handle)
    return pins.get(workload, {}).get(str(seed))


class Workload:
    """Base of the four workloads: a closed loop over :meth:`op`.

    ``prepare(i)`` builds the inputs of operation ``i`` and ``finish``
    files its output; both run outside the timed region, so the measured
    time (the sum of operation latencies) holds only calls into ``repro``.
    """

    name = ""
    #: operations covered by the pinned digest (the first N of a run)
    digest_ops = 0

    def __init__(self, seed: int, tmp: Path, quick: bool):
        self.seed = seed
        self.tmp = tmp
        self.quick = quick
        self.ops: List[Op] = []
        self.counters: Dict[str, float] = {}
        self.measured_s = 0.0
        self.failed: set = set()
        self.notes: List[str] = []
        self.probe = HostProbe()

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def prepare(self, index: int):
        raise NotImplementedError

    def op(self, prepared):
        raise NotImplementedError

    def finish(self, index: int, prepared, result) -> int:
        raise NotImplementedError

    def run(self, seconds: float, recorder) -> None:
        deadline = time.perf_counter() + seconds
        consecutive = 0
        while True:
            index = len(self.ops)
            prepared = self.prepare(index)
            if recorder is not None:
                recorder.enabled = True
            start = time.perf_counter()
            try:
                result, error = self.op(prepared), None
            except Exception as exc:  # an operation failure is a measured outcome
                result, error = None, f"{type(exc).__name__}: {exc}"
                if not consecutive:
                    traceback.print_exc()
            latency = time.perf_counter() - start
            if recorder is not None:
                recorder.enabled = False
            cells = 0 if error else self.finish(index, prepared, result)
            self.ops.append(Op(latency, cells, error, start))
            self.measured_s += latency
            self.probe.sample()
            consecutive = consecutive + 1 if error else 0
            if consecutive >= MAX_CONSECUTIVE_FAILURES:
                self.notes.append("stopped after repeated failures")
                break
            if time.perf_counter() >= deadline:
                break

    # -- checks ------------------------------------------------------------
    @property
    def check_sample(self) -> int:
        return QUICK_CHECK_SAMPLE if self.quick else CHECK_SAMPLE

    def verify(self) -> Optional[str]:
        """Mark failed operations; return the digest of the first
        :attr:`digest_ops` operations (``None`` if the run was shorter)."""
        raise NotImplementedError

    def check_pin(self, value: Optional[str]) -> str:
        """Compare ``value`` with the pinned digest of this seed; a
        mismatch fails every operation the digest covers.  Quick runs use
        smaller inputs, which no pin describes."""
        if self.quick:
            return "quick"
        if value is None:
            return "short"
        pin = pinned_digest(self.name, self.seed)
        if pin is None:
            return "unpinned"
        if pin != value:
            self.failed.update(range(min(self.digest_ops, len(self.ops))))
            return "mismatch"
        return "match"


class CellStream(Workload):
    """Shared verify step of the fig8 workloads: the delivered
    ``(cell, record)`` pairs, keyed to the operation that delivered them."""

    def __init__(self, seed: int, tmp: Path, quick: bool):
        super().__init__(seed, tmp, quick)
        self.pairs: List[Tuple[object, Dict[str, object]]] = []
        self.pair_op: List[int] = []

    def op(self, cells):
        return self.engine.run(cells)

    def finish(self, index: int, cells, records) -> int:
        self.pairs.extend(zip(cells, records))
        self.pair_op.extend([index] * len(cells))
        _engine_counters(self.counters, self.engine.stats)
        return len(cells)

    def verify(self) -> Optional[str]:
        from repro.experiments.engine import execute_cell

        for i in sample_mismatches(self.pairs, self.check_sample, self.seed, execute_cell):
            self.failed.add(self.pair_op[i])
        head = self.ops[: self.digest_ops]
        if len(head) < self.digest_ops or any(op.error for op in head):
            return None
        n = sum(op.cells for op in head)
        return digest([cell.payload(), record] for cell, record in self.pairs[:n])

    def model_accuracy(self) -> Dict[str, Dict[str, float]]:
        """mRTS's average Fig. 8 speed-ups in simulated time: the geometric
        mean over complete (application seed, budget) points, the trivial
        00 budget skipped as in the paper's averages."""
        groups: Dict[Tuple, Dict[str, int]] = {}
        for cell, record in self.pairs:
            groups.setdefault((cell.seed, cell.budget), {})[cell.policy] = (
                record["total_cycles"]
            )
        accuracy = {}
        for versus, paper in PAPER_SPEEDUPS.items():
            values = [
                cycles[versus] / cycles["mrts"]
                for (_, budget), cycles in sorted(groups.items())
                if budget != (0, 0) and versus in cycles and "mrts" in cycles
            ]
            if values:
                measured = statistics.geometric_mean(values)
                accuracy[versus] = {
                    "measured": measured,
                    "paper": paper,
                    "measured_over_paper": measured / paper,
                    "points": len(values),
                }
        return accuracy


class Fig8Cold(CellStream):
    """The Fig. 8 grid, one cell per operation, into a cold cache.

    Each group of five operations is one (budget, application) point under
    the five policies; budgets cycle through the grid and every group gets
    a fresh application seed, so no record is ever served from the cache.
    """

    name = "fig8-cold"
    digest_ops = 50
    frames = 8

    def setup(self) -> None:
        from repro.experiments.engine import SweepEngine

        self.engine = SweepEngine(backend="serial", cache_dir=str(self.tmp / "cache"))
        self.seeds = BalancedSeeds(self.seed, "h264", {"frames": self.frames})

    def prepare(self, index: int):
        group = index // len(POLICIES)
        return [_cell(GRID[group % len(GRID)], self.seeds[group],
                      POLICIES[index % len(POLICIES)], frames=self.frames)]


class Fig8Pool(CellStream):
    """The Fig. 8 grid over two application seeds per budget, one budget
    (ten cells) per ``--jobs 2`` sweep, through the process-pool backend."""

    name = "fig8-pool"
    digest_ops = 5
    frames = 8

    def setup(self) -> None:
        from repro.experiments.engine import SweepEngine

        self.engine = SweepEngine(jobs=2, cache_dir=str(self.tmp / "cache"))
        self.seeds = BalancedSeeds(self.seed, "h264", {"frames": self.frames})

    def prepare(self, index: int):
        budget = GRID[index % len(GRID)]
        return [
            _cell(budget, self.seeds[2 * index + k], policy, frames=self.frames)
            for k in range(2)
            for policy in POLICIES
        ]


class WarmStore(Workload):
    """Stored sweeps served entirely from a warm cell cache.

    Set-up fills the cache once (600 cells: h264, jpeg and deblocking at
    size 1, two application seeds each, over the Fig. 8 grid).  Each
    operation streams every cell into a fresh ``ResultWriter``, commits it,
    reopens it with ``ResultReader`` and folds the KPI summary.
    """

    name = "warm-store"
    digest_ops = 1
    #: every N-th sweep's stored rows are re-read and hashed after it ran
    rehash_every = 20
    sizes = {"h264": {"frames": 1}, "jpeg": {"images": 1}, "deblocking": {"frames": 1}}

    def setup(self) -> None:
        from repro.experiments.engine import SweepEngine

        per_workload = 1 if self.quick else 2
        self.cells = []
        for workload, params in self.sizes.items():
            seeds = BalancedSeeds(self.seed, workload, params)
            for k in range(per_workload):
                self.cells.extend(
                    _cell(budget, seeds[k], policy, workload, **params)
                    for budget in GRID
                    for policy in POLICIES
                )
        cache = str(self.tmp / "cache")
        SweepEngine(jobs=2, cache_dir=cache).run(self.cells)
        self.engine = SweepEngine(cache_dir=cache)
        self.summaries: List[str] = []
        self.row_digests: Dict[int, str] = {}
        self.first_rows: List[Tuple[object, Dict[str, object]]] = []

    def prepare(self, index: int):
        return str(self.tmp / "stores" / str(index))

    def op(self, root: str):
        from repro.results import kpi
        from repro.results.store import ResultReader, ResultWriter

        writer = ResultWriter(root)
        delivered = self.engine.run_streamed(self.cells, writer.sink)
        path = writer.close(engine_stats=self.engine.stats.engine_payload())
        reader = ResultReader(path)
        return delivered, reader, kpi.speedup_summary(reader)

    def finish(self, index: int, root: str, result) -> int:
        from repro.experiments.engine import SweepCell

        delivered, reader, summary = result
        self.summaries.append(canonical(summary))
        shards = reader.manifest["shards"]
        _add(self.counters, "results.shards", len(shards))
        _add(self.counters, "results.stored_bytes", sum(s["bytes"] for s in shards))
        _engine_counters(self.counters, self.engine.stats)
        if index % self.rehash_every == 0:
            rows = [list(row) for row in reader.iter_rows()]
            self.row_digests[index] = digest(rows + [summary])
            if index == 0:
                self.first_rows = [
                    (SweepCell.from_payload(cell), record) for _, cell, record in rows
                ]
        shutil.rmtree(root, ignore_errors=True)
        return delivered

    def verify(self) -> Optional[str]:
        from repro.experiments.engine import execute_cell

        good = [i for i, op in enumerate(self.ops) if not op.error]
        if not good or good[0] != 0:
            return None
        expected = self.row_digests[0]
        for summary, index in zip(self.summaries, good):
            if summary != self.summaries[0] or self.row_digests.get(index, expected) != expected:
                self.failed.add(index)
        if sample_mismatches(self.first_rows, self.check_sample, self.seed, execute_cell):
            # Every sweep stored the same records: a wrong one is in all of them.
            self.failed.update(good)
        return self.row_digests[0]


class JobStream:
    """The service workload's jobs, generated from the seed in one global
    order, so job ``k`` is the same whichever client runs it and whenever.

    Each of a job's cells is new with probability one half -- drawn without
    replacement from blocks of ten application seeds x the Fig. 8 grid --
    or else a repeat of any distinct cell an earlier job submitted.
    """

    cells_per_job = 12
    new_share = 0.5
    frames = 2

    def __init__(self, seed: int):
        self._rng = random.Random(f"service-mixed:{seed}")
        self._seeds = BalancedSeeds(seed, "h264", {"frames": self.frames})
        self._lock = threading.Lock()
        self._jobs: List[list] = []
        self._pool: list = []
        self._blocks = 0
        self._earlier: list = []
        self._known: set = set()

    def job(self, k: int) -> list:
        with self._lock:
            while len(self._jobs) <= k:
                self._jobs.append(self._next_job())
            return self._jobs[k]

    def _next_job(self) -> list:
        cells = []
        for _ in range(self.cells_per_job):
            if not self._earlier or self._rng.random() < self.new_share:
                cells.append(self._new_cell())
            else:
                cells.append(self._rng.choice(self._earlier))
        for cell in cells:
            if cell not in self._known:
                self._known.add(cell)
                self._earlier.append(cell)
        return cells

    def _new_cell(self):
        if not self._pool:
            seeds = [self._seeds[10 * self._blocks + k] for k in range(10)]
            self._blocks += 1
            self._pool = [
                _cell(budget, seed, policy, frames=self.frames)
                for seed in seeds
                for budget in GRID
                for policy in POLICIES
            ]
            self._rng.shuffle(self._pool)
        return self._pool.pop()


class ServiceMixed(Workload):
    """Two clients submitting jobs to a self-hosted ``repro serve`` daemon
    in a closed loop: DRR scheduling, in-flight dedup, the network record
    store and the binary wire, next to real compute on two workers."""

    name = "service-mixed"
    digest_ops = 40
    clients = 2
    workers = 2
    prefetch_jobs = 200

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.daemon import start_service_thread

        self.stream = JobStream(self.seed)
        self.stream.job(self.prefetch_jobs - 1)
        self.handle = start_service_thread(
            workers=self.workers, cache_dir=str(self.tmp / "store")
        )
        deadline = time.monotonic() + 60
        # Set-up includes the workers' handshake: wait until both joined.
        while len(self.handle.service._live) < self.workers:
            if time.monotonic() > deadline:
                raise RuntimeError("service workers did not connect within 60s")
            time.sleep(0.005)
        self.client_list = [
            ServiceClient(self.handle.coordinator, submitter=f"client-{c}")
            for c in range(self.clients)
        ]
        self.results: Dict[int, Tuple[List[Dict[str, object]], Dict[str, int]]] = {}
        self.job_ops: Dict[int, Op] = {}

    def close(self) -> None:
        for client in getattr(self, "client_list", []):
            client.close()
        handle = getattr(self, "handle", None)
        if handle is not None and not handle.stop(timeout=30):
            self.notes.append("daemon did not drain within 30s")

    def _client_loop(self, c: int, deadline: float, ends: List[float]) -> None:
        client = self.client_list[c]
        k = c
        consecutive = 0
        while time.perf_counter() < deadline and consecutive < MAX_CONSECUTIVE_FAILURES:
            payloads = [cell.payload() for cell in self.stream.job(k)]
            start = time.perf_counter()
            try:
                records, counters = client.run_job(payloads)
                error = None
            except Exception as exc:  # a failed job is a measured outcome
                records, counters, error = None, {}, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            self.job_ops[k] = Op(end - start, 0 if error else len(payloads), error, start)
            self.probe.sample()
            if error is None:
                self.results[k] = (records, counters)
                consecutive = 0
            else:
                consecutive += 1
            ends.append(end)
            k += self.clients

    def run(self, seconds: float, recorder) -> None:
        start = time.perf_counter()
        ends: List[float] = [start]
        threads = [
            threading.Thread(target=self._client_loop, args=(c, start + seconds, ends))
            for c in range(self.clients)
        ]
        if recorder is not None:
            recorder.enabled = True
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if recorder is not None:
            recorder.enabled = False
        self.measured_s = max(ends) - start
        self.job_index = sorted(self.job_ops)
        self.ops = [self.job_ops[k] for k in self.job_index]
        for _, counters in self.results.values():
            for name in ("remote_cache_hits", "worker_restarts", "bytes_sent",
                         "bytes_received", "frames_coalesced", "blocks_compressed"):
                _add(self.counters, f"service.{name}", counters.get(name, 0))

    def verify(self) -> Optional[str]:
        from repro.experiments.engine import cell_key, execute_cell

        position = {k: i for i, k in enumerate(self.job_index)}
        first: Dict[str, str] = {}
        cells: Dict[str, object] = {}
        jobs_of: Dict[str, List[int]] = {}
        for k in sorted(self.results):
            records, _ = self.results[k]
            for cell, record in zip(self.stream.job(k), records):
                key = cell_key(cell)
                text = canonical(record)
                cells.setdefault(key, cell)
                jobs_of.setdefault(key, []).append(position[k])
                if first.setdefault(key, text) != text:
                    self.failed.add(position[k])
        unique = sorted(cells)
        pairs = [(cells[key], json.loads(first[key])) for key in unique]
        for i in sample_mismatches(pairs, self.check_sample, self.seed, execute_cell):
            self.failed.update(jobs_of[unique[i]])
        prefix = range(self.digest_ops)
        if not all(k in self.results for k in prefix):
            return None
        covered = {cell_key(cell) for k in prefix for cell in self.stream.job(k)}
        return digest([key, json.loads(first[key])] for key in sorted(covered))


WORKLOAD_CLASSES = {cls.name: cls for cls in (Fig8Cold, Fig8Pool, WarmStore, ServiceMixed)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.enabled = False
        spans.install(recorder)

    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.tmp, args.quick)
    result: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "trace": args.trace,
        "env_repro": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }
    # Samples bracket set-up, so its slowness is sampled on both sides; the
    # time of the samples before it is not set-up time.
    probe_start = time.monotonic()
    before = [workload.probe.sample() for _ in range(SETUP_SAMPLES)]
    result["probe_s"] = time.monotonic() - probe_start
    try:
        workload.setup()
        result["ready_monotonic"] = time.monotonic()
        after = [workload.probe.sample() for _ in range(SETUP_SAMPLES)]
        result["setup_slowness"] = statistics.median(before + after)
        if args.mode == "full":
            workload.run(args.seconds, recorder)
    finally:
        workload.close()

    if args.mode == "full":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        value = workload.verify()
        result["digest"] = value
        result["pinned"] = workload.check_pin(value)
        ops = workload.ops
        samples = workload.probe.samples()
        nominal = normalise(samples, [(op.start, op.latency_s) for op in ops])
        busy = sum(op.latency_s for op in ops)
        result.update(
            attempted=len(ops),
            failed=len(workload.failed | {i for i, op in enumerate(ops) if op.error}),
            errors=sorted({op.error for op in ops if op.error})[:5],
            cells=sum(op.cells for op in ops),
            measured_s=workload.measured_s,
            # The timed time on a host of nominal speed: scaled by the
            # latency-weighted slowness, which on a one-client loop (timed
            # time = summed latencies) is the sum of normalised latencies.
            nominal_s=workload.measured_s * sum(nominal) / busy if busy else 0.0,
            raw_latencies_ms=[op.latency_s * 1e3 for op in ops if not op.error],
            latencies_ms=[t * 1e3 for t, op in zip(nominal, ops) if not op.error],
            slowness=[s for _, s in samples],
            counters=workload.counters,
            notes=workload.notes,
        )
        if isinstance(workload, Fig8Cold):
            result["model_accuracy"] = workload.model_accuracy()
        if recorder is not None:
            table = recorder.table()
            result["layers"] = spans.layer_metrics(
                table, {**recorder.counters, **workload.counters},
                max(1, result["cells"]), max(1, len(ops)), workload.measured_s,
            )
            result["spans"] = {
                name: {k: v for k, v in entry.items() if k != "durations_ns"}
                for name, entry in sorted(table.items())
            }
    args.out.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
