"""Result store of canonical JSON rows + streaming KPI analytics for sweeps.

The package's three layers (see ``docs/results.md``):

* :mod:`repro.results.schema` -- the shard format: one canonical JSON
  ``[index, cell, record]`` line per row (pure data, no I/O);
* :mod:`repro.results.store`  -- :class:`ResultWriter` (per-cell append,
  bounded buffering, atomic shard spill, manifest commit with a sha256
  per shard) and :class:`ResultReader` (record projection, streamed
  fold/group-by, crash recovery);
* :mod:`repro.results.kpi`    -- figure aggregates (fig8/9/10) and fleet
  summaries derived from stored sweeps without rematerialising them.

Quickstart::

    from repro.results import ResultWriter, ResultReader, speedup_summary

    writer = ResultWriter(".repro_results")
    engine.run_streamed(cells, writer.sink)       # O(1) memory in cells
    path = writer.close(engine_stats=engine.stats.engine_payload())
    print(speedup_summary(ResultReader(path)))
"""

from repro.results.kpi import (
    REFERENCE_POLICY,
    fig8_from_store,
    fig9_from_store,
    fig10_from_store,
    fleet_summary,
    run_fig8_stored,
    run_fig9_stored,
    run_fig10_stored,
    speedup_summary,
)
from repro.results.schema import (
    RESULTS_SCHEMA,
    canonical_json,
    decode_rows,
    encode_row,
)
from repro.results.store import (
    DEFAULT_SHARD_ROWS,
    DEFAULT_STORE_DIR,
    ResultReader,
    ResultStoreError,
    ResultWriter,
    list_sweeps,
    store_stats,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "DEFAULT_STORE_DIR",
    "REFERENCE_POLICY",
    "RESULTS_SCHEMA",
    "ResultReader",
    "ResultStoreError",
    "ResultWriter",
    "canonical_json",
    "decode_rows",
    "encode_row",
    "fig10_from_store",
    "fig8_from_store",
    "fig9_from_store",
    "fleet_summary",
    "list_sweeps",
    "run_fig10_stored",
    "run_fig8_stored",
    "run_fig9_stored",
    "speedup_summary",
    "store_stats",
]
