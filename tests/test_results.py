"""The result store: JSON-row shards, writer/reader, KPI layer, CLI.

The store's contract is byte-identity: any row streamed through
``ResultWriter`` must come back out of ``ResultReader`` exactly — same
types, same values, same canonical JSON — and the streamed KPI
aggregates must match their in-memory recomputation.  The failure modes
(crash mid-write, corrupt shards, schema drift, concurrent writers) are
each exercised directly.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import stat
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.engine import SweepCell, SweepEngine, cell_key
from repro.experiments.sweep import run_sweep, run_sweep_stored
from repro.results import (
    ResultReader,
    ResultStoreError,
    ResultWriter,
    canonical_json,
    decode_rows,
    encode_row,
    fleet_summary,
    list_sweeps,
    speedup_summary,
    store_stats,
)
from repro.results.synth import synthetic_row, synthetic_rows
from repro.cli import main
from tests.test_engine import PAYLOAD_SHAPES

WORKLOAD_PARAMS = {"frames": 2, "scale": 0.5}


def _small_cells():
    """Eight real sweep cells, kept tiny (2 frames) for test speed."""
    return [
        SweepCell.make(budget, seed, policy, workload_params=WORKLOAD_PARAMS)
        for budget in [(1, 1), (2, 2)]
        for seed in [0, 1]
        for policy in ["risc", "mrts"]
    ]


# ------------------------------------------------------------ shard codec


def _shard(rows):
    """The shard bytes of ``rows``, as ``ResultWriter`` spills them."""
    return "".join(
        encode_row(index, canonical_json(cell), record)
        for index, cell, record in rows
    ).encode("ascii")


class TestShardCodec:
    def test_synthetic_rows_roundtrip_exactly(self):
        rows = list(synthetic_rows(64, seed=3))
        assert list(decode_rows(_shard(rows))) == rows

    def test_roundtrip_preserves_types(self):
        record = {
            "an_int": 7,
            "a_float": 1.0,
            "a_bool": True,
            "none": None,
            "big": 2**70,
            "nested": {"list": [1, "two", 3.0]},
            "text": "hello",
        }
        cell = {"budget": [1, 2], "seed": 0}
        ((_, got_cell, got_record),) = decode_rows(_shard([(0, cell, record)]))
        assert got_cell == cell
        assert got_record == record
        for key in record:
            assert type(got_record[key]) is type(record[key]), key

    def test_unknown_cell_field_roundtrips(self):
        rows = [(0, {"not_a_cell_field": 1}, {"total_cycles": 1})]
        assert list(decode_rows(_shard(rows))) == rows

    def test_field_projection(self):
        rows = list(synthetic_rows(8, seed=0))
        projected = decode_rows(_shard(rows), fields=("total_cycles", "policy"))
        for (_, _, full), (_, _, got) in zip(rows, projected):
            assert got == {
                "total_cycles": full["total_cycles"],
                "policy": full["policy"],
            }

    def test_ragged_rows_keep_absent_keys_absent(self):
        rows = [
            (0, {"seed": 0}, {"only_here": 1, "shared": 2}),
            (1, {"seed": 1}, {"shared": 3}),
        ]
        assert list(decode_rows(_shard(rows))) == rows

    def test_one_canonical_line_per_row(self):
        rows = [(0, {"seed": 0}, {"b": "\u00e9\n", "a": [1.5, {}]})]
        assert _shard(rows) == b'[0,{"seed":0},{"a":[1.5,{}],"b":"\\u00e9\\n"}]\n'

    @pytest.mark.parametrize(
        "data",
        [
            b'[0,{},{}]',  # no final newline: truncated
            b'[0,{},{}]\n[1,{},',  # truncated mid-row
            b'[0,{},{}] \n',  # trailing bytes after the row
            b'[0,{},{}][1,{},{}]\n',  # two rows on one line
            b'[true,{},{}]\n',  # a bool is not an index
            b'[0,[],{}]\n',  # the cell is not an object
            b'[0,{},{},{}]\n',  # not a triple
            b'{"rows":[]}\n',
            b'\n',
            b'[0,{"a":"\xc3\xa9"},{}]\n',  # raw non-ASCII byte
        ],
        ids=["no-newline", "cut-mid-row", "trailing-bytes", "two-rows",
             "bool-index", "list-cell", "four-items", "object", "empty-line",
             "non-ascii"],
    )
    def test_malformed_rows_refused(self, data):
        with pytest.raises(ValueError):
            list(decode_rows(data))


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**63, -(2**63) - 1, 2**64]),  # just beyond int64
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.text(max_size=20),
    st.text(alphabet="\u00e9\u4e2d\U0001f600\u2028\x00\n\"\\", max_size=6),
)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_SCALARS, st.just([]), st.just({}), st.just([[{}]])),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)
_RECORDS = st.dictionaries(st.text(min_size=1, max_size=12), _JSON_VALUES,
                           max_size=6)
#: Any cell keys: the store is a transport and knows no cell schema.
_CELLS = st.dictionaries(
    st.one_of(st.sampled_from(["budget", "seed", "co_tasks"]),
              st.text(min_size=1, max_size=12)),
    _JSON_VALUES, max_size=4,
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(_CELLS, _RECORDS), max_size=8),
           shard_rows=st.integers(min_value=1, max_value=4))
    def test_writer_reader_byte_identical(self, tmp_path_factory, rows,
                                          shard_rows):
        rows = [(i, cell, record) for i, (cell, record) in enumerate(rows)]
        root = str(tmp_path_factory.mktemp("store"))
        writer = ResultWriter(root, sweep="prop", shard_rows=shard_rows)
        for index, cell, record in rows:
            writer.append(index, cell, record)
        path = writer.close()
        got = list(ResultReader(path).iter_rows())
        assert got == rows
        assert len(got) == len(rows)
        for decoded, original in zip(got, rows):
            assert canonical_json(decoded) == canonical_json(original)


# ---------------------------------------------------------- writer/reader


class TestWriterReader:
    def _write(self, root, n=40, shard_rows=7, sweep="s", seed=0):
        writer = ResultWriter(str(root), sweep=sweep, shard_rows=shard_rows)
        for row in synthetic_rows(n, seed=seed):
            writer.append(*row)
        return writer.close(engine_stats={"cells": n, "hits": 0})

    def test_spill_across_shards_roundtrips(self, tmp_path):
        path = self._write(tmp_path, n=40, shard_rows=7)
        reader = ResultReader(path)
        assert len(reader.manifest["shards"]) == 6  # 5 full + 1 partial
        assert reader.rows == 40
        assert list(reader.iter_rows()) == list(synthetic_rows(40, seed=0))
        for entry in reader.manifest["shards"]:
            with open(os.path.join(path, entry["name"]), "rb") as handle:
                data = handle.read()
            assert entry == {
                "name": entry["name"],
                "rows": data.count(b"\n"),
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }

    def test_published_files_readable_by_all(self, tmp_path):
        """Shards, the manifest and the store index are published 0644
        (``mkstemp`` creates them 0600), in a named and an auto-named
        sweep alike."""
        for sweep in ("named", None):
            writer = ResultWriter(str(tmp_path), sweep=sweep, shard_rows=7)
            for row in synthetic_rows(10, seed=0):
                writer.append(*row)
            path = writer.close()
            published = [
                os.path.join(path, "shard-000000.json"),
                os.path.join(path, "shard-000001.json"),
                os.path.join(path, "manifest.json"),
                os.path.join(str(tmp_path), "index.json"),
            ]
            for name in published:
                assert stat.S_IMODE(os.stat(name).st_mode) == 0o644, name

    def test_uncommitted_sweep_rejected(self, tmp_path):
        writer = ResultWriter(str(tmp_path), sweep="open", shard_rows=4)
        for row in synthetic_rows(10, seed=0):
            writer.append(*row)
        writer._flush()
        with pytest.raises(ResultStoreError):
            ResultReader(writer.path)

    def test_crash_recovery_skips_corrupt_shard(self, tmp_path):
        writer = ResultWriter(str(tmp_path), sweep="crashed", shard_rows=4)
        rows = list(synthetic_rows(12, seed=1))
        for row in rows:
            writer.append(*row)
        writer._flush()  # three shards on disk, no manifest (the "crash")
        victim = os.path.join(writer.path, "shard-000001.json")
        blob = open(victim, "rb").read()
        with open(victim, "wb") as handle:
            handle.write(blob[: len(blob) // 2])  # truncated mid-write
        reader = ResultReader(writer.path, recover=True)
        assert reader.rows == 8
        assert list(reader.iter_rows()) == rows[:4] + rows[8:]
        assert reader.recovered_from == [
            "recovered shard shard-000000.json",
            "skipped corrupt shard shard-000001.json",
            "recovered shard shard-000002.json",
        ]
        assert reader.manifest["meta"] == {"recovered": True}

    @pytest.mark.parametrize("cut", [1, 5], ids=["newline", "mid-line"])
    def test_crash_recovery_skips_shard_with_truncated_last_line(
        self, tmp_path, cut
    ):
        writer = ResultWriter(str(tmp_path), sweep="crashed", shard_rows=4)
        rows = list(synthetic_rows(12, seed=1))
        for row in rows:
            writer.append(*row)
        writer._flush()
        victim = os.path.join(writer.path, "shard-000002.json")
        blob = open(victim, "rb").read()
        with open(victim, "wb") as handle:
            handle.write(blob[:-cut])  # the last row lost its tail
        reader = ResultReader(writer.path, recover=True)
        assert reader.rows == 8
        assert list(reader.iter_rows()) == rows[:8]
        assert reader.recovered_from[-1] == "skipped corrupt shard shard-000002.json"

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = self._write(tmp_path, n=4, shard_rows=4)
        manifest_path = os.path.join(path, "manifest.json")
        doc = json.load(open(manifest_path))
        doc["schema"] = 1  # the columnar codec's sweeps
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with pytest.raises(ResultStoreError, match="regenerate the sweep"):
            ResultReader(path)

    def test_foreign_manifest_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, n=4, shard_rows=4)
        manifest_path = os.path.join(path, "manifest.json")
        doc = json.load(open(manifest_path))
        doc["kind"] = "something-else"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with pytest.raises(ResultStoreError, match="kind"):
            ResultReader(path)

    def test_post_commit_tamper_detected(self, tmp_path):
        path = self._write(tmp_path, n=10, shard_rows=5)
        shard_path = os.path.join(path, "shard-000001.json")
        data = bytearray(open(shard_path, "rb").read())
        data[len(data) // 2] ^= 0x01  # one flipped bit, whether or not it parses
        with open(shard_path, "wb") as handle:
            handle.write(bytes(data))
        reader = ResultReader(path)
        rows = reader.iter_rows()
        assert [next(rows) for _ in range(5)] == list(synthetic_rows(5))
        with pytest.raises(ResultStoreError, match="checksum"):
            next(rows)  # refused before any row of the flipped shard

    def test_append_after_close_rejected(self, tmp_path):
        writer = ResultWriter(str(tmp_path), sweep="done")
        writer.close()
        with pytest.raises(ResultStoreError):
            writer.append(0, {"seed": 0}, {"total_cycles": 1})

    def test_context_manager_commits_on_clean_exit_only(self, tmp_path):
        with ResultWriter(str(tmp_path), sweep="clean") as writer:
            writer.append(*synthetic_row(0))
        assert ResultReader(writer.path).rows == 1
        with pytest.raises(RuntimeError):
            with ResultWriter(str(tmp_path), sweep="dirty") as writer:
                writer.append(*synthetic_row(0))
                raise RuntimeError("simulated failure")
        with pytest.raises(ResultStoreError):
            ResultReader(os.path.join(str(tmp_path), "dirty"))

    def test_concurrent_writers_share_one_root(self, tmp_path):
        root = str(tmp_path)
        errors = []

        def worker(seed):
            try:
                writer = ResultWriter(root, shard_rows=3)  # auto sweep name
                for row in synthetic_rows(20, seed=seed):
                    writer.append(*row)
                writer.close()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        sweeps = list_sweeps(root)
        assert len(sweeps) == 4  # no writer clobbered another's directory
        totals = sorted(
            ResultReader(os.path.join(root, sweep)).rows for sweep in sweeps
        )
        assert totals == [20, 20, 20, 20]
        stats = store_stats(root)
        assert stats["total_rows"] == 80

    def test_store_stats_falls_back_to_scan(self, tmp_path):
        self._write(tmp_path, n=6, shard_rows=3, sweep="a")
        os.unlink(os.path.join(str(tmp_path), "index.json"))
        stats = store_stats(str(tmp_path))
        assert stats["source"] == "scan"
        assert stats["total_rows"] == 6


# ------------------------------------------------------------- KPI layer


class TestKpi:
    def _reader(self, tmp_path, n=100, seed=0, shuffle=False):
        rows = list(synthetic_rows(n, seed=seed))
        if shuffle:
            rows = rows[1::2] + rows[0::2]  # deterministic reorder
        writer = ResultWriter(str(tmp_path), sweep="kpi", shard_rows=9)
        for row in rows:
            writer.append(*row)
        return ResultReader(writer.close(engine_stats={"cells": n}))

    def test_speedup_summary_matches_naive_recomputation(self, tmp_path):
        reader = self._reader(tmp_path, n=100)
        summary = speedup_summary(reader)
        by_group = {}
        for _, cell, record in synthetic_rows(100, seed=0):
            key = (record["workload"], record["budget_label"], record["seed"])
            by_group.setdefault(key, {})[record["policy"]] = (
                record["total_cycles"]
            )
        for (workload, _, _), cycles in by_group.items():
            risc = cycles["risc"]
            for policy, total in cycles.items():
                if policy == "risc":
                    continue
                stats = summary["speedups"][workload][policy]
                assert stats["min"] <= risc / total <= stats["max"]
        assert summary["rows"] == 100
        assert summary["groups"] == len(by_group)
        assert summary["groups_without_reference"] == 0

    def test_speedup_summary_is_order_independent(self, tmp_path):
        a = speedup_summary(self._reader(tmp_path / "a", n=60))
        b = speedup_summary(self._reader(tmp_path / "b", n=60, shuffle=True))
        assert a == b

    def test_fleet_summary_shape(self, tmp_path):
        fleet = fleet_summary(self._reader(tmp_path, n=50))
        assert fleet["rows"] == 50
        assert "risc" in fleet["policies"]
        assert fleet["engine_stats"] == {"cells": 50}


class _ListRows:
    """In-memory stand-in for ``ResultReader``'s aggregation surface: the
    baseline folds a materialised row list through the same KPI code as
    the streamed leg, so only where the rows live differs."""

    def __init__(self, rows):
        self._rows = rows
        self.rows = len(rows)

    def group_fold(self, key, fn, init, fields=None):
        groups = {}
        for row in self._rows:
            group = key(row)
            if group not in groups:
                groups[group] = init()
            groups[group] = fn(groups[group], row)
        return groups


class TestStreamedMemory:
    @pytest.mark.parametrize(
        "cells,ratio",
        [(1_000, 2.0), pytest.param(10_000, 5.0, marks=pytest.mark.slow)],
        ids=["1e3", "1e4"],
    )
    def test_streamed_kpi_beats_in_memory_peak(self, tmp_path, cells, ratio):
        """A synthetic sweep streamed through the store round-trips
        byte-identically, folds to the in-memory KPI summary, and peaks at
        ``ratio`` times less traced memory than aggregating a row list."""
        tracemalloc.start()
        try:
            rows = list(synthetic_rows(cells, seed=7))
            in_memory = speedup_summary(_ListRows(rows))
            peak_in_memory = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del rows

        tracemalloc.start()
        try:
            writer = ResultWriter(str(tmp_path), sweep="memory", shard_rows=256)
            for row in synthetic_rows(cells, seed=7):
                writer.append(*row)
            reader = ResultReader(writer.close())
            streamed = speedup_summary(reader)
            peak_streamed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        decoded = 0
        for index, cell, record in reader.iter_rows():
            _, cell2, record2 = synthetic_row(index, seed=7)
            assert canonical_json([cell, record]) == canonical_json(
                [cell2, record2]
            )
            decoded += 1
        assert decoded == cells
        assert canonical_json(streamed) == canonical_json(in_memory)
        assert peak_in_memory >= ratio * peak_streamed, (
            f"store cut peak memory only {peak_in_memory / peak_streamed:.2f}x"
        )


# ----------------------------------------------- engine streaming parity


class TestPayloadText:
    """A cell's payload is serialised once, into ``SweepCell.payload_text``,
    and the stored row splices that text in: the shard bytes are those of
    ``canonical_json([index, payload, record])`` whatever form the cell
    arrives in."""

    RECORD = {"total_cycles": 123, "speedup": 1.5, "workload": "h264",
              "nested": {"b": [1, 2.0, None], "a": True}}

    @staticmethod
    def _shard_bytes(root, sweep, cell):
        writer = ResultWriter(str(root), sweep=sweep)
        for index in range(3):
            writer.sink(index, cell, TestPayloadText.RECORD)
        path = writer.close()
        with open(os.path.join(path, "shard-000000.json"), "rb") as handle:
            return handle.read()

    @pytest.mark.parametrize("shape", sorted(PAYLOAD_SHAPES))
    def test_payload_text_is_canonical_payload(self, shape):
        cell = SweepCell.make(**PAYLOAD_SHAPES[shape])
        assert cell.payload_text == canonical_json(cell.payload())
        for task in cell.co_task_cells():
            assert task.payload_text == canonical_json(task.payload())

    @pytest.mark.parametrize("shape", sorted(PAYLOAD_SHAPES))
    def test_sink_writes_identical_rows_for_every_cell_form(self, tmp_path, shape):
        keyed = SweepCell.make(**PAYLOAD_SHAPES[shape])
        cell_key(keyed)  # the engine keys a cell before it is stored
        restored = pickle.loads(pickle.dumps(keyed))
        assert restored == keyed
        assert restored.payload_text == keyed.payload_text
        forms = {
            "fresh cell": SweepCell.make(**PAYLOAD_SHAPES[shape]),
            "keyed cell": keyed,
            "payload dict": keyed.payload(),
            "unpickled keyed cell": restored,
        }
        expected = "".join(
            canonical_json([index, keyed.payload(), self.RECORD]) + "\n"
            for index in range(3)
        ).encode("ascii")
        for form, cell in forms.items():
            sweep = form.replace(" ", "-")
            assert self._shard_bytes(tmp_path, sweep, cell) == expected, form

    def test_replaced_copy_gets_its_own_text(self):
        cell = SweepCell.make(**PAYLOAD_SHAPES["co-run"])
        cell_key(cell)
        (task,) = cell.co_task_cells()
        assert "payload_text" not in vars(task)
        assert task.payload_text == canonical_json(task.payload())
        assert task.payload_text != cell.payload_text
        other = dataclasses.replace(cell, seed=cell.seed + 1)
        assert other.payload_text == canonical_json(other.payload())
        assert other.payload_text != cell.payload_text


class TestEngineStreaming:
    def test_run_streamed_matches_run(self, tmp_path):
        cells = _small_cells()
        cells.append(cells[0])  # a duplicate must still get its own row
        engine = SweepEngine(jobs=1, use_cache=False)
        base = engine.run(cells)
        writer = ResultWriter(str(tmp_path), sweep="parity", shard_rows=3)
        delivered = engine.run_streamed(cells, writer.sink)
        reader = ResultReader(
            writer.close(engine_stats=engine.stats.engine_payload())
        )
        stored = reader.records_by_index()
        assert delivered == len(cells)
        assert sorted(stored) == list(range(len(cells)))
        ordered = [stored[i] for i in range(len(cells))]
        assert ordered == base
        # Type-exact too: == alone would let 1 stand in for 1.0 or True.
        assert canonical_json(ordered) == canonical_json(base)
        assert stored[len(cells) - 1] == stored[0]

    def test_run_streamed_serves_cache_hits(self, tmp_path, monkeypatch):
        cells = _small_cells()[:4]
        engine = SweepEngine(
            jobs=1, use_cache=True, cache_dir=str(tmp_path / "cache")
        )
        base = engine.run(cells)  # warm the cache
        writer = ResultWriter(str(tmp_path), sweep="warm", shard_rows=2)
        engine.run_streamed(cells, writer.sink)
        assert engine.stats.cache_hits == len(cells)
        stored = ResultReader(writer.close()).records_by_index()
        assert [stored[i] for i in range(len(cells))] == base

    def test_run_sweep_stored_matches_run_sweep(self, tmp_path):
        kwargs = dict(
            budgets=[(1, 1), (2, 1)],
            seeds=[0],
            policies=["mrts"],
            workload_params=WORKLOAD_PARAMS,
        )
        plain = run_sweep(**kwargs)
        stored, path = run_sweep_stored(
            store=str(tmp_path), sweep="sweep", shard_rows=3, **kwargs
        )
        assert stored.render() == plain.render()
        assert ResultReader(path).rows == 4  # 2 budgets x 1 seed x (risc+mrts)


# ------------------------------------------------------------- CLI smoke


class TestResultsCli:
    @pytest.fixture()
    def store(self, tmp_path):
        writer = ResultWriter(str(tmp_path / "store"), sweep="cli",
                              shard_rows=8)
        for row in synthetic_rows(25, seed=2):
            writer.append(*row)
        writer.close(engine_stats={"cells": 25})
        return str(tmp_path / "store")

    def test_summary(self, store, capsys):
        assert main(["results", "summary", "--store", store]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_rows"] == 25

    def test_kpi(self, store, capsys):
        code = main(["results", "kpi", "--store", store, "--sweep", "cli"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reference"] == "risc"
        assert payload["rows"] == 25

    def test_export_jsonl(self, store, tmp_path, capsys):
        out = str(tmp_path / "rows.jsonl")
        code = main(["results", "export", "--store", store, "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert set(first) == {"index", "cell", "record"}

    def test_missing_sweep_is_an_error(self, tmp_path, capsys):
        code = main(
            ["results", "kpi", "--store", str(tmp_path / "empty")]
        )
        assert code == 2
