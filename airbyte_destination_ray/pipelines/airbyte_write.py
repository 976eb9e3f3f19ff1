"""The Airbyte-protocol ``write`` command — reference flagship (§3.1).

Reproduces the reference's write path (internal/connector/destination.go:
161-470) on the Ray lake engine:

    load config + catalog → per-stream validation/setup →
    scan NDJSON messages in arrival order →
        RECORD: enrich (_airbyte_raw_id via the golden sha256 formula M4,
                _airbyte_extracted_at = emitted_at) → route by
                namespace_stream (M5) → buffer per table (T1)
        buffer full (500 records — maxRecordsBatchSize parity): flush
        STATE: flush ALL buffers → echo state with destinationStats (S6)
    EOF: final flush; all-overwrite sync with 0 records → full reset (A4)

A *flush* runs the stream's buffered records through the same
partition+merge machinery as the CDC pipeline (hash-partition by PK →
per-partition LWW merge/append → manifest CAS), so Airbyte sync modes map to
engine semantics exactly:

    append_dedup → LWW upsert, ver = cursor field, seq = record index (A1)
    append       → LWW keyed on _airbyte_raw_id: every distinct event kept
                   (re-sent records get new indices → new raw ids, so exact
                   duplicates in the stream survive, matching the reference
                   e2e golden), while REPLAYED records (same index → same raw
                   id) dedup — exactly A2's "unique id = _airbyte_raw_id"
                   table declaration (destination.go:329-335)
    overwrite    → generation bump at sync start + append semantics (A3)

A flush's batch is already one Arrow table on the driver, so
``commit_epoch`` commits it in-process, partition by partition: a flush
launches no Ray job, and the ``write`` command runs without a Ray session.
(``run_write_dataset`` — NDJSON files on storage — is the distributed form.)

The global record index (replay-critical, M4) orders flushes too: each flush
commits under a monotonically increasing *flush epoch* that RESUMES from the
lake's committed maximum across syncs (a restarted counter would collide
with prior manifests and silently no-op); checkpoints at STATE barriers
record the last committed flush epoch.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import pyarrow as pa
import pyarrow.compute as pc

from ..catalog import Catalog, Config, ConfiguredStream, SyncMode
from ..functions.ids import raw_ids_for_batch
from ..protocol import MESSAGE_TYPE_RECORD, MESSAGE_TYPE_STATE, iter_messages
from ..schema import EXTRACTED_AT_COLUMN, RAW_ID_COLUMN, is_json_property, property_spec_from_json
from ..stages.lww import commit_epoch, make_partition_merger, make_partitioner
from ..state.manifest import ManifestStore

import numpy as np

MAX_RECORDS_PER_FLUSH = 500  # reference maxRecordsBatchSize (destination.go:30)
MAX_BYTES_PER_FLUSH = 1_047_000  # reference maxBytesPerBatch (destination.go:29)

# Go's json.Marshal (destination.go:428-433) HTML-escapes these to 6-byte
# \u00XX sequences; with ensure_ascii=False Python keeps them literal, so
# flush byte accounting adds (6 - utf8_len) per occurrence to match Go:
# '<' '>' '&' are 1 byte (+5 each); U+2028/U+2029 are 3 bytes (+3 each).
_GO_JSON_ESCAPES = (("<", 5), (">", 5), ("&", 5), ("\u2028", 3), ("\u2029", 3))


def go_json_size(obj: dict) -> int:
    """Byte length of Go's ``json.Marshal(obj)`` for a map (sorted keys)."""
    encoded = json.dumps(
        obj, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    )
    size = len(encoded.encode("utf-8"))
    for ch, extra in _GO_JSON_ESCAPES:
        cnt = encoded.count(ch)
        if cnt:
            size += cnt * extra
    return size


def emit(out: TextIO, payload: dict) -> None:
    """S5: protocol messages as NDJSON on stdout (logger.go:37-101)."""
    out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    out.flush()


def log(out: TextIO, level: str, message: str) -> None:
    emit(out, {"type": "LOG", "log": {"level": level, "message": message}})


def _convert_column(values: list, prop: dict, name: str) -> pa.Array:
    """One JSON-decoded column → Arrow array per the M7 type mapping."""
    spec = property_spec_from_json(prop)
    if is_json_property(spec):
        return pa.array(
            [None if v is None else json.dumps(v, sort_keys=True) for v in values],
            type=pa.string(),
        )
    from ..schema import arrow_type_for_property

    at = arrow_type_for_property(spec)
    if pa.types.is_timestamp(at) or pa.types.is_date(at):
        return pc.cast(
            pa.array([None if v is None else str(v) for v in values], pa.string()),
            at,
        )
    return pa.array(values, type=at)


def records_to_arrow(
    records: list, stream: ConfiguredStream, record_indices: list[int]
) -> pa.Table:
    """Buffered records → Arrow batch in the stream's schema + metadata
    columns (M3/M4: raw id from the golden formula, extracted_at from
    emitted_at millis)."""
    props = stream.json_schema.get("properties", {})
    cols: dict[str, pa.Array] = {}
    for name, prop in props.items():
        vals = [r.data.get(name) for r in records]
        cols[name] = _convert_column(vals, prop, name)
    idx = np.asarray(record_indices, dtype=np.int64)
    emitted = np.asarray([r.emitted_at for r in records], dtype=np.int64)
    cols[RAW_ID_COLUMN] = pa.array(
        raw_ids_for_batch(stream.namespace, stream.name, idx, emitted),
        type=pa.string(),
    )
    cols[EXTRACTED_AT_COLUMN] = pa.array(
        emitted * 1000, type=pa.timestamp("us", tz="UTC")
    )
    return pa.table(cols)


@dataclass
class _StreamBuffer:
    records: list = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    nbytes: int = 0


@dataclass
class WriteResult:
    records_written: int = 0
    flushes: int = 0
    states_echoed: int = 0
    tables: list[str] = field(default_factory=list)


class AirbyteWriter:
    """One sync: stream setup, buffering, flush/merge, state echo."""

    def __init__(
        self,
        config: Config,
        catalog: Catalog,
        *,
        out: TextIO = sys.stdout,
        num_partitions: int = 8,
        max_records_per_flush: int = MAX_RECORDS_PER_FLUSH,
        max_bytes_per_flush: int = MAX_BYTES_PER_FLUSH,
        on_record_error: str = "raise",
    ):
        if on_record_error not in ("raise", "log"):
            raise ValueError(
                f"on_record_error must be raise|log, got {on_record_error!r}"
            )
        self.config = config
        self.catalog = catalog
        self.out = out
        self.num_partitions = num_partitions
        self.max_records = max_records_per_flush
        self.max_bytes = max_bytes_per_flush
        self.on_record_error = on_record_error
        self.buffers: dict[str, _StreamBuffer] = {}
        self.flush_epoch = 0
        self.generations: dict[str, int] = {}
        self.table_meta: dict[str, dict] = {}
        self.result = WriteResult()

    # -- setup (destination.go:183-255) ------------------------------------
    def setup_streams(self) -> None:
        from ..state.manifest import source_epochs

        max_committed_epoch = -1
        for s in self.catalog.streams:
            table = s.table_name
            store = ManifestStore(self.config.lake_root, table)
            if store.exists():
                meta = store.table_meta()
                # M12 compatibility checks against the existing table shape
                pk = meta.get("pk") or []
                pk_ordered = bool(pk) and pk != [RAW_ID_COLUMN]
                unique_id = pk[0] if pk else RAW_ID_COLUMN
                s.validate_against_table(unique_id, pk_ordered)
            store.root.mkdir(parents=True, exist_ok=True)
            is_dedup = s.destination_sync_mode == SyncMode.APPEND_DEDUP
            # every Airbyte table is an LWW table: user PK for append_dedup,
            # the synthetic raw id for append/overwrite (A2) — with the
            # delta strategy so per-flush write cost is O(flush), not
            # O(partition)
            meta = store.init_table(
                num_partitions=self.num_partitions,
                mode="append_dedup",
                pk=s.pk_columns if is_dedup else [RAW_ID_COLUMN],
                cursor=s.cursor if is_dedup else EXTRACTED_AT_COLUMN,
                merge_strategy="delta",
                compact_every=16,
            )
            gen = meta["generation"]
            if s.destination_sync_mode == SyncMode.OVERWRITE:
                # A3: overwrite = metadata flip to a fresh generation
                gen = store.bump_generation()
                log(
                    self.out,
                    "INFO",
                    f"overwrite: table {table} starts generation {gen}",
                )
            self.generations[table] = gen
            self.table_meta[table] = meta
            self.result.tables.append(table)
            # resume the flush-epoch counter past every committed manifest
            max_committed_epoch = max(
                [max_committed_epoch, *source_epochs(store.manifest_names(gen))]
            )
        self.flush_epoch = max_committed_epoch + 1

    # -- record path (destination.go:421-453) ------------------------------
    def add_record(self, record_index: int, record) -> None:
        from ..functions.ids import table_unique_name

        table = table_unique_name(record.namespace, record.stream)
        if table not in self.generations:
            raise KeyError(
                f"record for unknown stream {table!r} (not in catalog)"
            )
        # dual flush trigger, faithful to destination.go:433-449: the
        # record's cost is its JSON-encoded size (data + the two metadata
        # columns, sorted keys like Go's json.Marshal of a map) + 1; if
        # adding it would blow the byte budget — or the buffer already holds
        # max_records — flush the CURRENT buffer first, then buffer the new
        # record (so the flushed batch never includes the trigger record,
        # exactly the reference's check-before-append ordering).  The raw id
        # is a fixed-width UUID string, so a placeholder keeps the
        # accounting exact without paying sha256 per record here.
        # Byte accounting matches Go's json.Marshal: ensure_ascii=False
        # emits raw UTF-8 (Go never \uXXXX-escapes non-ASCII), and Go's
        # HTML-safe default escapes <, >, & (and U+2028/U+2029 inside
        # strings) to 6-byte \u00XX sequences — counted via _GO_JSON_ESCAPES
        # below, since the chars are 1 (or 3) bytes on the Python side.
        size = (
            go_json_size(
                {
                    **record.data,
                    RAW_ID_COLUMN: "0" * 36,
                    EXTRACTED_AT_COLUMN: record.emitted_at,
                }
            )
            + 1
        )
        buf = self.buffers.setdefault(table, _StreamBuffer())
        if buf.nbytes + size > self.max_bytes or len(buf.records) >= self.max_records:
            log(self.out, "INFO", f"Max batch size reached for {table}, flushing")
            self._flush_table(table)
            buf = self.buffers.setdefault(table, _StreamBuffer())
        buf.records.append(record)
        buf.indices.append(record_index)
        buf.nbytes += size
        self.result.records_written += 1

    # -- flush = in-process partition+merge (publishBatch analog) ----------
    def _flush_table(self, table: str) -> None:
        buf = self.buffers.pop(table, None)
        if not buf or not buf.records:
            return
        stream = self.catalog.stream_by_table()[table]
        try:
            batch = records_to_arrow(buf.records, stream, buf.indices)
        except Exception:
            if self.on_record_error == "raise":
                raise
            # per-event error tolerance (destination.go:485-489 analog): the
            # reference logs per-event sink errors at ERROR and keeps the
            # batch; only whole-call errors are fatal.  Retry per record,
            # log + drop the offenders, flush the rest.
            good_records, good_indices = [], []
            for r, i in zip(buf.records, buf.indices):
                try:
                    records_to_arrow([r], stream, [i])
                except Exception as ee:
                    log(
                        self.out,
                        "ERROR",
                        f"failed to store event {i} in table {table!r}: {ee}",
                    )
                else:
                    good_records.append(r)
                    good_indices.append(i)
            if not good_records:
                return
            buf = _StreamBuffer(records=good_records, indices=good_indices)
            batch = records_to_arrow(good_records, stream, good_indices)
        # envelope columns for the merge machinery: seq = record index
        batch = batch.append_column(
            "seq", pa.array(buf.indices, type=pa.int64())
        )
        is_dedup = stream.destination_sync_mode == SyncMode.APPEND_DEDUP
        # composite PKs supported end-to-end; append tables key on the raw id
        pk = stream.pk_columns if is_dedup else RAW_ID_COLUMN
        ver = stream.cursor if is_dedup else EXTRACTED_AT_COLUMN
        payload_columns = [c for c in batch.column_names if c != "seq"]
        # the table's persisted partition count is authoritative — routing
        # with a different count would split a PK across partitions
        table_partitions = self.table_meta[table]["num_partitions"]

        partitioner = make_partitioner(
            pk,
            table_partitions,
            ver=ver,
            pre_reduce=is_dedup,
            payload_columns=payload_columns,
        )
        merger = make_partition_merger(
            self.config.lake_root,
            table,
            generation=self.generations[table],
            epoch=self.flush_epoch,
            mode="append_dedup",
            pk=pk,
            ver=ver,
            compute_digest=False,
            strategy="delta",
            compact_every=16,
        )
        # the batch is driver-resident (≤ 500 records / ~1 MB): commit_epoch
        # routes and merges it in-process — a Ray Data job per flush would
        # cost more than the merges.  No checkpoint here: the barrier is
        # written at the next STATE.
        commit_epoch(
            ManifestStore(self.config.lake_root, table),
            batch,
            partitioner=partitioner,
            merger=merger,
            generation=self.generations[table],
            epoch=self.flush_epoch,
        )
        self.flush_epoch += 1
        self.result.flushes += 1

    def flush_all(self) -> None:
        for table in list(self.buffers):
            self._flush_table(table)

    # -- state barrier (destination.go:402-420) ----------------------------
    def on_state(self, state) -> None:
        self.flush_all()
        # checkpoint the last COMMITTED flush epoch (flush_epoch points one
        # past it); no flush yet → nothing durable to checkpoint
        if self.flush_epoch > 0:
            for table, gen in self.generations.items():
                store = ManifestStore(self.config.lake_root, table)
                store.write_checkpoint(
                    gen,
                    self.flush_epoch - 1,
                    {"records_written": self.result.records_written},
                )
        emit(
            self.out,
            {
                "type": "STATE",
                "state": state.with_destination_stats(
                    float(self.result.records_written)
                ),
            },
        )
        self.result.states_echoed += 1

    # -- full reset (A4, destination.go:262-268, 516-574) ------------------
    def maybe_full_reset(self) -> None:
        if self.catalog.is_full_reset and self.result.records_written == 0:
            for s in self.catalog.streams:
                ManifestStore(self.config.lake_root, s.table_name).drop_table()
                log(self.out, "INFO", f"full reset: dropped {s.table_name}")


def _record_batch_to_stream_table(
    batch: pa.Table, stream: ConfiguredStream
) -> pa.Table:
    """A batch of parsed protocol records (``RECORDS_SCHEMA`` from
    ``sources.ndjson``) → the stream's typed Arrow shape + metadata columns
    + ``seq``.  JSON decode of ``data_json`` is the per-row parse boundary
    (same boundary the reference pays per line); everything after is
    columnar."""
    datas = [json.loads(s) for s in batch.column("data_json").to_pylist()]
    props = stream.json_schema.get("properties", {})
    cols: dict[str, pa.Array] = {}
    for name, prop in props.items():
        cols[name] = _convert_column([d.get(name) for d in datas], prop, name)
    idx = batch.column("record_index").to_numpy(zero_copy_only=False)
    emitted = batch.column("emitted_at").to_numpy(zero_copy_only=False)
    cols[RAW_ID_COLUMN] = pa.array(
        raw_ids_for_batch(stream.namespace, stream.name, idx, emitted),
        type=pa.string(),
    )
    cols[EXTRACTED_AT_COLUMN] = pa.array(
        emitted * 1000, type=pa.timestamp("us", tz="UTC")
    )
    cols["seq"] = pa.array(idx, type=pa.int64())
    return pa.table(cols)


_ROUTED_SCHEMA = pa.schema(
    [
        pa.field("_table", pa.string()),
        pa.field("_part", pa.int64()),
        pa.field("payload", pa.binary()),
    ]
)


def run_write_dataset(
    config: Config,
    catalog: Catalog,
    paths: list[str],
    *,
    num_partitions: int = 32,
    epoch: int = 0,
) -> dict:
    """The write command as a fully-distributed Ray Data pipeline (S1 at
    scale): NDJSON part-files → parallel parse with global record indices →
    ONE routing pass (typed conversion + per-batch LWW pre-reduce + packing
    into per-(table, partition) Arrow-IPC envelopes) → ONE
    ``groupby((_table, _part))`` exchange → per-partition merge with manifest
    CAS.  One call = one epoch (idempotent; re-running a committed epoch is a
    no-op).

    Every input record is read and JSON-decoded exactly once; nothing is
    materialized driver- or object-store-side (the round-1 design ran one
    full scan per configured stream over a materialized record set — at
    100 TB that is N_streams passes over the whole input).  The
    unconfigured-stream fail-fast (parity with the sequential path's
    KeyError — a silent filter would lose data) happens inside the routing
    tasks, so the job aborts on the first offending block.  The envelope
    exchange carries typed Arrow IPC bytes — already pre-reduced for dedup
    streams — never raw JSON.

    Use this for bulk/backfill loads; the sequential :func:`run_write` is the
    protocol-faithful stdin path (STATE barriers, stdout echo).
    """
    import numpy as _np

    from ..functions.hashing import composite_partition_ids, partition_ids
    from ..sources.ndjson import read_records_dataset
    from ..stages.lww import (
        SEQ_COLUMN,
        changes_to_lake_rows,
        ipc_table,
        lww_compact,
        pack_by_part,
    )

    catalog.validate()

    # driver-side table setup: metadata only, cheap
    table_cfg: dict[str, dict] = {}
    for stream in catalog.streams:
        table = stream.table_name
        store = ManifestStore(config.lake_root, table)
        store.root.mkdir(parents=True, exist_ok=True)
        is_dedup = stream.destination_sync_mode == SyncMode.APPEND_DEDUP
        meta = store.init_table(
            num_partitions=num_partitions,
            mode="append_dedup",
            pk=stream.pk_columns if is_dedup else [RAW_ID_COLUMN],
            cursor=stream.cursor if is_dedup else EXTRACTED_AT_COLUMN,
            merge_strategy="delta",
            compact_every=16,
        )
        table_cfg[table] = {
            "stream": stream,
            "is_dedup": is_dedup,
            "pk": stream.pk_columns if is_dedup else RAW_ID_COLUMN,
            "ver": stream.cursor if is_dedup else EXTRACTED_AT_COLUMN,
            "generation": meta["generation"],
            # the table's persisted partition count is authoritative —
            # routing with a different count would split a PK across
            # partitions
            "num_partitions": meta["num_partitions"],
        }

    def route(batch: pa.Table) -> pa.Table:
        from ..functions.ids import table_unique_name

        if batch.num_rows == 0:
            return _ROUTED_SCHEMA.empty_table()
        ns = pc.fill_null(batch.column("namespace"), "").combine_chunks()
        st = batch.column("stream").combine_chunks()
        combo = pc.binary_join_element_wise(ns, st, "\x1f").dictionary_encode()
        codes = combo.indices.to_numpy(zero_copy_only=False)
        pieces: list[pa.Table] = []
        unknown: set[str] = set()
        for code, key in enumerate(combo.dictionary.to_pylist()):
            nsp, nm = key.split("\x1f", 1)
            table = table_unique_name(nsp, nm)
            cfg = table_cfg.get(table)
            if cfg is None:
                unknown.add(table)
                continue
            sub = batch.filter(pa.array(codes == code))
            typed = _record_batch_to_stream_table(sub, cfg["stream"])
            lake = changes_to_lake_rows(
                typed, [c for c in typed.column_names if c != "seq"]
            )
            if cfg["is_dedup"]:
                # combiner: collapse in-batch update bursts before the shuffle
                lake = lww_compact(lake, cfg["pk"], cfg["ver"], SEQ_COLUMN)
            pk = cfg["pk"]
            if isinstance(pk, str) or len(pk) == 1:
                col = pk if isinstance(pk, str) else pk[0]
                parts = partition_ids(lake.column(col), cfg["num_partitions"])
            else:
                parts = composite_partition_ids(lake, pk, cfg["num_partitions"])
            packed = pack_by_part(lake, _np.asarray(parts))
            pieces.append(
                pa.table(
                    {
                        "_table": pa.array(
                            [table] * packed.num_rows, type=pa.string()
                        ),
                        "_part": packed.column("_part"),
                        "payload": packed.column("_ipc"),
                    }
                )
            )
        if unknown:
            raise KeyError(f"records for unconfigured streams: {sorted(unknown)}")
        if not pieces:
            return _ROUTED_SCHEMA.empty_table()
        return pa.concat_tables(pieces)

    def merge_group(group: pa.Table) -> pa.Table:
        table = group.column("_table")[0].as_py()
        part = int(group.column("_part")[0].as_py())
        cfg = table_cfg[table]
        typed = pa.concat_tables(
            ipc_table(v) for v in group.column("payload").to_pylist()
        )
        typed = typed.append_column(
            "_part", pa.array(_np.full(typed.num_rows, part, dtype=_np.int64))
        )
        merger = make_partition_merger(
            config.lake_root,
            table,
            generation=cfg["generation"],
            epoch=epoch,
            mode="append_dedup",
            pk=cfg["pk"],
            ver=cfg["ver"],
            compute_digest=False,
            strategy="delta",
            compact_every=16,
        )
        return merger(typed)

    # own exchange, not commit_epoch: one job spans every table, and each
    # table gets its own checkpoint (partitions still commit via the merger)
    stats = (
        read_records_dataset(paths)
        .map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby(["_table", "_part"])
        .map_groups(merge_group, batch_format="pyarrow")
    )
    summary: dict[str, int] = {t: 0 for t in table_cfg}
    try:
        for b in stats.iter_batches(batch_format="pyarrow"):
            for tname in b.column("table").to_pylist():
                summary[tname] += 1
    except Exception as e:  # re-surface the task-side fail-fast as the
        # documented KeyError (Ray wraps user exceptions in RayTaskError,
        # which does not subclass KeyError through UserCodeException)
        marker = "records for unconfigured streams"
        msg = str(e)
        if marker in msg:
            raise KeyError(msg[msg.index(marker) :].splitlines()[0]) from e
        raise
    for table, cfg in table_cfg.items():
        ManifestStore(config.lake_root, table).write_checkpoint(
            cfg["generation"], epoch, {"streams": [table]}
        )
    return summary


def run_write(
    config: Config,
    catalog: Catalog,
    lines: Iterable[str],
    *,
    out: TextIO = sys.stdout,
    num_partitions: int = 8,
    max_records_per_flush: int = MAX_RECORDS_PER_FLUSH,
    max_bytes_per_flush: int = MAX_BYTES_PER_FLUSH,
    on_record_error: str = "raise",
) -> WriteResult:
    """Full write command over an NDJSON message stream."""
    catalog.validate()
    writer = AirbyteWriter(
        config,
        catalog,
        out=out,
        num_partitions=num_partitions,
        max_records_per_flush=max_records_per_flush,
        max_bytes_per_flush=max_bytes_per_flush,
        on_record_error=on_record_error,
    )
    writer.setup_streams()
    for record_index, msg in iter_messages(iter(lines)):
        if msg.type == MESSAGE_TYPE_RECORD:
            writer.add_record(record_index, msg.record)
        elif msg.type == MESSAGE_TYPE_STATE:
            writer.on_state(msg.state)
        # other message types ignored (M2)
    writer.flush_all()
    writer.maybe_full_reset()
    return writer.result


def emit_records(
    lake_root: str,
    stream: ConfiguredStream,
    out: TextIO,
    *,
    batch_size: int = 4096,
) -> int:
    """Destination-as-source (the S5 emitter pointed the OTHER way): the
    stream's committed lake state back out as Airbyte RECORD NDJSON —
    data columns reversed through the M7 type mapping (timestamps/dates
    → ISO strings, json-typed columns re-parsed from their canonical
    serialization), ``emitted_at`` recovered from
    ``_airbyte_extracted_at`` millis.  Re-ingesting the emitted stream
    into a fresh lake reproduces the same visible DATA state
    (test-pinned; ``_airbyte_raw_id`` regenerates — it encodes the
    record's position in its sync, by the reference's formula).
    Returns the number of records emitted.  Streaming: one lake block
    at a time; per-record serialization is inherent to an NDJSON sink
    (the reference's writer is the same loop)."""
    from .cdc import read_table

    props = stream.json_schema.get("properties", {})
    json_cols = {
        name
        for name, prop in props.items()
        if is_json_property(property_spec_from_json(prop))
    }
    n = 0
    ds = read_table(lake_root, stream.table_name)
    for batch in ds.iter_batches(
        batch_format="pyarrow", batch_size=batch_size
    ):
        data_cols = [
            c for c in batch.column_names
            if c not in (RAW_ID_COLUMN, EXTRACTED_AT_COLUMN)
        ]
        pycols = {}
        for c in data_cols:
            col = batch.column(c)
            typ = col.type
            if pa.types.is_timestamp(typ) or pa.types.is_date(typ):
                vals = [
                    None if v is None else v.isoformat()
                    for v in col.to_pylist()
                ]
            elif c in json_cols:
                vals = [
                    None if v is None else json.loads(v)
                    for v in col.to_pylist()
                ]
            else:
                vals = col.to_pylist()
            pycols[c] = vals
        # exact integer µs -> ms: float .timestamp() truncation loses
        # 1 ms on ~0.6% of values (review-measured)
        emitted_ms = [
            None if v is None else v // 1000
            for v in batch.column(EXTRACTED_AT_COLUMN)
            .cast(pa.int64())
            .to_pylist()
        ]
        lines = []
        for i in range(batch.num_rows):
            lines.append(
                json.dumps(
                    {
                        "type": "RECORD",
                        "record": {
                            "stream": stream.name,
                            "namespace": stream.namespace,
                            "emitted_at": emitted_ms[i],
                            "data": {
                                c: pycols[c][i] for c in data_cols
                                if pycols[c][i] is not None
                            },
                        },
                    },
                    separators=(",", ":"),
                )
            )
            n += 1
        # one write + flush per BLOCK: emit()'s per-message flush is for
        # low-rate protocol messages, not a bulk export
        out.write("\n".join(lines) + "\n")
        out.flush()
    return n
