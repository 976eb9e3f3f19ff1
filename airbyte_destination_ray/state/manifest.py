"""Per-partition commit manifests — the exactly-once mechanism.

The reference achieves at-least-once via HTTP retries with per-event errors
swallowed (destination.go:485-489) and relies on engine-side dedup/LWW to
absorb duplicates.  This engine upgrades that to exactly-once with the
standard lake pattern: a (epoch, partition) is committed by atomically
renaming a manifest file into place; rename-if-absent is the CAS.  A retried
or speculative Ray task that re-runs a committed (epoch, partition) finds the
manifest and becomes a no-op, so replay from any checkpoint is idempotent.

Layout under ``lake_root/<table>/``::

    gen=<G>/parts/p=<P>/e<E>.parquet      data snapshot files
    _manifests/g<G>-e<E>-p<P>.json        per-(generation, epoch, partition) commit
    _checkpoints/g<G>-e<E>.json           epoch checkpoint (all partitions committed)
    _meta.json                            table metadata (generation, partitioning, mode)
    _schema/v<V>.json                     schema-registry versions

Snapshot semantics: for merge (append_dedup / overwrite) tables each
manifest's ``files`` list is the **full** current file set of its partition as
of that epoch, so "current state of partition p" = the winning manifest for p
in the active generation (:func:`resolve_state` — the one place the recency
rule lives; every reader goes through it) — snapshot isolation
with no row-level delete scans (this is what makes overwrite A3 a metadata
flip, matching the semantics of the reference's delete-then-append job,
destination.go:198-241).  For append tables manifests are additive and the
current state is the union over committed epochs; ``max_seq`` is the
re-delivery watermark.

Name-ordered recency: a manifest below the compaction lane never carries a
``covers_epoch`` (``commit_partition`` refuses one), so its ``order_key`` is
``(E, E)`` with E read from its filename — among those manifests the highest
E ≤ ``max_epoch`` wins outright.  ``ManifestStore.table_state`` therefore
resolves recency from ONE directory listing and parses only that candidate
per partition, plus every compaction-lane manifest of the wanted partitions:
a lane manifest's rank depends on the ``covers_epoch`` in its body.  Reads,
lookups and merges pay O(partitions + lane manifests) parses, not
O(history); the filename format is load-bearing.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple


# Compaction manifests live in a dedicated epoch lane far above any real
# binlog epoch: they must rank newest for snapshot resolution without ever
# colliding with a future source epoch's manifest CAS (a collision would make
# that epoch's merge a silent no-op).
COMPACTION_EPOCH_BASE = 1_000_000_000

# Key-hash scheme generation for partition routing (functions/hashing.py).
# v1: object-path pandas hashing of raw key arrays.  v2: integer keys
# canonicalized to fixed width (nulls → sentinel) before SipHash — changed
# hash values for every integer pk, so v1 integer-pk lakes must be rebuilt,
# and init_table refuses to resume a lake stamped with a different scheme.
HASH_SCHEME_VERSION = 2


_NAME_RE = re.compile(r"g(\d+)-e(\d+)-p(\d+)\.json")


class ManifestName(NamedTuple):
    """What a manifest's filename says — ``g<G>-e<E>-p<P>.json``."""

    generation: int
    epoch: int
    partition: int

    @property
    def key(self) -> str:
        return f"g{self.generation:04d}-e{self.epoch:06d}-p{self.partition:05d}"

    @classmethod
    def parse(cls, filename: str) -> "ManifestName | None":
        """Inverse of ``f"{key}.json"``; None for any other name (temp
        files of an in-flight commit, strays)."""
        m = _NAME_RE.fullmatch(filename)
        return None if m is None else cls(*map(int, m.groups()))


@dataclass
class PartitionManifest:
    table: str
    generation: int
    epoch: int
    partition: int
    files: list[str] = field(default_factory=list)  # lake-root-relative paths
    row_count: int = 0
    byte_count: int = 0
    max_seq: int = -1  # re-delivery watermark (append tables)
    digest: str = ""  # deterministic content digest for replay-equivalence checks
    mode: str = "append_dedup"
    schema_version: int = 0  # registry version the snapshot files are written under
    # highest SOURCE epoch this manifest's state covers.  Normal commits
    # cover their own epoch (-1 → use .epoch); compaction-lane commits cover
    # the epochs folded into them, which is how a later source epoch can
    # outrank an earlier compaction (see order_key).
    covers_epoch: int = -1
    # zone map: per-file column [min, max] over this manifest's files
    # ({rel_path: {col: [lo, hi]}}, temporal values encoded as storage-unit
    # ints — see stages.lww._file_column_stats).  Readers treat a missing
    # file/column entry as unprunable, so pre-zone-map manifests stay valid.
    stats: dict = field(default_factory=dict)
    # distinct keys changed in THIS partition at THIS epoch (post-LWW-compact
    # of the epoch's change group — deterministic: independent of batch
    # composition and shuffle strategy, unlike raw change-row counts, so
    # per-epoch sums are SQL-oracle-checkable).  -1 = unknown (pre-upgrade
    # manifests, compaction-lane commits).
    keys_changed: int = -1

    @property
    def effective_epoch(self) -> int:
        return self.covers_epoch if self.covers_epoch >= 0 else self.epoch

    @property
    def order_key(self) -> tuple[int, int]:
        """Manifest recency order: by covered source epoch, then raw epoch
        (a compaction covering epoch E outranks the plain epoch-E manifest;
        a later source epoch outranks any earlier compaction)."""
        return (self.effective_epoch, self.epoch)

    @property
    def key(self) -> str:
        """The manifest's filename stem (:meth:`ManifestName.parse` reads
        it back)."""
        return ManifestName(self.generation, self.epoch, self.partition).key


def resolve_state(
    manifests, *, max_epoch: int | None = None
) -> dict[int, PartitionManifest]:
    """The recency rule — the ONE place a winning manifest is picked:
    partition → its manifest with the highest ``order_key`` among those
    whose covered source epoch is ≤ ``max_epoch`` (None = no bound).

    A compaction covering epochs ≤ E ranks above the plain epoch-E
    manifest but BELOW any later source epoch's manifest, so compactions
    can never shadow post-compaction data."""
    state: dict[int, PartitionManifest] = {}
    for m in manifests:
        if max_epoch is not None and m.effective_epoch > max_epoch:
            continue
        cur = state.get(m.partition)
        if cur is None or m.order_key > cur.order_key:
            state[m.partition] = m
    return state


def next_lane_epoch(manifests) -> int:
    """First free compaction-lane epoch above every lane manifest of the
    generation (across ALL partitions, winning or not — reusing an
    occupied slot would turn the new commit into a silent CAS no-op).
    Reads only ``.epoch``: pass :meth:`ManifestStore.manifest_names`."""
    return 1 + max(
        (m.epoch for m in manifests if m.epoch >= COMPACTION_EPOCH_BASE),
        default=COMPACTION_EPOCH_BASE - 1,
    )


def source_epochs(manifests) -> set[int]:
    """Binlog/flush epochs with at least one committed manifest
    (compaction-lane commits excluded — they are not source epochs).
    Reads only ``.epoch``: pass :meth:`ManifestStore.manifest_names`."""
    return {m.epoch for m in manifests if m.epoch < COMPACTION_EPOCH_BASE}


def _atomic_write_json(path: Path, payload: dict) -> bool:
    """Write-if-absent via tmpfile + ``os.link`` (fails if target exists).

    Returns True when this call created the file (i.e. won the CAS),
    False when the target already existed — the idempotent no-op path.
    """
    if path.exists():
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            # json.dumps runs the C encoder; json.dump(…, f) the pure-Python
            # one (6× slower on a manifest's stats map) for the same bytes
            f.write(json.dumps(payload, sort_keys=True))
        try:
            os.link(tmp, path)  # atomic create-if-absent on POSIX
            return True
        except FileExistsError:
            return False
    finally:
        os.unlink(tmp)


class ManifestStore:
    """File-backed manifest/checkpoint store for one table.

    Cheap to construct (holds only paths) — merge tasks build one per task
    from ``lake_root``; no driver round-trips, no actor bottleneck. All
    mutations are atomic renames/links so concurrent tasks (including Ray
    retries) cannot corrupt state.
    """

    def __init__(self, lake_root: str | Path, table: str):
        self.root = Path(lake_root) / table
        self.manifest_dir = self.root / "_manifests"
        self.checkpoint_dir = self.root / "_checkpoints"

    # -- table metadata -----------------------------------------------------
    def init_table(self, *, num_partitions: int, mode: str, pk: list[str],
                   cursor: str, generation: int = 0, **extra) -> dict:
        meta_path = self.root / "_meta.json"
        if meta_path.exists():
            meta = self.table_meta()
            # partition routing depends on the key-hash scheme; resuming a
            # lake persisted under a different scheme would silently
            # mis-route keys (same pk → new partition, breaking LWW
            # co-location).  Refuse instead of corrupting.
            persisted = meta.get("hash_scheme", 1)
            if persisted != HASH_SCHEME_VERSION:
                raise RuntimeError(
                    f"table {self.root.name!r} was written under key-hash scheme "
                    f"v{persisted}; this build routes with "
                    f"v{HASH_SCHEME_VERSION} — rebuild the lake (or read "
                    "with the matching build) instead of resuming"
                )
            return meta
        payload = {
            "num_partitions": num_partitions,
            "mode": mode,
            "pk": pk,
            "cursor": cursor,
            "generation": generation,
            "hash_scheme": HASH_SCHEME_VERSION,
            **extra,
        }
        _atomic_write_json(meta_path, payload)
        return self.table_meta()

    def table_meta(self) -> dict:
        with open(self.root / "_meta.json") as f:
            return json.load(f)

    def exists(self) -> bool:
        return (self.root / "_meta.json").exists()

    def bump_generation(self) -> int:
        """Overwrite (A3): start a new generation.  The flip happens at sync
        START — matching the reference, whose overwrite path deletes all
        prior rows before writing new data (destination.go:198-241) — so the
        old generation's rows become invisible immediately; its files remain
        on disk for manual rollback until vacuumed."""
        generation = int(self.table_meta()["generation"]) + 1
        self.update_meta(generation=generation)
        return generation

    def update_meta(self, **fields) -> dict:
        """Atomically mutate table metadata (tmp + rename; no CAS needed —
        a single driver writes meta).  Used by maintenance ops whose LAST
        step is a metadata flip — e.g. partition evolution commits its
        rewritten generation by updating ``generation`` + ``num_partitions``
        in one write, so a crash before the flip leaves the old layout fully
        intact.  A ``None`` value REMOVES the key (used by write-audit-
        publish to drop the ``published_generation`` pin in the same
        atomic write that makes the staged generation visible)."""
        meta = self.table_meta()
        meta.update(fields)
        # None removal is scoped to the keys passed IN THIS CALL — a
        # pre-existing legitimately-null field must survive maintenance ops
        for k, v in fields.items():
            if v is None:
                meta.pop(k, None)
        tmp = self.root / "_meta.json.tmp"
        with open(tmp, "w") as f:
            json.dump(meta, f, sort_keys=True)
        os.replace(tmp, self.root / "_meta.json")
        return meta

    def drop_table(self) -> None:
        """Full reset (A4; reference deleteAllDataSources destination.go:516-574)."""
        import shutil

        if self.root.exists():
            shutil.rmtree(self.root)

    # -- partition data paths ----------------------------------------------
    def partition_dir(self, generation: int, partition: int) -> Path:
        return self.root / f"gen={generation:04d}" / "parts" / f"p={partition:05d}"

    # -- manifest CAS -------------------------------------------------------
    def commit(self, m: PartitionManifest) -> bool:
        """Atomically commit a partition manifest. True iff this call won.

        Serializes a shallow field dict: ``dataclasses.asdict`` would
        deep-copy the per-file ``stats`` map on every commit for the same
        JSON bytes."""
        payload = {f.name: getattr(m, f.name) for f in fields(m)}
        return _atomic_write_json(self.manifest_dir / f"{m.key}.json", payload)

    def get(self, generation: int, epoch: int, partition: int) -> PartitionManifest | None:
        name = ManifestName(generation, epoch, partition)
        if not (self.manifest_dir / f"{name.key}.json").exists():
            return None
        return self._read_manifest(name)

    def is_committed(self, generation: int, epoch: int, partition: int) -> bool:
        key = ManifestName(generation, epoch, partition).key
        return (self.manifest_dir / f"{key}.json").exists()

    def _read_manifest(self, name: ManifestName) -> PartitionManifest:
        """Open and parse one manifest body — every read of one goes here."""
        with open(self.manifest_dir / f"{name.key}.json") as f:
            return PartitionManifest(**json.load(f))

    def manifest_names(
        self, generation: int, partitions=None
    ) -> list[ManifestName]:
        """Names of a generation's manifests — one directory listing, no
        body opened.  With ``partitions`` (ids), only those partitions'."""
        try:
            names = os.listdir(self.manifest_dir)
        except FileNotFoundError:
            return []
        prefix = f"g{generation:04d}-"
        # the partition filter compares the key's "-p<P>.json" tail as a
        # string: parsing every name of a deep table costs more than
        # listing it, and a one-partition lookup needs 1/P of them
        wanted = (
            None if partitions is None
            else {f"-p{int(p):05d}.json" for p in partitions}
        )
        out = []
        for name in names:
            if not name.startswith(prefix) or (
                wanted is not None and name[name.rfind("-p"):] not in wanted
            ):
                continue
            n = ManifestName.parse(name)
            if n is not None:
                out.append(n)
        return out

    def _iter_manifests(
        self, generation: int, partitions=None
    ) -> list[PartitionManifest]:
        """Every manifest body of a generation (of ``partitions`` only,
        filtered by name before parsing).  Only readers that need the whole
        history use this — additive tables, lineage, rollback; table state
        comes from :meth:`table_state`."""
        return [
            self._read_manifest(n)
            for n in self.manifest_names(generation, partitions)
        ]

    def table_state(
        self, generation: int, *, max_epoch: int | None = None, partitions=None
    ) -> dict[int, PartitionManifest]:
        """Table state as of source epoch ``max_epoch``: partition → winning
        manifest, by :func:`resolve_state`.

        Recency is resolved from the names (see the module docstring):
        per partition only the highest source epoch ≤ ``max_epoch`` can win
        among the non-lane manifests, so that one is parsed; every
        compaction-lane manifest of the wanted partitions is parsed too,
        because its rank is the ``covers_epoch`` in its body."""
        best: dict[int, ManifestName] = {}
        candidates = []
        for n in self.manifest_names(generation, partitions):
            if n.epoch >= COMPACTION_EPOCH_BASE:
                candidates.append(n)
            elif max_epoch is None or n.epoch <= max_epoch:
                cur = best.get(n.partition)
                if cur is None or n.epoch > cur.epoch:
                    best[n.partition] = n
        candidates.extend(best.values())
        return resolve_state(
            (self._read_manifest(n) for n in candidates), max_epoch=max_epoch
        )

    def latest_snapshot(
        self, generation: int, partition: int, *, max_epoch: int | None = None
    ) -> PartitionManifest | None:
        """One partition's winning manifest (:meth:`table_state`)."""
        return self.table_state(
            generation, max_epoch=max_epoch, partitions=(partition,)
        ).get(partition)

    def committed_files(self, generation: int, *, mode: str) -> list[str]:
        """All files of the current table state (active generation)."""
        return [f for f, _ in self.committed_files_versioned(generation, mode=mode)]

    def committed_files_versioned(
        self, generation: int, *, mode: str, partitions=None,
        max_epoch: int | None = None, with_stats: bool = False,
    ) -> list:
        """Current file set as (path, schema_version) pairs.

        Snapshot tables (append_dedup): latest manifest per partition.
        Additive tables (append, overwrite — overwrite is append within a
        fresh generation): union of every committed manifest's files.  A
        partition untouched since an older schema version keeps its
        old-version files — readers align.

        ``partitions`` (a set of partition ids) prunes the listing to those
        partitions — the manifest IS the zone map: a point lookup of k keys
        touches at most k partition directories, never the table.

        ``max_epoch`` = time travel: the file set as of source epoch
        ``max_epoch`` (manifests whose covered source epoch is newer are
        ignored — same recency rule as :meth:`table_state`, so a
        compaction covering epochs ≤ E serves an as-of-E read).  History
        exists within the ACTIVE generation only (an overwrite flip starts
        a new timeline) and only until ``vacuum`` reclaims superseded
        files.
        """
        if mode in ("append", "overwrite"):
            manifests = sorted(
                (
                    m for m in self._iter_manifests(generation, partitions)
                    if max_epoch is None or m.effective_epoch <= max_epoch
                ),
                key=lambda m: (m.partition, m.epoch),
            )
        else:
            state = self.table_state(
                generation, max_epoch=max_epoch, partitions=partitions
            )
            manifests = [m for _, m in sorted(state.items())]
        if with_stats:
            return [
                (f, m.schema_version, m.stats.get(f))
                for m in manifests for f in m.files
            ]
        return [(f, m.schema_version) for m in manifests for f in m.files]

    # -- checkpoints ---------------------------------------------------------
    def vacuum(self, *, keep_generations: int = 0) -> dict:
        """Reclaim storage the current table state no longer references:

        - data directories of superseded generations (an overwrite flip
          makes the whole old generation invisible; ``keep_generations``
          retains that many most-recent old generations for rollback);
        - parquet files in the CURRENT generation not referenced by the
          latest committed manifest of any partition (delta stacks folded
          by compaction leave their inputs unreferenced on disk).

        Trades away resume/time-travel to epochs older than each
        partition's latest manifest — run it from the maintenance loop
        (``tail_binlog``-style ownership), never concurrently with a sync
        of the same table.  Manifests themselves are kept (tiny, and they
        document lineage).  Returns counts of removed files/dirs.
        """
        import shutil

        meta = self.table_meta()
        current = int(meta["generation"])
        # during write-audit-publish the READERS' generation is pinned to
        # published_generation — vacuum must never reclaim it while staged
        published = meta.get("published_generation")
        removed_dirs = 0
        removed_files = 0
        for d in sorted(self.root.glob("gen=*")):
            gen = int(d.name.split("=")[1])
            if gen < current - keep_generations and gen != published:
                shutil.rmtree(d)
                removed_dirs += 1
        referenced = {
            f for f, _ in self.committed_files_versioned(
                current, mode=meta["mode"]
            )
        }
        gen_dir = self.root / f"gen={current:04d}" / "parts"
        if gen_dir.exists():
            for f in gen_dir.rglob("*.parquet"):
                rel = str(f.relative_to(self.root.parent))
                if rel not in referenced:
                    f.unlink()
                    removed_files += 1
        return {
            "table": self.root.name,
            "generation": current,
            "removed_generation_dirs": removed_dirs,
            "removed_files": removed_files,
        }

    def write_checkpoint(self, generation: int, epoch: int, payload: dict) -> bool:
        """Epoch checkpoint: durable only after every partition manifest of
        the epoch is committed (the STATE-echo barrier, S6)."""
        payload = dict(payload, generation=generation, epoch=epoch)
        return _atomic_write_json(
            self.checkpoint_dir / f"g{generation:04d}-e{epoch:06d}.json", payload
        )

    def last_checkpoint(self, generation: int) -> dict | None:
        if not self.checkpoint_dir.exists():
            return None
        best: dict | None = None
        prefix = f"g{generation:04d}-"
        for p in self.checkpoint_dir.iterdir():
            if not (p.name.startswith(prefix) and p.name.endswith(".json")):
                continue
            with open(p) as f:
                payload = json.load(f)
            if best is None or payload["epoch"] > best["epoch"]:
                best = payload
        return best

    def fsck(self, *, check_row_counts: bool = True) -> dict:
        """Lake consistency check (report-only; no mutation, no Ray):

        - every file the CURRENT committed state references exists;
        - (snapshot tables) each partition's latest-manifest ``row_count``
          equals the Parquet-footer row total of its files — catches
          truncated/partial writes a crash could leave if atomic-rename
          discipline were ever violated;
        - orphan files in the current generation no manifest references
          (safe but reclaimable — what ``vacuum`` would delete).

        Returns ``{"ok": bool, "missing": [...], "rowcount_mismatches":
        [...], "orphans": [...]}``.  Footer reads only — cost is O(files)
        metadata, never a data scan.
        """
        meta = self.table_meta()
        current = int(meta["generation"])
        mode = meta["mode"]
        missing: list[str] = []
        mismatches: list[dict] = []

        check_set = (
            list(self.table_state(current).values())
            if mode == "append_dedup"
            else self._iter_manifests(current)
        )
        referenced: set[str] = set()
        for m in check_set:
            total = 0
            have_all = True
            for f in m.files:
                referenced.add(f)
                path = self.root.parent / f
                if not path.exists():
                    missing.append(f)
                    have_all = False
                    continue
                if check_row_counts:
                    import pyarrow.parquet as pq

                    total += pq.ParquetFile(path).metadata.num_rows
            if (
                check_row_counts
                and have_all
                and mode == "append_dedup"
                and meta.get("merge_strategy") != "delta"
                and total != m.row_count
            ):
                mismatches.append(
                    {
                        "partition": m.partition,
                        "epoch": m.epoch,
                        "manifest_rows": m.row_count,
                        "parquet_rows": total,
                    }
                )
        # orphans: same rule as vacuum (``referenced`` is exactly the
        # committed file set), but report instead of delete
        orphans: list[str] = []
        gen_dir = self.root / f"gen={current:04d}" / "parts"
        if gen_dir.exists():
            for f in gen_dir.rglob("*.parquet"):
                rel = str(f.relative_to(self.root.parent))
                if rel not in referenced:
                    orphans.append(rel)
        return {
            "table": self.root.name,
            "generation": current,
            "ok": not missing and not mismatches,
            "missing": sorted(missing),
            "rowcount_mismatches": mismatches,
            "orphans": sorted(orphans),
        }
