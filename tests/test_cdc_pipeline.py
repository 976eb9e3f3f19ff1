"""End-to-end CDC pipeline tests: oracle equality, replay equivalence,
resume-from-checkpoint, idempotent re-delivery, sync modes.

Mirrors the engine test plan of SURVEY.md §5: (2) epoch-boundary behavior,
(3) replay-equivalence — full run vs resume-from-checkpoint run must be
byte-identical, including byte-identical ``text`` per ``url`` (BASELINE.json
input_hint invariant).
"""

import duckdb
import pyarrow as pa
import pytest

from airbyte_destination_ray.pipelines.cdc import (
    read_table,
    read_table_arrow,
    run_cdc_sync,
)
from airbyte_destination_ray.sources.synth import (
    synthesize_binlog,
    write_custom_binlog,
)
from airbyte_destination_ray.state.manifest import ManifestStore

N_EVENTS, N_KEYS, N_EPOCHS, PARTS = 3000, 500, 3, 8


@pytest.fixture(scope="module")
def binlog(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("binlog")
    synthesize_binlog(d, n_events=N_EVENTS, n_keys=N_KEYS, n_epochs=N_EPOCHS, seed=42)
    return str(d)


def oracle_lww(binlog_dir: str) -> pa.Table:
    return duckdb.connect().execute(
        f"""
        WITH events AS (SELECT * FROM read_parquet('{binlog_dir}/segment-*.parquet')),
        dedup AS (SELECT DISTINCT ON (seq) * FROM events ORDER BY seq),
        win AS (SELECT *, row_number() OVER
                (PARTITION BY url ORDER BY warc_ts DESC, seq DESC) rn FROM dedup)
        SELECT url, warc_ts, html, text, lang FROM win
        WHERE rn = 1 AND op <> 'D' ORDER BY url
        """
    ).arrow()


def lake_state(lake: str, table: str = "pages") -> pa.Table:
    t = read_table_arrow(lake, table)
    return t.select(["url", "warc_ts", "html", "text", "lang"]).sort_by("url")


def partition_digests(lake: str, table: str = "pages") -> dict[int, str]:
    store = ManifestStore(lake, table)
    meta = store.table_meta()
    out = {}
    for p in range(meta["num_partitions"]):
        m = store.latest_snapshot(meta["generation"], p)
        if m is not None:
            out[p] = m.digest
    return out


def test_sync_matches_duckdb_oracle(binlog, tmp_path):
    lake = str(tmp_path / "lake")
    res = run_cdc_sync(lake, binlog, num_partitions=PARTS)
    assert [e["epoch"] for e in res["epochs"]] == list(range(N_EPOCHS))
    mine = lake_state(lake)
    orc = oracle_lww(binlog).cast(mine.schema)
    assert mine.num_rows == orc.num_rows
    assert mine.equals(orc)  # byte-identical text/html per url


def test_rerun_is_noop(binlog, tmp_path):
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    d1 = partition_digests(lake)
    res2 = run_cdc_sync(lake, binlog, num_partitions=PARTS)
    assert all(e["skipped"] for e in res2["epochs"])
    assert partition_digests(lake) == d1


def test_resume_from_every_checkpoint_is_byte_identical(binlog, tmp_path):
    full = str(tmp_path / "full")
    run_cdc_sync(full, binlog, num_partitions=PARTS)
    want_digests = partition_digests(full)
    want_state = lake_state(full)
    for stop_after in range(N_EPOCHS - 1):
        lake = str(tmp_path / f"resume{stop_after}")
        run_cdc_sync(lake, binlog, num_partitions=PARTS,
                     epochs=list(range(stop_after + 1)))
        res = run_cdc_sync(lake, binlog, num_partitions=PARTS)  # resume
        done = [e["epoch"] for e in res["epochs"] if e.get("skipped")]
        assert done == list(range(stop_after + 1))
        assert partition_digests(lake) == want_digests
        assert lake_state(lake).equals(want_state)


def test_tombstone_beats_late_older_update(tmp_path, ray_session):
    blog = str(tmp_path / "blog")
    write_custom_binlog(blog, [
        dict(seq=0, epoch=0, op="I", url="u", warc_ts=100, text="v1", lang="en",
             html=b"<v1>"),
        dict(seq=1, epoch=1, op="D", url="u", warc_ts=300),
        dict(seq=2, epoch=2, op="U", url="u", warc_ts=200, text="late", lang="en",
             html=b"<late>"),
        dict(seq=3, epoch=2, op="I", url="w", warc_ts=50, text="w1", lang="de",
             html=b"<w1>"),
    ])
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, blog, num_partitions=2)
    state = lake_state(lake)
    assert state.column("url").to_pylist() == ["w"]  # "u" stays deleted


def test_redelivered_events_are_idempotent(tmp_path, ray_session):
    blog = str(tmp_path / "blog")
    ev = dict(seq=0, epoch=0, op="I", url="u", warc_ts=100, text="v1", lang="en",
              html=b"x")
    write_custom_binlog(blog, [
        ev,
        dict(ev, epoch=1),                      # exact re-delivery in next epoch
        dict(seq=1, epoch=1, op="U", url="u", warc_ts=200, text="v2", lang="en",
             html=b"y"),
    ])
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, blog, num_partitions=2)
    state = lake_state(lake)
    assert state.num_rows == 1
    assert state.column("text").to_pylist() == ["v2"]


def test_append_mode_keeps_every_event_but_dedups_redelivery(tmp_path, ray_session):
    # reference golden: append keeps the duplicated id=7 record *within* the
    # stream (e2e/main_test.go:70-71), while replayed (same-seq) events across
    # epochs are absorbed
    blog = str(tmp_path / "blog")
    write_custom_binlog(blog, [
        dict(seq=0, epoch=0, op="I", url="u", warc_ts=100, text="a", lang="en", html=b""),
        dict(seq=1, epoch=0, op="I", url="u", warc_ts=100, text="a", lang="en", html=b""),
        dict(seq=0, epoch=1, op="I", url="u", warc_ts=100, text="a", lang="en", html=b""),
        dict(seq=2, epoch=1, op="I", url="v", warc_ts=150, text="b", lang="en", html=b""),
    ])
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, blog, table="log", mode="append", num_partitions=2)
    t = read_table_arrow(lake, "log", include_meta=True)
    # seq 0 and 1 kept (distinct events, same payload); re-delivered seq 0 dropped
    assert sorted(t.column("_seq").to_pylist()) == [0, 1, 2]


def test_overwrite_mode_replaces_previous_generation(tmp_path, ray_session):
    blog1 = str(tmp_path / "b1")
    write_custom_binlog(blog1, [
        dict(seq=0, epoch=0, op="I", url="old", warc_ts=1, text="old", lang="en", html=b""),
    ])
    blog2 = str(tmp_path / "b2")
    write_custom_binlog(blog2, [
        dict(seq=0, epoch=0, op="I", url="new", warc_ts=2, text="new", lang="en", html=b""),
    ])
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, blog1, table="ow", mode="overwrite", num_partitions=2, resume=False)
    run_cdc_sync(lake, blog2, table="ow", mode="overwrite", num_partitions=2, resume=False)
    t = read_table_arrow(lake, "ow")
    assert t.column("url").to_pylist() == ["new"]


def test_read_table_dataset_streams(binlog, tmp_path):
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    ds = read_table(lake, "pages", columns=["url", "lang"])
    assert ds.count() == lake_state(lake).num_rows
    assert set(ds.schema().names) == {"url", "lang"}


def test_enriched_sync_replay_equivalence(binlog, tmp_path):
    """The enriched pipeline (in-flight lang-id/quality/tokens/fingerprint)
    is deterministic too: full run vs resumed run → identical digests, and
    payload columns still match the LWW oracle."""
    lake_a = str(tmp_path / "lake_a")
    lake_b = str(tmp_path / "lake_b")
    run_cdc_sync(lake_a, binlog, num_partitions=PARTS, enrich=True)
    # interrupted run: epoch 0 only, then resume the rest
    run_cdc_sync(lake_b, binlog, num_partitions=PARTS, enrich=True, epochs=[0])
    run_cdc_sync(lake_b, binlog, num_partitions=PARTS, enrich=True)
    assert partition_digests(lake_a) == partition_digests(lake_b)
    t = read_table_arrow(lake_a, "pages")
    for col in ("lang_id", "quality", "n_tokens", "fingerprint"):
        assert col in t.column_names
    assert lake_state(lake_a).equals(
        oracle_lww(binlog).cast(lake_state(lake_a).schema)
    )


def test_key_only_shuffle_matches_payload_shuffle(binlog, tmp_path):
    """shuffle="key_only" (two-pass wide-payload merge, SURVEY §7 (c)) must
    produce byte-identical lake state AND identical partition digests to the
    default payload shuffle — across epochs, deletes, redelivery, skew."""
    a, b = tmp_path / "payload", tmp_path / "key_only"
    run_cdc_sync(str(a), binlog, num_partitions=PARTS, shuffle="payload")
    run_cdc_sync(str(b), binlog, num_partitions=PARTS, shuffle="key_only")
    assert lake_state(str(a)).equals(lake_state(str(b)))
    assert partition_digests(str(a)) == partition_digests(str(b))


def test_key_only_winner_cap_falls_back_to_payload(binlog, tmp_path):
    """key_only_max_winners=1 forces every epoch over the broadcast budget:
    the sync must fall back to the payload shuffle per epoch and still
    produce byte-identical lake state (the cap is purely an exchange-volume
    guard, never a correctness fork).  Each epoch summary names the
    exchange it actually ran, so the fallback is visible."""
    a, b = tmp_path / "payload", tmp_path / "capped"
    run_cdc_sync(str(a), binlog, num_partitions=PARTS, shuffle="payload")
    summary = run_cdc_sync(
        str(b), binlog, num_partitions=PARTS, shuffle="key_only",
        key_only_max_winners=1,
    )
    assert summary["epochs"]
    assert [e["shuffle"] for e in summary["epochs"]] == ["payload"] * len(
        summary["epochs"]
    )
    assert lake_state(str(a)).equals(lake_state(str(b)))
    assert partition_digests(str(a)) == partition_digests(str(b))


def test_key_only_shuffle_matches_oracle_and_resumes(binlog, tmp_path):
    lake = tmp_path / "lake"
    first = run_cdc_sync(str(lake), binlog, num_partitions=PARTS,
                         shuffle="key_only", epochs=[0, 1])
    # resume the remaining epoch; committed epochs are skipped
    summary = run_cdc_sync(str(lake), binlog, num_partitions=PARTS,
                           shuffle="key_only")
    skipped = [e["epoch"] for e in summary["epochs"] if e.get("skipped")]
    assert skipped == [0, 1]
    fresh = first["epochs"] + [e for e in summary["epochs"] if not e["skipped"]]
    assert [e["shuffle"] for e in fresh] == ["key_only"] * N_EPOCHS
    assert lake_state(str(lake)).equals(oracle_lww(binlog))


def test_tail_binlog_picks_up_new_epochs(tmp_path, ray_session):
    """Continuous tail mode: epochs appended to the binlog mid-tail are
    synced on the next poll; already-committed epochs are never re-done."""
    from airbyte_destination_ray.pipelines.cdc import tail_binlog

    binlog = tmp_path / "binlog"
    lake = tmp_path / "lake"
    ts0 = 1_700_000_000_000_000

    def row(seq, epoch, url, ts, op="I"):
        return dict(seq=seq, epoch=epoch, op=op, url=url, warc_ts=ts,
                    html=b"<x>", text=f"t{seq}", lang="en")

    rows01 = [row(0, 0, "u/a", ts0), row(1, 0, "u/b", ts0 + 1),
              row(2, 1, "u/a", ts0 + 2)]
    rows2 = [row(3, 2, "u/c", ts0 + 3), row(4, 2, "u/b", ts0 + 4, op="D")]
    write_custom_binlog(binlog, rows01)

    state = {"added": False}

    def on_epoch(e):
        if e["epoch"] == 1 and not state["added"]:
            write_custom_binlog(binlog, rows01 + rows2)
            state["added"] = True

    summary = tail_binlog(
        str(lake), str(binlog), poll_interval=0.05, max_idle_polls=2,
        num_partitions=4, on_epoch=on_epoch,
    )
    assert summary["epochs_synced"] == [0, 1, 2]
    t = lake_state(str(lake))
    # u/b deleted in epoch 2; u/a latest version from epoch 1; u/c inserted
    assert t.column("url").to_pylist() == ["u/a", "u/c"]
    assert t.column("text").to_pylist() == ["t2", "t3"]


@pytest.mark.parametrize("strategy", ["snapshot", "delta"])
def test_read_table_column_pushdown(binlog, tmp_path, strategy):
    """read_table(columns=...) pushes projection into the Parquet read (the
    html payload must not be decoded to list urls) and matches the full
    read's values, for snapshot files and for LWW-folded delta stacks."""
    lake = tmp_path / "lake"
    run_cdc_sync(str(lake), binlog, num_partitions=PARTS, merge_strategy=strategy)
    full = read_table(str(lake), "pages").to_pandas()
    pruned = read_table(str(lake), "pages", columns=["url", "lang"]).to_pandas()
    assert sorted(pruned.columns) == ["lang", "url"]
    a = full[["url", "lang"]].sort_values(["url", "lang"]).reset_index(drop=True)
    b = pruned.sort_values(["url", "lang"]).reset_index(drop=True)
    assert a.equals(b)


def test_tail_auto_compaction(binlog, tmp_path):
    """Tailing a delta-strategy table with compact_every_epochs folds the
    per-partition stacks; the read view is unchanged."""
    from airbyte_destination_ray.pipelines.cdc import tail_binlog

    lake = tmp_path / "lake"
    ref = tmp_path / "ref"
    run_cdc_sync(str(ref), binlog, num_partitions=PARTS)
    summary = tail_binlog(
        str(lake), binlog, poll_interval=0.05, max_idle_polls=1,
        num_partitions=PARTS, merge_strategy="delta", compact_every=99,
        compact_every_epochs=2,
    )
    assert summary["compactions"] >= 1
    assert lake_state(str(lake)).equals(lake_state(str(ref)))
    # post-compaction stacks are single-file
    from airbyte_destination_ray.pipelines.cdc import _delta_partition_stacks

    store = ManifestStore(str(lake), "pages")
    meta = store.table_meta()
    stacks = _delta_partition_stacks(store, meta)
    # epochs 0-1 compacted into one file; epoch 2 (synced after the
    # compaction trigger) may add one delta on top
    assert all(len(s["files"]) <= 2 for s in stacks)


def test_tail_vacuum_after_compact(binlog, tmp_path):
    """vacuum_after_compact reclaims the delta files each compaction folds;
    the read view is unchanged."""
    from pathlib import Path

    from airbyte_destination_ray.pipelines.cdc import tail_binlog

    lake = tmp_path / "lake"
    ref = tmp_path / "ref"
    run_cdc_sync(str(ref), binlog, num_partitions=PARTS)
    no_vac = tmp_path / "novac"
    tail_binlog(
        str(no_vac), binlog, poll_interval=0.05, max_idle_polls=1,
        num_partitions=PARTS, merge_strategy="delta", compact_every=99,
        compact_every_epochs=2,
    )
    summary = tail_binlog(
        str(lake), binlog, poll_interval=0.05, max_idle_polls=1,
        num_partitions=PARTS, merge_strategy="delta", compact_every=99,
        compact_every_epochs=2, vacuum_after_compact=True,
    )
    assert summary["compactions"] >= 1
    n_vac = len(list(Path(lake, "pages").rglob("*.parquet")))
    n_novac = len(list(Path(no_vac, "pages").rglob("*.parquet")))
    assert n_vac < n_novac
    assert lake_state(str(lake)).equals(lake_state(str(ref)))


def test_lookup_rows_point_reads_only_needed_partitions(binlog, tmp_path):
    """lookup_rows returns exactly the LWW winners for the requested keys
    (tombstoned and missing keys absent) and touches ONLY the partitions
    the keys hash to — proven by deleting every other partition's data
    files from disk before the lookup."""
    import duckdb
    import numpy as np

    from airbyte_destination_ray.functions.hashing import partition_ids
    from airbyte_destination_ray.pipelines.cdc import lookup_rows

    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    oracle = oracle_lww(binlog)
    all_urls = oracle.column("url").to_pylist()
    live = sorted(all_urls)
    con = duckdb.connect()
    deleted = con.execute(
        f"""
        WITH events AS (SELECT * FROM read_parquet('{binlog}/segment-*.parquet')),
        win AS (SELECT *, row_number() OVER
                (PARTITION BY url ORDER BY warc_ts DESC, seq DESC) rn FROM events)
        SELECT url FROM win WHERE rn = 1 AND op = 'D' LIMIT 1
        """
    ).fetchall()
    keys = live[:3] + [d[0] for d in deleted] + ["url-does-not-exist"]

    got = (
        lookup_rows(lake, "pages", keys)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = (
        oracle.filter(
            pa.compute.is_in(oracle.column("url"), value_set=pa.array(keys))
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
    )
    assert len(got) == 3  # tombstoned + missing keys return nothing

    # prune proof: nuke every partition directory the keys do NOT hash to
    one_key = [live[0]]
    wanted = set(
        partition_ids(pa.array(one_key), PARTS).tolist()
    )
    store = ManifestStore(lake, "pages")
    meta = store.table_meta()
    import pathlib

    n_removed = 0
    for f, _v in store.committed_files_versioned(
        meta["generation"], mode=meta["mode"]
    ):
        part = int([s for s in f.split("/") if s.startswith("p=")][0][2:])
        if part not in wanted:
            (pathlib.Path(lake) / f).unlink()
            n_removed += 1
    assert n_removed > 0
    got_one = lookup_rows(lake, "pages", one_key).to_pandas()
    exp_one = exp[exp["url"] == one_key[0]].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_one[sorted(got_one.columns)].reset_index(drop=True),
        exp_one[sorted(exp_one.columns)],
        check_dtype=False,
    )


def test_lookup_rows_delta_strategy_and_columns(binlog, tmp_path):
    """The delta (LSM) lake compacts only the wanted partitions' stacks;
    column pruning keeps the pk out of the result unless requested."""
    from airbyte_destination_ray.pipelines.cdc import lookup_rows

    lake = str(tmp_path / "lake_delta")
    run_cdc_sync(lake, binlog, num_partitions=PARTS, merge_strategy="delta")
    oracle = oracle_lww(binlog)
    keys = sorted(oracle.column("url").to_pylist())[:5]
    got = (
        lookup_rows(lake, "pages", keys, columns=["url", "lang"])
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = (
        oracle.filter(
            pa.compute.is_in(oracle.column("url"), value_set=pa.array(keys))
        )
        .select(["url", "lang"])
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert list(got.columns) == ["url", "lang"]


# ---------------------------------------------------------------------------
# time travel (read_table as_of_epoch)
# ---------------------------------------------------------------------------


def _oracle_lww_upto(binlog_dir: str, max_epoch: int) -> pa.Table:
    globs = ",".join(
        f"'{binlog_dir}/segment-e{e:05d}-*.parquet'" for e in range(max_epoch + 1)
    )
    return duckdb.connect().execute(
        f"""
        WITH events AS (SELECT * FROM read_parquet([{globs}])),
        dedup AS (SELECT DISTINCT ON (seq) * FROM events ORDER BY seq),
        win AS (SELECT *, row_number() OVER
                (PARTITION BY url ORDER BY warc_ts DESC, seq DESC) rn FROM dedup)
        SELECT url, warc_ts, html, text, lang FROM win
        WHERE rn = 1 AND op <> 'D' ORDER BY url
        """
    ).arrow()


def _collect_as_of(lake: str, epoch: int, table: str = "pages") -> pa.Table:
    ds = read_table(lake, table, as_of_epoch=epoch)
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    return t.select(["url", "warc_ts", "html", "text", "lang"]).sort_by("url")


def test_time_travel_every_epoch_matches_oracle(binlog, tmp_path):
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    for e in range(N_EPOCHS):
        got = _collect_as_of(lake, e)
        want = _oracle_lww_upto(binlog, e)
        assert got.equals(want), f"as_of_epoch={e} mismatch"
    # as-of the last epoch == the current read
    assert _collect_as_of(lake, N_EPOCHS - 1).equals(lake_state(lake))


def test_time_travel_delta_strategy_matches_snapshot(binlog, tmp_path):
    snap = str(tmp_path / "snap")
    delt = str(tmp_path / "delta")
    run_cdc_sync(snap, binlog, num_partitions=PARTS)
    run_cdc_sync(delt, binlog, num_partitions=PARTS, merge_strategy="delta")
    for e in range(N_EPOCHS):
        assert _collect_as_of(delt, e).equals(_collect_as_of(snap, e))


# ---------------------------------------------------------------------------
# delete_rows (GDPR lake rewrite)
# ---------------------------------------------------------------------------


def test_delete_rows_removes_keys_preserves_rest(binlog, tmp_path):
    from airbyte_destination_ray.pipelines.cdc import delete_rows

    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    before = lake_state(lake)
    victims = before.column("url").to_pylist()[:7]
    res = delete_rows(lake, "pages", victims)
    assert res["rows_removed"] >= len(victims)
    after = lake_state(lake)
    kept_urls = set(after.column("url").to_pylist())
    assert kept_urls.isdisjoint(victims)
    # surviving rows byte-identical to the pre-delete state minus victims
    import pyarrow.compute as pc

    expected = before.filter(
        pc.invert(pc.is_in(before.column("url"), value_set=pa.array(victims)))
    )
    assert after.equals(expected)
    # idempotent: deleting the same keys again changes nothing
    delete_rows(lake, "pages", victims)
    assert lake_state(lake).equals(expected)


def test_delete_rows_later_epoch_reinserts_key(tmp_path, ray_session):
    """Deletion removes history, not the key's future: a later source epoch
    outranks the delete manifest and reinserts the key; replaying already-
    committed epochs stays a no-op (no resurrection)."""
    from airbyte_destination_ray.pipelines.cdc import delete_rows

    blog = tmp_path / "blog"
    rows = [
        dict(seq=1, epoch=0, op="U", url="a", warc_ts=100, text="a0", lang="en"),
        dict(seq=2, epoch=0, op="U", url="b", warc_ts=100, text="b0", lang="en"),
        dict(seq=3, epoch=1, op="U", url="a", warc_ts=200, text="a1", lang="en"),
    ]
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=2, epochs=[0])
    delete_rows(lake, "pages", ["a"])
    st = lake_state(lake)
    assert st.column("url").to_pylist() == ["b"]
    # replay epoch 0 (already committed): still deleted
    run_cdc_sync(lake, str(blog), num_partitions=2, epochs=[0])
    assert lake_state(lake).column("url").to_pylist() == ["b"]
    # apply epoch 1: 'a' comes back with the NEW version only
    run_cdc_sync(lake, str(blog), num_partitions=2)
    st = lake_state(lake)
    assert st.column("url").to_pylist() == ["a", "b"]
    assert st.column("text").to_pylist() == ["a1", "b0"]


def test_delete_rows_can_empty_a_partition(tmp_path, ray_session):
    from airbyte_destination_ray.pipelines.cdc import delete_rows

    blog = tmp_path / "blog"
    rows = [
        dict(seq=i, epoch=0, op="U", url=f"u{i}", warc_ts=100 + i,
             text=f"t{i}", lang="en")
        for i in range(6)
    ]
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=2)
    res = delete_rows(lake, "pages", [f"u{i}" for i in range(6)])
    assert res["rows_removed"] == 6
    assert lake_state(lake).num_rows == 0


def test_delete_rows_delta_strategy(tmp_path, binlog):
    from airbyte_destination_ray.pipelines.cdc import delete_rows

    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS, merge_strategy="delta")
    before = lake_state(lake)
    victims = before.column("url").to_pylist()[-5:]
    delete_rows(lake, "pages", victims)
    import pyarrow.compute as pc

    expected = before.filter(
        pc.invert(pc.is_in(before.column("url"), value_set=pa.array(victims)))
    )
    assert lake_state(lake).equals(expected)


# ---------------------------------------------------------------------------
# change_feed (CDF between epochs)
# ---------------------------------------------------------------------------


def _feed(lake, epoch):
    from airbyte_destination_ray.pipelines.cdc import change_feed

    ds = change_feed(lake, "pages", epoch=epoch, compare_cols=["text"])
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    return t.sort_by("url")


def test_change_feed_insert_update_delete_and_net_change(tmp_path, ray_session):
    blog = tmp_path / "blog"
    rows = [
        dict(seq=1, epoch=0, op="U", url="a", warc_ts=100, text="a0", lang="en"),
        dict(seq=2, epoch=0, op="U", url="b", warc_ts=100, text="b0", lang="en"),
        dict(seq=3, epoch=0, op="U", url="c", warc_ts=100, text="c0", lang="en"),
        # epoch 1: update a, delete b, touch c with IDENTICAL text (net
        # no-change), insert d
        dict(seq=4, epoch=1, op="U", url="a", warc_ts=200, text="a1", lang="en"),
        dict(seq=5, epoch=1, op="D", url="b", warc_ts=200, text=None, lang="en"),
        dict(seq=6, epoch=1, op="U", url="c", warc_ts=200, text="c0", lang="en"),
        dict(seq=7, epoch=1, op="U", url="d", warc_ts=200, text="d0", lang="en"),
    ]
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=2)
    # epoch 0 feed: everything is an insert
    f0 = _feed(lake, 0)
    assert f0.column("url").to_pylist() == ["a", "b", "c"]
    assert f0.column("op").to_pylist() == ["I", "I", "I"]
    assert f0.column("text_old").to_pylist() == [None, None, None]
    # epoch 1 feed: a updated, b deleted, c net-unchanged (absent), d inserted
    f1 = _feed(lake, 1)
    assert f1.column("url").to_pylist() == ["a", "b", "d"]
    assert f1.column("op").to_pylist() == ["U", "D", "I"]
    assert f1.column("text_old").to_pylist() == ["a0", "b0", None]
    assert f1.column("text_new").to_pylist() == ["a1", None, "d0"]


def test_zone_map_range_scan_prunes_files(tmp_path, ray_session):
    """Manifest zone maps (per-file column min/max recorded at commit) must
    prune an append-table range scan to only the epochs whose files can
    intersect the range — and the surviving files still get an exact row
    filter.  Snapshot lakes apply the same exact filter (pruning there is
    best-effort since each partition holds one hash-spread file)."""
    from airbyte_destination_ray.pipelines.cdc import _prune_files_by_stats

    blog = tmp_path / "blog"
    rows = []
    seq = 0
    for e in range(3):
        for i in range(20):
            seq += 1
            rows.append(
                dict(seq=seq, epoch=e, op="U", url=f"u{e}-{i:02d}",
                     warc_ts=e * 1000 + i, text=f"t{seq}", lang="en")
            )
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), mode="append", num_partitions=4)
    store = ManifestStore(lake, "pages")
    meta = store.table_meta()
    triples = store.committed_files_versioned(
        meta["generation"], mode="append", with_stats=True
    )
    assert triples and all(st and "warc_ts" in st for _, _, st in triples)
    kept = _prune_files_by_stats(triples, ("warc_ts", 1000, 1019))
    assert 0 < len(kept) < len(triples)
    assert all("e000001" in f for f, _ in kept), kept
    ds = read_table(
        lake, "pages", columns=["url", "warc_ts"],
        range_filter=("warc_ts", 1000, 1019),
    )
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert set(t.column("url").to_pylist()) == {f"u1-{i:02d}" for i in range(20)}
    assert sorted(t.column_names) == ["url", "warc_ts"]

    # snapshot (LWW) lake: exact filter over the merged visible state
    lake2 = str(tmp_path / "lake2")
    run_cdc_sync(lake2, str(blog), num_partitions=4)
    full = pa.concat_tables(
        list(
            read_table(lake2, "pages", columns=["url", "warc_ts"])
            .iter_batches(batch_format="pyarrow")
        )
    )
    ts_type = full.schema.field("warc_ts").type
    want = full.filter(
        pa.compute.and_(
            pa.compute.greater_equal(
                full.column("warc_ts"), pa.scalar(5, type=ts_type)
            ),
            pa.compute.less_equal(
                full.column("warc_ts"), pa.scalar(2005, type=ts_type)
            ),
        )
    ).sort_by("url")
    got = pa.concat_tables(
        list(
            read_table(
                lake2, "pages", columns=["url", "warc_ts"],
                range_filter=("warc_ts", 5, 2005),
            ).iter_batches(batch_format="pyarrow")
        )
    ).sort_by("url")
    assert got.equals(want)


def test_cluster_table_zone_map_selectivity(tmp_path, ray_session):
    """OPTIMIZE/cluster: rewriting each partition's snapshot sorted by a
    column and split into small files must (a) preserve the visible state
    exactly, (b) make zone maps selective — a narrow range prunes most
    files, (c) leave the lake fully syncable — the next epoch's LWW merge
    consumes the multi-file clustered prev state."""
    from airbyte_destination_ray.pipelines.cdc import (
        _prune_files_by_stats,
        cluster_table,
    )

    def mk_rows(epochs):
        rows = []
        for e in epochs:
            for i in range(200):
                rows.append(
                    dict(seq=e * 200 + i + 1, epoch=e, op="U",
                         url=f"u{i:03d}", warc_ts=(i * 13) % 2000 + e,
                         text=f"t{e}-{i}", lang="en")
                )
        return rows

    blog = tmp_path / "blog"
    write_custom_binlog(blog, mk_rows([0, 1]))
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=4)

    def state(lk):
        return pa.concat_tables(
            list(
                read_table(lk, "pages", columns=["url", "warc_ts", "text"])
                .iter_batches(batch_format="pyarrow")
            )
        ).sort_by("url")

    before = state(lake)
    res = cluster_table(lake, "pages", by="warc_ts", target_rows_per_file=10)
    assert res["clustered_partitions"] == 4
    after = state(lake)
    assert after.equals(before)

    store = ManifestStore(lake, "pages")
    meta = store.table_meta()
    triples = store.committed_files_versioned(
        meta["generation"], mode=meta["mode"], with_stats=True
    )
    assert len(triples) > 8  # split into many small files
    kept = _prune_files_by_stats(triples, ("warc_ts", 100, 200))
    assert 0 < len(kept) < len(triples) / 2  # zone maps now selective
    got = pa.concat_tables(
        list(
            read_table(
                lake, "pages", columns=["url", "warc_ts"],
                range_filter=("warc_ts", 100, 200),
            ).iter_batches(batch_format="pyarrow")
        )
    ).sort_by("url")
    ts_type = before.schema.field("warc_ts").type
    want = before.select(["url", "warc_ts"]).filter(
        pa.compute.and_(
            pa.compute.greater_equal(
                before.column("warc_ts"), pa.scalar(100, type=ts_type)
            ),
            pa.compute.less_equal(
                before.column("warc_ts"), pa.scalar(200, type=ts_type)
            ),
        )
    )
    assert got.equals(want)

    # next source epoch merges over the multi-file clustered prev state
    blog2 = tmp_path / "blog2"
    write_custom_binlog(blog2, mk_rows([0, 1, 2]))
    run_cdc_sync(lake, str(blog2), num_partitions=4)
    fresh = str(tmp_path / "fresh")
    run_cdc_sync(fresh, str(blog2), num_partitions=4)
    assert state(lake).equals(state(fresh))


def test_change_feed_copartitioned_fast_path(tmp_path, ray_session, monkeypatch):
    """The snapshot-table change feed must run exchange-free: no generic
    time-travel ``read_table`` calls (the co-partitioned per-partition diff
    reads manifest files directly), and its output must equal the generic
    two-reads + table_diff composition row-for-row."""
    import airbyte_destination_ray.pipelines.cdc as cdc_mod
    from airbyte_destination_ray.pipelines.relational import table_diff

    blog = tmp_path / "blog"
    synthesize_binlog(blog, n_events=2000, n_keys=300, n_epochs=3, seed=7)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=8)

    def generic(epoch):
        old = read_table(
            lake, "pages", columns=["url", "text", "lang"], as_of_epoch=epoch - 1
        )
        new = read_table(
            lake, "pages", columns=["url", "text", "lang"], as_of_epoch=epoch
        )
        ds = table_diff(old, new, key="url", compare_cols=["text", "lang"])
        return pa.concat_tables(
            list(ds.iter_batches(batch_format="pyarrow"))
        ).sort_by([("url", "ascending")])

    want = {e: generic(e) for e in (1, 2)}

    def boom(*a, **k):
        raise AssertionError("generic read_table path used — fast path not taken")

    monkeypatch.setattr(cdc_mod, "read_table", boom)
    for e in (1, 2):
        ds = cdc_mod.change_feed(
            lake, "pages", epoch=e, compare_cols=["text", "lang"]
        )
        got = pa.concat_tables(
            list(ds.iter_batches(batch_format="pyarrow"))
        ).sort_by([("url", "ascending")])
        assert got.select(want[e].column_names).equals(want[e]), f"epoch {e}"
        assert got.num_rows > 0


def test_delete_rows_string_keys_on_int_pk_lake(tmp_path, ray_session):
    """CLI key lists arrive as strings; routing must cast to the pk's
    NATIVE type before hashing or the wrong partitions get rewritten and
    nothing is deleted (stable_hash('13') != stable_hash(13))."""
    import pyarrow.parquet as pq

    from airbyte_destination_ray.pipelines.cdc import delete_rows
    from airbyte_destination_ray.pipelines.events_cdc import (
        build_binlog_from_events,
    )

    ev = pa.table(
        {
            "event_id": pa.array(range(1, 41), type=pa.int64()),
            "ts": pa.array(
                [1000 + i for i in range(40)], type=pa.timestamp("us")
            ),
            "user_id": pa.array([i % 10 for i in range(40)], type=pa.int64()),
            "event_type": pa.array(["u"] * 40),
            "value": pa.array([float(i) for i in range(40)]),
            "props": pa.array(["{}"] * 40),
        }
    )
    src = tmp_path / "events.parquet"
    pq.write_table(ev, src)
    blog = tmp_path / "blog"
    build_binlog_from_events(str(src), blog)
    from airbyte_destination_ray.pipelines.cdc import run_cdc_sync

    lake = str(tmp_path / "lake")
    run_cdc_sync(
        lake, str(blog), table="ev", pk="user_id", ver="ts",
        payload_columns=["event_id", "ts", "user_id", "event_type",
                         "value", "props"],
        num_partitions=8, compute_digest=False,
    )
    res = delete_rows(lake, "ev", ["3", "7"])  # strings, int64 pk
    assert res["rows_removed"] == 2
    left = read_table_arrow(lake, "ev")
    assert set(left.column("user_id").to_pylist()).isdisjoint({3, 7})


def test_repartition_table_preserves_state_and_syncs_on(binlog, tmp_path):
    """Partition evolution: rewrite under a new bucket count mid-stream,
    then keep syncing — LWW co-location must survive the re-route and the
    carried-forward checkpoint must keep exactly-once resume."""
    from airbyte_destination_ray.pipelines.cdc import repartition_table

    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS, epochs=[0, 1])
    before = lake_state(lake)
    res = repartition_table(lake, "pages", new_num_partitions=3)
    assert res["repartitioned"] and res["num_partitions"] == 3
    meta = ManifestStore(lake, "pages").table_meta()
    assert meta["num_partitions"] == 3
    assert meta["generation"] == res["generation"]
    assert lake_state(lake).equals(before)
    # continue with the remaining epoch under the NEW routing (the passed
    # num_partitions is ignored — persisted meta wins)
    res2 = run_cdc_sync(lake, binlog, num_partitions=PARTS)
    done = [e["epoch"] for e in res2["epochs"] if e.get("skipped")]
    assert done == [0, 1]  # carried-forward checkpoint skips synced epochs
    mine = lake_state(lake)
    orc = oracle_lww(binlog).cast(mine.schema)
    assert mine.equals(orc)


def test_repartition_table_noop_and_round_trip(binlog, tmp_path):
    from airbyte_destination_ray.pipelines.cdc import repartition_table

    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    before = lake_state(lake)
    assert repartition_table(lake, "pages", new_num_partitions=3)[
        "repartitioned"
    ]
    # same target again → no-op
    noop = repartition_table(lake, "pages", new_num_partitions=3)
    assert noop["repartitioned"] is False and noop["skipped"] is True
    assert noop["num_partitions"] == 3
    # round trip back to the original count
    assert repartition_table(lake, "pages", new_num_partitions=PARTS)[
        "repartitioned"
    ]
    assert lake_state(lake).equals(before)


def test_repartition_table_folds_delta_stacks(binlog, tmp_path):
    from airbyte_destination_ray.pipelines.cdc import repartition_table

    lake = str(tmp_path / "lake")
    run_cdc_sync(
        lake, binlog, num_partitions=PARTS,
        merge_strategy="delta", compact_every=100,
    )
    before = lake_state(lake)
    res = repartition_table(lake, "pages", new_num_partitions=5)
    assert res["repartitioned"]
    assert lake_state(lake).equals(before)


def test_repartition_crash_before_flip_leaves_old_layout(
    binlog, tmp_path, monkeypatch
):
    """The metadata flip is the ONLY visibility mutation: a crash anywhere
    before it leaves the old layout fully intact, and a re-run completes
    idempotently (manifest CAS makes finished partitions no-ops)."""
    from airbyte_destination_ray.pipelines.cdc import repartition_table

    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=PARTS)
    before = lake_state(lake)
    real = ManifestStore.update_meta

    def boom(self, **kw):
        raise RuntimeError("simulated crash before flip")

    monkeypatch.setattr(ManifestStore, "update_meta", boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        repartition_table(lake, "pages", new_num_partitions=3)
    meta = ManifestStore(lake, "pages").table_meta()
    assert meta["num_partitions"] == PARTS  # old layout intact
    assert lake_state(lake).equals(before)
    monkeypatch.setattr(ManifestStore, "update_meta", real)
    res = repartition_table(lake, "pages", new_num_partitions=3)
    assert res["repartitioned"]
    assert ManifestStore(lake, "pages").table_meta()["num_partitions"] == 3
    assert lake_state(lake).equals(before)


def test_cluster_table_zorder_two_columns(tmp_path, ray_session):
    """Z-ORDER clustering on (warc_ts, seq-derived value): zone maps become
    selective on BOTH columns at once — a lexicographic sort would only
    prune the leading column — and the visible state is preserved."""
    from airbyte_destination_ray.pipelines.cdc import (
        _prune_files_by_stats,
        cluster_table,
    )

    rows = []
    for i in range(800):
        # two independent dimensions: ts cycles one way, "score" another
        rows.append(
            dict(seq=i + 1, epoch=0, op="U", url=f"u{i:04d}",
                 warc_ts=(i * 13) % 800, text=f"t{i}", lang="en",
                 html=str((i * 31) % 800).encode())
        )
    blog = tmp_path / "blog"
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=2)

    def state(lk):
        return pa.concat_tables(
            list(
                read_table(lk, "pages", columns=["url", "warc_ts", "_seq"],
                           include_meta=True)
                .iter_batches(batch_format="pyarrow")
            )
        ).sort_by("url")

    before = state(lake)
    res = cluster_table(
        lake, "pages", by=["warc_ts", "_seq"], target_rows_per_file=25
    )
    assert res["clustered_partitions"] == 2
    assert state(lake).equals(before)

    store = ManifestStore(lake, "pages")
    meta = store.table_meta()
    triples = store.committed_files_versioned(
        meta["generation"], mode=meta["mode"], with_stats=True
    )
    assert len(triples) >= 30
    # a 10% range on EACH dimension prunes files (z-order: count-aligned
    # file splits straddle z boundaries, so expect ~quarter-to-half kept,
    # not the ideal 1/4)
    kept_ts = _prune_files_by_stats(triples, ("warc_ts", 100, 180))
    kept_seq = _prune_files_by_stats(triples, ("_seq", 100, 180))
    assert 0 < len(kept_ts) <= len(triples) * 0.55
    assert 0 < len(kept_seq) <= len(triples) * 0.55

    # the property a single-column sort cannot give: re-cluster by
    # warc_ts ONLY and the _seq dimension stops pruning
    cluster_table(lake, "pages", by="warc_ts", target_rows_per_file=25)
    triples2 = store.committed_files_versioned(
        meta["generation"], mode=meta["mode"], with_stats=True
    )
    kept_seq_single = _prune_files_by_stats(triples2, ("_seq", 100, 180))
    assert len(kept_seq_single) / len(triples2) > len(kept_seq) / len(triples)
    # and the filtered reads stay exact
    got = pa.concat_tables(
        list(
            read_table(lake, "pages", columns=["url", "warc_ts"],
                       range_filter=("warc_ts", 100, 180))
            .iter_batches(batch_format="pyarrow")
        )
    )
    ts_int = before.column("warc_ts").cast(pa.int64())
    exp = before.filter(
        pa.compute.and_(
            pa.compute.greater_equal(ts_int, 100),
            pa.compute.less_equal(ts_int, 180),
        )
    )
    assert got.num_rows == exp.num_rows
