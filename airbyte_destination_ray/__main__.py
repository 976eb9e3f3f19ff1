"""CLI parity with the reference's cobra commands (§2.8):

    python -m airbyte_destination_ray spec
    python -m airbyte_destination_ray check --config config.json
    python -m airbyte_destination_ray write --config config.json \
        --catalog catalog.json [< messages.ndjson]

(reference cmd/root.go:7-18, cmd/spec.go, cmd/check.go, cmd/write.go —
``--config``/``--catalog`` required for write, cmd/write.go:31-35).

Plus the CDC-engine entry points (the ``ray job submit`` surface of
SURVEY §7.9 — on a cluster, run e.g.
``ray job submit -- python -m airbyte_destination_ray sync ...``):

    python -m airbyte_destination_ray sync --lake LAKE --binlog DIR \
        [--partitions N] [--strategy snapshot|delta] \
        [--shuffle payload|key_only] [--enrich] [--no-resume]
    python -m airbyte_destination_ray compact --lake LAKE [--table pages]
    python -m airbyte_destination_ray vacuum --lake LAKE [--table pages] [--keep-generations N]

This entry point owns the Ray session (the library never calls ray.init).
Commands that need no Ray job — spec, check, write (a flush commits
in-process), and the metadata-only ones — never start one.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="airbyte_destination_ray")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("spec")
    p_check = sub.add_parser("check")
    p_check.add_argument("--config", required=True)
    p_write = sub.add_parser("write")
    p_write.add_argument("--config", required=True)
    p_write.add_argument("--catalog", required=True)
    p_write.add_argument(
        "--input", default="-", help="NDJSON message file ('-' = stdin)"
    )
    p_sync = sub.add_parser("sync")
    p_sync.add_argument("--lake", required=True)
    p_sync.add_argument("--binlog", required=True)
    p_sync.add_argument("--table", default="pages")
    p_sync.add_argument("--partitions", type=int, default=32)
    p_sync.add_argument(
        "--strategy", choices=["snapshot", "delta"], default="snapshot"
    )
    p_sync.add_argument(
        "--shuffle", choices=["payload", "key_only"], default="payload"
    )
    p_sync.add_argument("--enrich", action="store_true")
    p_sync.add_argument("--no-resume", action="store_true")
    p_tail = sub.add_parser("tail")
    p_tail.add_argument("--lake", required=True)
    p_tail.add_argument("--binlog", required=True)
    p_tail.add_argument("--table", default="pages")
    p_tail.add_argument("--partitions", type=int, default=32)
    p_tail.add_argument(
        "--strategy", choices=["snapshot", "delta"], default="snapshot"
    )
    p_tail.add_argument(
        "--shuffle", choices=["payload", "key_only"], default="payload"
    )
    p_tail.add_argument("--enrich", action="store_true")
    p_tail.add_argument("--poll-interval", type=float, default=1.0)
    p_tail.add_argument("--max-idle-polls", type=int, default=3)
    p_tail.add_argument("--compact-every-epochs", type=int, default=None)
    p_tail.add_argument("--vacuum-after-compact", action="store_true")
    p_compact = sub.add_parser("compact")
    p_compact.add_argument("--lake", required=True)
    p_compact.add_argument("--table", default="pages")
    p_cluster = sub.add_parser(
        "cluster",
        help="OPTIMIZE: rewrite each partition's snapshot sorted by a "
        "column, split into files, so zone maps prune range scans",
    )
    p_cluster.add_argument("--lake", required=True)
    p_cluster.add_argument("--table", default="pages")
    p_cluster.add_argument(
        "--by", required=True,
        help="cluster column; comma-separate 2-4 columns for Z-ORDER",
    )
    p_cluster.add_argument(
        "--target-rows-per-file", type=int, default=1_000_000
    )
    p_repart = sub.add_parser(
        "repartition",
        help="partition evolution: rewrite the table under a new hash-"
        "bucket count and flip routing for later epochs",
    )
    p_repart.add_argument("--lake", required=True)
    p_repart.add_argument("--table", default="pages")
    p_repart.add_argument("--num-partitions", type=int, required=True)
    p_rollback = sub.add_parser(
        "rollback",
        help="RESTORE analog: rewind the table to a committed checkpoint "
        "epoch (metadata-only; rewound epochs replay on the next sync)",
    )
    p_rollback.add_argument("--lake", required=True)
    p_rollback.add_argument("--table", default="pages")
    p_rollback.add_argument("--to-epoch", type=int, required=True)
    p_rollback.add_argument("--dry-run", action="store_true")
    p_clone = sub.add_parser(
        "clone",
        help="zero-copy shallow clone: branch a table's metadata; the "
        "clone reads the source's files until it diverges",
    )
    p_clone.add_argument("--lake", required=True)
    p_clone.add_argument("--src", required=True)
    p_clone.add_argument("--dst", required=True)
    p_vacuum = sub.add_parser("vacuum")
    p_vacuum.add_argument("--lake", required=True)
    p_vacuum.add_argument("--table", default="pages")
    p_vacuum.add_argument("--keep-generations", type=int, default=0)
    p_fsck = sub.add_parser("fsck")
    p_fsck.add_argument("--lake", required=True)
    p_fsck.add_argument("--table", default="pages")
    p_fsck.add_argument("--no-row-counts", action="store_true")
    p_delete = sub.add_parser(
        "delete", help="GDPR: physically remove rows by primary key"
    )
    p_delete.add_argument("--lake", required=True)
    p_delete.add_argument("--table", default="pages")
    p_delete.add_argument(
        "--keys", required=True,
        help="comma-separated pk values, or @file with one key per line",
    )
    p_wap = sub.add_parser(
        "wap", help="write-audit-publish: begin/publish/abort a staged generation"
    )
    p_wap.add_argument("action", choices=["begin", "publish", "abort"])
    p_wap.add_argument("--lake", required=True)
    p_wap.add_argument("--table", default="pages")
    p_txn = sub.add_parser(
        "txn",
        help="multi-table transaction: begin/publish/abort a shared WAP "
        "window, or recover committed-but-unapplied transactions",
    )
    p_txn.add_argument(
        "action", choices=["begin", "publish", "abort", "recover"]
    )
    p_txn.add_argument("--lake", required=True)
    p_txn.add_argument(
        "--tables", default=None,
        help="comma-separated table names (begin)",
    )
    p_txn.add_argument(
        "--txn", default=None,
        help="transaction handle: inline JSON from `txn begin`, or @file "
        "(publish/abort)",
    )
    p_profile = sub.add_parser(
        "profile",
        help="data-quality profile of a lake table (rows/nulls/distinct "
        "per column)",
    )
    p_profile.add_argument("--lake", required=True)
    p_profile.add_argument("--table", default="pages")
    p_profile.add_argument(
        "--columns", default=None,
        help="comma-separated column names (default: all)",
    )
    p_export = sub.add_parser(
        "export", help="write the table's (optionally as-of) state to parquet"
    )
    p_export.add_argument("--lake", required=True)
    p_export.add_argument("--table", default="pages")
    p_export.add_argument("--out", required=True)
    p_export.add_argument(
        "--as-of-epoch", type=int, default=None,
        help="time travel: read the state as of this committed source epoch",
    )
    p_emit = sub.add_parser(
        "emit",
        help="destination-as-source: emit committed stream state back "
        "as Airbyte RECORD NDJSON on stdout",
    )
    p_emit.add_argument("--config", required=True)
    p_emit.add_argument("--catalog", required=True)
    p_emit.add_argument(
        "--stream", default=None,
        help="emit only this stream (default: every catalog stream)",
    )
    args = ap.parse_args(argv)

    from .catalog import check as check_config
    from .catalog import load_catalog, load_config, spec

    if args.command == "spec":
        print(json.dumps({"type": "SPEC", "spec": spec()}, separators=(",", ":")))
        return 0

    if args.command == "check":
        try:
            cfg = load_config(args.config)
            ok, message = check_config(cfg)
        except Exception as e:  # config load failure → FAILED status
            ok, message = False, str(e)
        print(
            json.dumps(
                {
                    "type": "CONNECTION_STATUS",
                    "connectionStatus": {
                        "status": "SUCCEEDED" if ok else "FAILED",
                        "message": message,
                    },
                },
                separators=(",", ":"),
            )
        )
        return 0 if ok else 1

    if args.command == "fsck":
        # footer-metadata-only consistency check — no Ray session needed
        from .state.manifest import ManifestStore

        report = ManifestStore(args.lake, args.table).fsck(
            check_row_counts=not args.no_row_counts
        )
        print(json.dumps(report, separators=(",", ":")))
        return 0 if report["ok"] else 1

    if args.command == "wap":
        # pure metadata flips — no Ray session needed
        from .pipelines.cdc import wap_abort, wap_begin, wap_publish

        fn = {"begin": wap_begin, "publish": wap_publish, "abort": wap_abort}[
            args.action
        ]
        print(json.dumps(fn(args.lake, args.table), separators=(",", ":")))
        return 0

    if args.command == "profile":
        import ray

        if not ray.is_initialized():
            ray.init(
                address="local",
                include_dashboard=False,
                logging_level="ERROR",
            )
        from .pipelines.cdc import read_table
        from .pipelines.ops import profile_columns

        ds = read_table(args.lake, args.table)
        cols = (
            args.columns.split(",")
            if args.columns
            else list(ds.schema().names)
        )
        rows = profile_columns(ds, cols=cols).take_all()
        for r in sorted(rows, key=lambda r: r["col_name"]):
            print(json.dumps(r, separators=(",", ":"), default=str))
        ray.shutdown()
        return 0

    if args.command == "txn":
        # pure metadata flips — no Ray session needed
        from .pipelines.cdc import (
            txn_abort,
            txn_begin,
            txn_publish,
            txn_recover,
        )

        if args.action == "begin":
            if not args.tables:
                ap.error("txn begin requires --tables a,b,…")
            out = txn_begin(args.lake, args.tables.split(","))
        elif args.action == "recover":
            out = txn_recover(args.lake)
        else:
            if not args.txn:
                ap.error(f"txn {args.action} requires --txn")
            raw = args.txn
            if raw.startswith("@"):
                with open(raw[1:]) as f:
                    raw = f.read()
            handle = json.loads(raw)
            fn = {"publish": txn_publish, "abort": txn_abort}[args.action]
            out = fn(args.lake, handle)
        print(json.dumps(out, separators=(",", ":")))
        return 0

    if args.command == "vacuum":
        # pure filesystem metadata work — no Ray session needed
        from .state.manifest import ManifestStore

        print(
            json.dumps(
                ManifestStore(args.lake, args.table).vacuum(
                    keep_generations=args.keep_generations
                ),
                separators=(",", ":"),
            )
        )
        return 0

    if args.command == "rollback":
        from .pipelines.cdc import rollback_table

        print(
            json.dumps(
                rollback_table(
                    args.lake, args.table, args.to_epoch,
                    dry_run=args.dry_run,
                ),
                separators=(",", ":"),
            )
        )
        return 0

    if args.command == "clone":
        from .pipelines.cdc import clone_table

        print(
            json.dumps(
                clone_table(args.lake, args.src, args.dst),
                separators=(",", ":"),
            )
        )
        return 0

    if args.command == "write":
        # a flush commits in-process (stages.lww.commit_epoch on a driver
        # Arrow table) — no Ray session needed
        from .pipelines.airbyte_write import run_write

        cfg = load_config(args.config)
        catalog = load_catalog(args.catalog)
        lines = (
            sys.stdin
            if args.input == "-"
            else open(args.input, encoding="utf-8")
        )
        result = run_write(cfg, catalog, lines)
        print(
            json.dumps(
                {
                    "type": "LOG",
                    "log": {
                        "level": "INFO",
                        "message": (
                            f"wrote {result.records_written} records in "
                            f"{result.flushes} flushes across "
                            f"{len(result.tables)} tables"
                        ),
                    },
                },
                separators=(",", ":"),
            )
        )
        return 0

    if args.command == "emit":
        import ray

        if not ray.is_initialized():
            ray.init(
                address="local", include_dashboard=False,
                logging_level="ERROR",
            )
        try:
            from .pipelines.airbyte_write import emit_records

            cfg = load_config(args.config)
            catalog = load_catalog(args.catalog)
            if args.stream and args.stream not in {
                s.name for s in catalog.streams
            }:
                print(
                    f"error: stream {args.stream!r} not in catalog",
                    file=sys.stderr,
                )
                return 1
            from pathlib import Path as _P

            n = 0
            for stream in catalog.streams:
                if args.stream and stream.name != args.stream:
                    continue
                if not (
                    _P(cfg.lake_root) / stream.table_name / "_meta.json"
                ).exists():
                    # a catalog stream never synced into this lake is a
                    # skip, not a mid-stream traceback after partial
                    # NDJSON output
                    print(
                        json.dumps({"type": "LOG", "log": {
                            "level": "WARN",
                            "message": f"stream {stream.name!r} has no "
                            "committed table in this lake; skipped"}},
                            separators=(",", ":")),
                        file=sys.stderr,
                    )
                    continue
                n += emit_records(cfg.lake_root, stream, sys.stdout)
            print(
                json.dumps({"type": "LOG", "log": {
                    "level": "INFO",
                    "message": f"emitted {n} records"}},
                    separators=(",", ":")),
                file=sys.stderr,
            )
            return 0
        finally:
            ray.shutdown()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")

    if args.command == "sync":
        try:
            from .pipelines.cdc import run_cdc_sync

            summary = run_cdc_sync(
                args.lake,
                args.binlog,
                table=args.table,
                num_partitions=args.partitions,
                merge_strategy=args.strategy,
                shuffle=args.shuffle,
                enrich=args.enrich,
                resume=not args.no_resume,
            )
            print(json.dumps(summary, separators=(",", ":")))
            return 0
        finally:
            ray.shutdown()

    if args.command == "tail":
        try:
            from .pipelines.cdc import tail_binlog

            summary = tail_binlog(
                args.lake,
                args.binlog,
                poll_interval=args.poll_interval,
                max_idle_polls=args.max_idle_polls,
                compact_every_epochs=args.compact_every_epochs,
                vacuum_after_compact=args.vacuum_after_compact,
                table=args.table,
                num_partitions=args.partitions,
                merge_strategy=args.strategy,
                shuffle=args.shuffle,
                enrich=args.enrich,
            )
            print(json.dumps(summary, separators=(",", ":")))
            return 0
        finally:
            ray.shutdown()

    if args.command == "compact":
        try:
            from .pipelines.cdc import compact_table

            print(
                json.dumps(
                    compact_table(args.lake, args.table), separators=(",", ":")
                )
            )
            return 0
        finally:
            ray.shutdown()

    if args.command == "cluster":
        try:
            from .pipelines.cdc import cluster_table

            print(
                json.dumps(
                    cluster_table(
                        args.lake, args.table,
                        by=(
                            args.by.split(",")
                            if "," in args.by
                            else args.by
                        ),
                        target_rows_per_file=args.target_rows_per_file,
                    ),
                    separators=(",", ":"),
                )
            )
            return 0
        finally:
            ray.shutdown()

    if args.command == "repartition":
        try:
            from .pipelines.cdc import repartition_table

            print(
                json.dumps(
                    repartition_table(
                        args.lake, args.table,
                        new_num_partitions=args.num_partitions,
                    ),
                    separators=(",", ":"),
                )
            )
            return 0
        finally:
            ray.shutdown()

    if args.command == "delete":
        try:
            from .pipelines.cdc import delete_rows

            if args.keys.startswith("@"):
                with open(args.keys[1:], encoding="utf-8") as f:
                    keys = [line.strip() for line in f if line.strip()]
            else:
                keys = args.keys.split(",")
            print(
                json.dumps(
                    delete_rows(args.lake, args.table, keys),
                    separators=(",", ":"),
                )
            )
            return 0
        finally:
            ray.shutdown()

    if args.command == "export":
        try:
            from .pipelines.cdc import read_table

            ds = read_table(
                args.lake, args.table, as_of_epoch=args.as_of_epoch
            )
            ds.write_parquet(args.out)
            print(
                json.dumps(
                    {"out": args.out, "as_of_epoch": args.as_of_epoch},
                    separators=(",", ":"),
                )
            )
            return 0
        finally:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
