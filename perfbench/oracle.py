"""Independent expectations for every benchmark output.

CDC: DuckDB over the binlog segments keeps, per url, the event with the
greatest ``(warc_ts NULLS FIRST, seq)`` and drops it if that event is a
delete.  The four columns the ingest's enrich stage appends (``lang_id,
quality, n_tokens, fingerprint``) are computed here from each winner's text,
row by row, with the scalar rules ``functions/text.py`` documents.  Tables are
compared by row count plus an order-independent hash of every stored column;
lookups row by row.

Airbyte: the final ``id → (v, ts)`` map is last-writer-wins over the RECORD
lines actually sent, by ``(ts, record index)``; echoed STATEs must equal the
STATEs sent, in count and order.

``perturb="drop"`` drops one tombstone (CDC) or one winning record (Airbyte)
from the expectation; ``perturb="value"`` changes one expected enrich value
(CDC) or one winning record's payload (Airbyte).  The self-tests use them to
prove the check can fail.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pandas as pd
import pyarrow as pa

CDC_COLUMNS = [
    "url", "warc_ts", "html", "text", "lang", "lang_id", "quality", "n_tokens", "fingerprint",
]
# quality is stored rounded to 6 decimals; compare it as an integer in 1e-6
_QUALITY_AT = CDC_COLUMNS.index("quality")

_DIGEST_SQL = (
    "SELECT count(*)::BIGINT, coalesce(sum(hash(url, warc_ts, html::BLOB, text, lang, "
    "lang_id, round(quality * 1000000)::BIGINT, n_tokens, fingerprint)), 0)::HUGEINT FROM {}"
)

# -- enrich columns, one row at a time ---------------------------------------
# Byte classes: letters are ASCII letters and every byte >= 0x80; spaces are
# 0x20 and 0x09-0x0D; punctuation is everything else.
_SPACE = rb"\t-\r "
_ALPHA = rb"A-Za-z\x80-\xff"
_WORD_RUN = re.compile(rb"[^" + _SPACE + rb"]+")
_ALPHA_RUN = re.compile(rb"[" + _ALPHA + rb"]+")
_DIGIT_RUN = re.compile(rb"[0-9]+")
_PUNCT_RUN = re.compile(rb"[^" + _ALPHA + rb"0-9" + _SPACE + rb"]+")
_STOPWORDS = re.compile(r"\b(the|and|of|to|in|is|that|for|with|was|as|on|are|this)\b", re.ASCII)
_LANG_MARKERS = {
    lang: re.compile(rf"\b({words})\b", re.ASCII)
    for lang, words in [
        ("en", "the|and|of|is|that|with|for|you|have|this"),
        ("de", "der|die|das|und|ist|nicht|mit|ein|eine|für|auf|sie"),
        ("fr", "le|la|les|et|est|une|pour|que|dans|vous|avec|pas"),
        ("es", "el|los|las|es|una|para|que|con|por|del|su|está"),
        ("it", "il|la|che|di|non|per|una|sono|con|del|questo"),
        ("pt", "o|os|as|é|uma|para|que|com|não|do|da|em"),
        ("nl", "de|het|een|en|van|is|dat|niet|met|voor|zijn"),
    ]
}
LANG_PREFIX_CHARS = 256


def _run_lengths(pattern: re.Pattern, b: bytes) -> list[int]:
    return [len(m) for m in pattern.findall(b)]


def _lang_id(prefix: str) -> str:
    """Stopword-density argmax over the markers (``und`` below 0.01 hits per
    word), overridden by script density: ``zh`` when more than 5% of the
    characters are CJK lead bytes 0xE4-0xE9, ``ru`` for Cyrillic leads
    0xD0-0xD1."""
    b = prefix.encode()
    n_words = max(len(_WORD_RUN.findall(b)), 1)
    lower = prefix.lower()
    best, best_score = "und", -1.0
    for lang, pat in _LANG_MARKERS.items():
        score = len(pat.findall(lower)) / n_words
        if score > best_score:
            best, best_score = lang, score
    if best_score < 0.01:
        best = "und"
    n_chars = max(len(prefix), 1)
    if sum(0xE4 <= c <= 0xE9 for c in b) / n_chars > 0.05:
        best = "zh"
    if sum(0xD0 <= c <= 0xD1 for c in b) / n_chars > 0.05:
        best = "ru"
    return best


def _quality(text: str, b: bytes) -> float:
    """0.4·alpha + 0.2·digit + 0.2·stopword + 0.2·length terms, rounded to
    6 decimals."""
    n_chars = max(len(text), 1)
    n_alpha = sum(_run_lengths(_ALPHA_RUN, b))
    n_digit = sum(_run_lengths(_DIGIT_RUN, b))
    n_words = len(_WORD_RUN.findall(b))
    n_stop = len(_STOPWORDS.findall(text.lower()))
    alpha_term = min(n_alpha / n_chars * 1.25, 1.0)
    digit_term = 1.0 - min(n_digit / n_chars * 2.0, 1.0)
    stop_term = min(n_stop / max(n_words, 1) * 4.0, 1.0)
    length_ok = 1.0 if 5 <= n_words <= 100_000 else 0.0
    score = 0.4 * alpha_term + 0.2 * digit_term + 0.2 * stop_term + 0.2 * length_ok
    return round(score * 1e6) / 1e6


def enrich_columns(texts: list[str | None]) -> dict[str, pa.Array]:
    """``lang_id, quality, n_tokens, fingerprint`` of each text (null text →
    null).  ``n_tokens`` counts maximal runs of letters, of digits and of
    punctuation; ``fingerprint`` is pandas' SipHash of the exact text."""
    lang, quality, tokens = [], [], []
    for t in texts:
        if t is None:
            lang.append(None), quality.append(None), tokens.append(None)
            continue
        b = t.encode()
        lang.append(_lang_id(t[:LANG_PREFIX_CHARS]))
        quality.append(_quality(t, b))
        tokens.append(sum(len(p.findall(b)) for p in (_ALPHA_RUN, _DIGIT_RUN, _PUNCT_RUN)))
    valid = [t is not None for t in texts]
    fp = pd.util.hash_array(np.array([t if t is not None else "" for t in texts], dtype=object),
                            categorize=False)
    return {
        "lang_id": pa.array(lang, pa.string()),
        "quality": pa.array(quality, pa.float64()),
        "n_tokens": pa.array(tokens, pa.int64()),
        "fingerprint": pa.array(fp, pa.uint64(), mask=~np.array(valid, dtype=bool)),
    }


def _duckdb():
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads=1")
    return con


def table_digest(t: pa.Table) -> tuple[int, int]:
    """(rows, order-independent hash) of a lake read of the pages table."""
    con = _duckdb()
    con.register("got", t.select(CDC_COLUMNS))
    row = con.execute(_DIGEST_SQL.format("got")).fetchone()
    con.close()
    return int(row[0]), int(row[1])


class CdcOracle:
    def __init__(self, segments: list[str], *, perturb: str | None = None):
        con = _duckdb()
        files = ", ".join(f"'{s}'" for s in segments)
        con.execute(
            "CREATE TABLE ev AS SELECT seq, op, url, warc_ts, html, text, lang "
            f"FROM read_parquet([{files}])"
        )
        win = (
            "SELECT * FROM (SELECT *, row_number() OVER (PARTITION BY url "
            "ORDER BY warc_ts DESC NULLS LAST, seq DESC) AS rn FROM ev) WHERE rn = 1"
        )
        if perturb == "drop":
            # drop the winning tombstone of one key that has an older upsert
            victim = con.execute(
                f"SELECT url, seq FROM ({win}) WHERE op = 'D' AND url IN "
                "(SELECT url FROM ev WHERE op <> 'D') ORDER BY url LIMIT 1"
            ).fetchone()
            if victim is None:
                raise ValueError("perturb: the binlog has no deleted key with an older upsert")
            con.execute("DELETE FROM ev WHERE url = ? AND seq = ?", list(victim))
        want = con.execute(
            f"SELECT url, warc_ts, html, text, lang, op FROM ({win}) ORDER BY url"
        ).fetch_arrow_table()
        texts = [None if op == "D" else t for t, op in zip(
            want.column("text").to_pylist(), want.column("op").to_pylist())]
        for name, arr in enrich_columns(texts).items():
            want = want.append_column(name, arr)
        if perturb == "value":
            # one more token in the first visible row
            i = next(j for j, t in enumerate(texts) if t is not None)
            tokens = want.column("n_tokens").to_pylist()
            tokens[i] += 1
            want = want.set_column(
                want.schema.get_field_index("n_tokens"), "n_tokens", pa.array(tokens, pa.int64())
            )
        con.register("want_arrow", want)
        con.execute("CREATE TABLE want AS SELECT * FROM want_arrow")
        con.unregister("want_arrow")
        row = con.execute(
            _DIGEST_SQL.format("(SELECT * FROM want WHERE op <> 'D')")
        ).fetchone()
        self.digest = (int(row[0]), int(row[1]))
        self._con = con

    def expected_rows(self, keys: list[str]) -> dict[str, tuple | None]:
        """url → expected visible row, or None when deleted or never written."""
        self._con.register("key_t", pa.table({"url": pa.array(keys, pa.string())}))
        got = self._con.execute(
            f"SELECT {', '.join(CDC_COLUMNS)}, op FROM want WHERE url IN (SELECT url FROM key_t)"
        ).fetch_arrow_table()
        self._con.unregister("key_t")
        out: dict[str, tuple | None] = {k: None for k in keys}
        for row, op in zip(cdc_rows(got), got.column("op").to_pylist()):
            out[row[0]] = None if op == "D" else row
        return out

    def close(self) -> None:
        self._con.close()


def cdc_rows(t: pa.Table | None) -> list[tuple]:
    """Rows of every stored column, quality as an integer in 1e-6."""
    if t is None or t.num_rows == 0:
        return []
    rows = []
    for r in t.select(CDC_COLUMNS).to_pylist():
        v = list(r.values())
        if v[_QUALITY_AT] is not None:
            v[_QUALITY_AT] = round(v[_QUALITY_AT] * 1e6)
        rows.append(tuple(v))
    return rows


def _ts_us(stamp: str) -> int:
    return int(np.datetime64(stamp.rstrip("Z"), "us").astype(np.int64))


class AirbyteOracle:
    def __init__(self, lines: list[str], *, perturb: str | None = None):
        best: dict[int, tuple[int, int, str]] = {}
        self.states: list[dict] = []
        index = 0
        for line in lines:
            msg = json.loads(line)
            if msg["type"] == "STATE":
                self.states.append(msg["state"])
                continue
            d = msg["record"]["data"]
            key = (_ts_us(d["ts"]), index)
            cur = best.get(d["id"])
            if cur is None or key > cur[:2]:
                best[d["id"]] = (key[0], key[1], d["v"])
            index += 1
        self.rows = {k: (v[2], v[0]) for k, v in best.items()}
        if perturb == "drop" and self.rows:
            self.rows.pop(min(self.rows))
        elif perturb == "value" and self.rows:
            k = min(self.rows)
            self.rows[k] = (f"{self.rows[k][0]}!", self.rows[k][1])
        self.table = sorted((k, v, ts) for k, (v, ts) in self.rows.items())

    def state_mismatches(self, echoed: list[dict]) -> int:
        """Echoes must carry the sent states, in order; destinationStats is
        the only key the destination adds."""
        stripped = [
            {k: v for k, v in s.items() if k != "destinationStats"} for s in echoed
        ]
        bad = sum(1 for a, b in zip(stripped, self.states) if a != b)
        return bad + abs(len(stripped) - len(self.states))


def airbyte_rows(t: pa.Table | None) -> list[tuple[int, str, int]]:
    """Sorted ``(id, v, ts)`` rows; a duplicated id shows as two rows."""
    if t is None or t.num_rows == 0:
        return []
    ts = t.column("ts").cast(pa.timestamp("us", tz="UTC")).cast(pa.int64()).to_pylist()
    return sorted(
        (int(i), v, int(s))
        for i, v, s in zip(t.column("id").to_pylist(), t.column("v").to_pylist(), ts)
    )
