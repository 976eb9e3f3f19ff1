"""Multimodal (image/audio/video) actor-pool stages.

Media payloads are opaque ``binary`` columns with typed metadata, processed
by CALLABLE CLASSES passed to ``map_batches(Cls, concurrency=N,
batch_size=B, num_cpus=c)`` — expensive setup (codec/model load) happens once
per actor in ``__init__``, per-batch work in ``__call__``.  Batch sizes are
small because each row carries a large payload; at 100 TB the same stages run
unchanged with ``concurrency`` sized to the cluster.

Codec-free formats are decoded FOR REAL: PPM (P6) and uncompressed 24-bit
BMP are parsed in pure numpy (header + pixel array), so width/height/
channels/mean_luma are actual pixel math for those payloads.  Compressed formats (JPEG/PNG/audio/video) need codec
libraries that are NOT in this container, so those kernels are STUBS: with
``strict=True`` they raise ``NotImplementedError`` (clearly marking the
integration point); by default they produce DETERMINISTIC FAKE decodes
derived from the payload bytes, which keeps the Ray-side plumbing —
schemas, actor signatures, fan-out layout, batch sizing — real and
testable end-to-end.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# recommended per-stage tuning: payloads are MBs/row, so small batches
DEFAULT_MEDIA_BATCH_SIZE = 32

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64(), nullable=False),
        pa.field("kind", pa.string(), nullable=False),  # image | audio | video
        pa.field("payload", pa.binary()),
        pa.field("mime", pa.string()),
    ]
)


def _stub_rng(payload: bytes) -> np.random.Generator:
    seed = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    return np.random.default_rng(seed)


# -- real decoders for codec-free formats (pure numpy) ----------------------


def encode_ppm(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6)."""
    h, w, c = pixels.shape
    assert c == 3
    return f"P6\n{w} {h}\n255\n".encode() + np.ascontiguousarray(pixels).tobytes()


def decode_ppm(payload: bytes) -> np.ndarray | None:
    """Binary PPM (P6) → (h, w, 3) uint8, or None if not a valid P6."""
    if not payload.startswith(b"P6"):
        return None
    # header = magic + 3 whitespace-separated ints (comments allowed)
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3 and i < len(payload):
        while i < len(payload) and payload[i : i + 1].isspace():
            i += 1
        if payload[i : i + 1] == b"#":
            while i < len(payload) and payload[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(payload) and not payload[j : j + 1].isspace():
            j += 1
        tokens.append(payload[i:j])
        i = j
    if len(tokens) < 3:
        return None
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        return None
    i += 1  # single whitespace after maxval
    if w <= 0 or h <= 0 or maxval != 255:
        return None
    need = w * h * 3
    if len(payload) - i < need:
        return None
    return (
        np.frombuffer(payload, dtype=np.uint8, count=need, offset=i)
        .reshape(h, w, 3)
        .copy()
    )


def decode_bmp(payload: bytes) -> np.ndarray | None:
    """Uncompressed 24-bit BMP → (h, w, 3) uint8 RGB, or None."""
    if len(payload) < 54 or not payload.startswith(b"BM"):
        return None
    off = int.from_bytes(payload[10:14], "little")
    w = int.from_bytes(payload[18:22], "little", signed=True)
    h = int.from_bytes(payload[22:26], "little", signed=True)
    bpp = int.from_bytes(payload[28:30], "little")
    comp = int.from_bytes(payload[30:34], "little")
    if bpp != 24 or comp != 0 or w <= 0 or h == 0:
        return None
    bottom_up = h > 0
    h = abs(h)
    stride = (w * 3 + 3) & ~3  # rows padded to 4 bytes
    if len(payload) < off + stride * h:
        return None
    rows = np.frombuffer(
        payload, dtype=np.uint8, count=stride * h, offset=off
    ).reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
    if bottom_up:
        rows = rows[::-1]
    return rows[:, :, ::-1].copy()  # BGR → RGB


def _decode_pixels(payload: bytes) -> np.ndarray | None:
    """Real pixel decode for codec-free formats; None = needs a codec."""
    return decode_ppm(payload) if payload.startswith(b"P6") else decode_bmp(payload)


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """Mono int16 samples → PCM WAV bytes."""
    data = np.asarray(samples, dtype="<i2").tobytes()
    hdr = (
        b"RIFF"
        + (36 + len(data)).to_bytes(4, "little")
        + b"WAVEfmt "
        + (16).to_bytes(4, "little")
        + (1).to_bytes(2, "little")  # PCM
        + (1).to_bytes(2, "little")  # mono
        + sample_rate.to_bytes(4, "little")
        + (sample_rate * 2).to_bytes(4, "little")
        + (2).to_bytes(2, "little")
        + (16).to_bytes(2, "little")
        + b"data"
        + len(data).to_bytes(4, "little")
    )
    return hdr + data


def decode_wav(payload: bytes) -> tuple[np.ndarray, int] | None:
    """PCM WAV → (float64 mono samples in [-1, 1], sample_rate), or None.
    Walks RIFF chunks; requires 16-bit PCM (mono or interleaved → averaged)."""
    if len(payload) < 44 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        return None
    i = 12
    fmt = None
    while i + 8 <= len(payload):
        cid = payload[i : i + 4]
        sz = int.from_bytes(payload[i + 4 : i + 8], "little")
        body = payload[i + 8 : i + 8 + sz]
        if cid == b"fmt " and sz >= 16:
            audio_format = int.from_bytes(body[0:2], "little")
            channels = int.from_bytes(body[2:4], "little")
            rate = int.from_bytes(body[4:8], "little")
            bits = int.from_bytes(body[14:16], "little")
            if audio_format != 1 or bits != 16 or channels < 1 or rate <= 0:
                return None
            fmt = (channels, rate)
        elif cid == b"data" and fmt is not None:
            channels, rate = fmt
            n = len(body) // (2 * channels) * channels
            samples = np.frombuffer(body, dtype="<i2", count=n).astype(np.float64)
            if channels > 1:
                samples = samples.reshape(-1, channels).mean(axis=1)
            return samples / 32768.0, rate
        i += 8 + sz + (sz & 1)  # chunks are word-aligned
    return None


def y4m_layout(payload: bytes) -> tuple[list[int], int, int, int] | None:
    """Single zero-copy walk of a YUV4MPEG2 payload → (frame byte offsets,
    width, height, frame_size), or None on any malformed input (contract:
    never raise, never loop — callers fall back to the stub path)."""
    if not payload.startswith(b"YUV4MPEG2"):
        return None
    nl = payload.find(b"\n")
    if nl < 0:
        return None
    w = h = None
    try:
        for tok in payload[10:nl].split(b" "):
            if tok.startswith(b"W"):
                w = int(tok[1:])
            elif tok.startswith(b"H"):
                h = int(tok[1:])
    except ValueError:
        return None
    if not w or not h or w <= 0 or h <= 0:
        return None
    frame_size = w * h * 3 // 2
    offsets = []
    i = nl + 1
    while i < len(payload):
        if not payload.startswith(b"FRAME", i):
            return None
        fnl = payload.find(b"\n", i)
        if fnl < 0 or fnl + 1 + frame_size > len(payload):
            return None
        offsets.append(fnl + 1)
        i = fnl + 1 + frame_size
    return offsets, w, h, frame_size


def encode_y4m(frames: list[bytes], w: int, h: int) -> bytes:
    out = [f"YUV4MPEG2 W{w} H{h} F25:1 Ip A1:1 C420\n".encode()]
    for f in frames:
        assert len(f) == w * h * 3 // 2
        out.append(b"FRAME\n" + f)
    return b"".join(out)


def synthesize_media_table(
    n: int,
    *,
    kind: str = "image",
    payload_bytes: int = 4096,
    seed: int = 42,
    real_format: str | None = None,
) -> pa.Table:
    """Deterministic media corpus (binary payloads + metadata).

    Default payloads are opaque random bytes (exercise the stub path);
    ``real_format="ppm"`` emits actual P6 images (seeded gradient + noise,
    varied dims) so the pipeline exercises the REAL pixel decode path.
    """
    rng = np.random.default_rng(seed)
    if real_format == "wav":
        payloads = []
        for _ in range(n):
            rate = 8000
            secs = float(rng.uniform(0.2, 1.5))
            tt = np.arange(int(rate * secs))
            freq = float(rng.uniform(100, 2000))
            amp = float(rng.uniform(0.1, 0.9))
            sine = (np.sin(2 * np.pi * freq * tt / rate) * amp * 32767).astype(
                np.int16
            )
            payloads.append(encode_wav(sine, rate))
        mime = "audio/wav"
    elif real_format == "y4m":
        payloads = []
        for _ in range(n):
            w, h = 16, 12
            nf = int(rng.integers(4, 16))
            fsize = w * h * 3 // 2
            payloads.append(
                encode_y4m(
                    [
                        rng.integers(0, 256, fsize, dtype=np.uint8).tobytes()
                        for _ in range(nf)
                    ],
                    w,
                    h,
                )
            )
        mime = "video/x-yuv4mpeg"
    elif real_format == "ppm":
        payloads = []
        for _ in range(n):
            w = int(rng.integers(16, 64))
            h = int(rng.integers(16, 64))
            yy, xx = np.mgrid[0:h, 0:w]
            base = ((xx * 255) // max(w - 1, 1)).astype(np.uint8)
            px = np.stack(
                [
                    base,
                    ((yy * 255) // max(h - 1, 1)).astype(np.uint8),
                    rng.integers(0, 256, (h, w), dtype=np.uint8),
                ],
                axis=-1,
            )
            payloads.append(encode_ppm(px))
        mime = "image/x-portable-pixmap"
    else:
        payloads = [
            rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
            for _ in range(n)
        ]
        mime = f"{kind}/fake"
    return pa.table(
        {
            "media_id": pa.array(range(n), type=pa.int64()),
            "kind": pa.array([kind] * n),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array([mime] * n),
        },
        schema=MEDIA_SCHEMA,
    )


class ImageDecodeStage:
    """payload → (width, height, channels, mean_luma).

    Real implementation decodes with PIL/opencv (loaded once per actor in
    ``__init__``); the stub derives deterministic fake dimensions/stats from
    the payload hash.
    """

    def __init__(self, *, strict: bool = False):
        self.strict = strict
        self.decoder = None  # real impl: self.decoder = PIL.Image / cv2 here

    def _decode_one(self, payload: bytes | None):
        if payload is None:
            return None, None, None, None
        px = _decode_pixels(payload)  # REAL decode for PPM/BMP
        if px is not None:
            luma = (
                0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]
            ).mean() / 255.0
            return px.shape[1], px.shape[0], px.shape[2], float(luma)
        if self.strict:
            raise NotImplementedError(
                "compressed-image decoding requires PIL/opencv, not present "
                "in this container — stubbed (see stages/multimodal.py)"
            )
        rng = _stub_rng(payload)
        w = int(rng.integers(64, 2048))
        h = int(rng.integers(64, 2048))
        return w, h, 3, float(rng.random())

    def __call__(self, batch: pa.Table) -> pa.Table:
        decoded = [self._decode_one(p) for p in batch.column("payload").to_pylist()]
        batch = batch.drop_columns(["payload"])  # decoded output drops raw bytes
        batch = batch.append_column(
            "width", pa.array([d[0] for d in decoded], type=pa.int32())
        )
        batch = batch.append_column(
            "height", pa.array([d[1] for d in decoded], type=pa.int32())
        )
        batch = batch.append_column(
            "channels", pa.array([d[2] for d in decoded], type=pa.int32())
        )
        batch = batch.append_column(
            "mean_luma", pa.array([d[3] for d in decoded], type=pa.float64())
        )
        return batch


class AudioFeatureStage:
    """payload → fixed-dim feature vector + duration.

    PCM WAV payloads are parsed FOR REAL (RIFF chunk walk): duration from
    the data chunk, features = per-segment RMS energy over ``dim`` equal
    windows (actual DSP in numpy).  Compressed audio (mp3/ogg/flac) needs a
    codec → stub (hash-seeded floats, byte-length duration estimate)."""

    def __init__(self, dim: int = 16, sample_rate: int = 16000, *, strict: bool = False):
        self.dim = dim
        self.sample_rate = sample_rate
        self.strict = strict

    def _features_real(self, samples: np.ndarray) -> list[float]:
        n = len(samples)
        if n == 0:
            return [0.0] * self.dim
        edges = (np.arange(self.dim + 1) * n) // self.dim
        sq = np.concatenate(([0.0], np.cumsum(samples * samples)))
        seg = np.maximum(edges[1:] - edges[:-1], 1)
        return np.sqrt((sq[edges[1:]] - sq[edges[:-1]]) / seg).astype(
            np.float32
        ).tolist()

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, durs = [], []
        for p in batch.column("payload").to_pylist():
            if p is None:
                feats.append(None)
                durs.append(None)
                continue
            wav = decode_wav(p)
            if wav is not None:
                samples, rate = wav
                durs.append(len(samples) / rate)
                feats.append(self._features_real(samples))
                continue
            if self.strict:
                raise NotImplementedError(
                    "compressed-audio decoding requires a codec — stubbed"
                )
            durs.append(len(p) / (2 * self.sample_rate))  # 16-bit mono estimate
            feats.append(_stub_rng(p).random(self.dim).astype(np.float32).tolist())
        batch = batch.drop_columns(["payload"])
        batch = batch.append_column(
            "features", pa.array(feats, type=pa.list_(pa.float32()))
        )
        batch = batch.append_column(
            "duration_sec", pa.array(durs, type=pa.float64())
        )
        return batch


class VideoFrameSampleStage:
    """One video row → ``frames_per_video`` frame rows (fan-out layout:
    the output table is LONGER than the input — media_id + frame_idx key).

    YUV4MPEG2 payloads are demuxed FOR REAL (evenly-spaced true frames, raw
    YUV planes); compressed containers (mp4/webm) need a demuxer → stub
    samples evenly spaced byte windows as fake frames.
    """

    def __init__(self, frames_per_video: int = 4, frame_bytes: int = 1024, *, strict: bool = False):
        self.n_frames = frames_per_video
        self.frame_bytes = frame_bytes
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, p in zip(
            batch.column("media_id").to_pylist(), batch.column("payload").to_pylist()
        ):
            if p is None:
                continue
            lay = y4m_layout(p)
            if lay is not None:
                offsets, _w, _h, fsize = lay
                nf = len(offsets)
                picks = (
                    (np.arange(self.n_frames) * max(nf - 1, 0))
                    // max(self.n_frames - 1, 1)
                    if nf
                    else np.empty(0, dtype=np.int64)
                )
                # single walk; only the sampled frames are materialized
                for i, fi in enumerate(picks):
                    o = offsets[int(fi)]
                    ids.append(mid)
                    idxs.append(i)
                    frames.append(p[o : o + fsize])
                continue
            if self.strict:
                raise NotImplementedError(
                    "compressed-video demux requires a codec — stubbed"
                )
            stride = max((len(p) - self.frame_bytes) // max(self.n_frames - 1, 1), 1)
            for i in range(self.n_frames):
                start = min(i * stride, max(len(p) - self.frame_bytes, 0))
                ids.append(mid)
                idxs.append(i)
                frames.append(p[start : start + self.frame_bytes])
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(idxs, type=pa.int64()),
                "frame": pa.array(frames, type=pa.binary()),
            }
        )


def decode_images(ds, *, concurrency: int = 4, batch_size: int = DEFAULT_MEDIA_BATCH_SIZE):
    """Actor-pool image decode over a media Dataset."""
    return ds.map_batches(
        ImageDecodeStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def extract_audio_features(
    ds, *, dim: int = 16, concurrency: int = 4,
    batch_size: int = DEFAULT_MEDIA_BATCH_SIZE,
):
    """Actor-pool audio feature extraction over a media Dataset."""
    return ds.map_batches(
        AudioFeatureStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"dim": dim},
    )


def sample_video_frames(
    ds, *, frames_per_video: int = 4, concurrency: int = 4,
    batch_size: int = DEFAULT_MEDIA_BATCH_SIZE, strict: bool = False,
):
    """Actor-pool frame sampling (fan-out) over a media Dataset.
    ``strict=True`` refuses the byte-window fallback for non-Y4M payloads
    (real demux only — the exact-oracle mode)."""
    return ds.map_batches(
        VideoFrameSampleStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={
            "frames_per_video": frames_per_video,
            "strict": strict,
        },
    )


def synthesize_media_table_exact(n: int) -> pa.Table:
    """PPM corpus whose dimensions and every pixel are closed-form integer
    functions of ``media_id`` (no RNG): ``w = 16 + id % 48``,
    ``h = 16 + (7·id) % 48``, ``R = (x·255)//(w−1)``, ``G = (y·255)//(h−1)``,
    ``B = (x+y) % 256``.

    This makes the REAL pixel decode end-to-end SQL-verifiable: a DuckDB
    oracle recomputes the exact per-channel integer sums from the same
    arithmetic, so any defect in the P6 parser, channel order, or stride
    math breaks the driver's value hash (the RNG corpus of
    :func:`synthesize_media_table` can only be rows-only-checked).
    """
    payloads = []
    for i in range(n):
        w = 16 + i % 48
        h = 16 + (7 * i) % 48
        xx = np.arange(w, dtype=np.int64)
        yy = np.arange(h, dtype=np.int64)
        r = np.broadcast_to((xx * 255) // (w - 1), (h, w))
        g = np.broadcast_to(((yy * 255) // (h - 1))[:, None], (h, w))
        b = (yy[:, None] + xx[None, :]) % 256
        px = np.stack([r, g, b], axis=-1).astype(np.uint8)
        payloads.append(encode_ppm(px))
    return pa.table(
        {
            "media_id": pa.array(range(n), type=pa.int64()),
            "kind": pa.array(["image"] * n),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["image/x-portable-pixmap"] * n),
        },
        schema=MEDIA_SCHEMA,
    )


class ImageChannelSumStage:
    """payload → (width, height, r_sum, g_sum, b_sum) — integer channel
    sums from the REAL decoded pixels (exact, hash-comparable; the float
    mean_luma of :class:`ImageDecodeStage` is not)."""

    def __init__(self, *, strict: bool = True):
        self.strict = strict

    def _sums(self, payload: bytes | None):
        if payload is None:
            return (None,) * 5
        px = _decode_pixels(payload)
        if px is None:
            if self.strict:
                raise NotImplementedError(
                    "compressed-image decoding requires PIL/opencv — stubbed"
                )
            return (None,) * 5
        s = px.reshape(-1, px.shape[2]).astype(np.int64).sum(axis=0)
        return px.shape[1], px.shape[0], int(s[0]), int(s[1]), int(s[2])

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [self._sums(p) for p in batch.column("payload").to_pylist()]
        cols = list(zip(*rows)) if rows else [[]] * 5
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "width": pa.array(cols[0], type=pa.int64()),
                "height": pa.array(cols[1], type=pa.int64()),
                "r_sum": pa.array(cols[2], type=pa.int64()),
                "g_sum": pa.array(cols[3], type=pa.int64()),
                "b_sum": pa.array(cols[4], type=pa.int64()),
            }
        )


def image_channel_sums(
    ds, *, concurrency: int = 4, batch_size: int = DEFAULT_MEDIA_BATCH_SIZE
):
    """Actor-pool exact channel-sum decode over a media Dataset."""
    return ds.map_batches(
        ImageChannelSumStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class ImageTileSumStage:
    """payload → ``grid×grid`` tile grid of integer pixel sums from the
    REAL decode — the exact (hash-comparable) form of thumbnail / resize
    feature extraction: tile ``(ty, tx)`` covers rows
    ``[(ty·h)//g, ((ty+1)·h)//g) × cols [(tx·w)//g, ((tx+1)·w)//g)``
    (area-partition boundaries, so every pixel lands in exactly one tile
    and the tile sums are pure integers; dividing by the tile areas
    yields the float area-mean downscale).  One output row per tile:
    ``(media_id, tile_y, tile_x, px_sum)`` with ``px_sum = Σ(r+g+b)``.

    Actor-pool stage: the per-image Python loop is inherent (images have
    per-row variable dimensions); the per-image work is vectorized
    (channel fold + two ``np.add.reduceat`` passes)."""

    def __init__(self, *, grid: int = 8, strict: bool = True):
        self.grid = grid
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self.grid
        ids = batch.column("media_id").to_pylist()
        out_id: list[int] = []
        tiles: list[np.ndarray] = []
        for mid, payload in zip(ids, batch.column("payload").to_pylist()):
            px = decode_ppm(payload)
            if px is None:
                if self.strict:
                    raise ValueError(f"media_id={mid}: not a P6 PPM")
                continue
            h, w = px.shape[0], px.shape[1]
            if h < g or w < g:
                if self.strict:
                    raise ValueError(
                        f"media_id={mid}: {w}x{h} smaller than {g}x{g} grid"
                    )
                continue
            a = px.astype(np.int64).sum(axis=2)
            yb = (np.arange(g, dtype=np.int64) * h) // g
            xb = (np.arange(g, dtype=np.int64) * w) // g
            t = np.add.reduceat(np.add.reduceat(a, yb, axis=0), xb, axis=1)
            out_id.append(mid)
            tiles.append(t)
        n = len(out_id)
        return pa.table(
            {
                "media_id": pa.array(
                    np.repeat(np.asarray(out_id, dtype=np.int64), g * g)
                ),
                "tile_y": pa.array(np.tile(np.arange(g * g) // g, n)),
                "tile_x": pa.array(np.tile(np.arange(g * g) % g, n)),
                "px_sum": pa.array(
                    np.concatenate([t.ravel() for t in tiles])
                    if tiles
                    else np.array([], dtype=np.int64)
                ),
            }
        )


def image_tile_sums(
    ds,
    *,
    grid: int = 8,
    concurrency: int = 4,
    batch_size: int = DEFAULT_MEDIA_BATCH_SIZE,
):
    """Actor-pool exact tile-sum (resize-feature) decode over a media
    Dataset."""
    return ds.map_batches(
        ImageTileSumStage,
        fn_constructor_kwargs={"grid": grid},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def synthesize_audio_table_exact(n: int) -> pa.Table:
    """PCM-WAV corpus with closed-form integer samples (sawtooth — no
    transcendentals, so a SQL oracle reproduces every sample exactly):
    ``n_samples = 1000 + (id % 7)·500``, ``k = 3 + id % 11``,
    ``sample[t] = (t·k) % 65536 − 32768``."""
    payloads = []
    for i in range(n):
        ns = 1000 + (i % 7) * 500
        k = 3 + i % 11
        t = np.arange(ns, dtype=np.int64)
        samples = ((t * k) % 65536 - 32768).astype(np.int16)
        payloads.append(encode_wav(samples, 8000))
    return pa.table(
        {
            "media_id": pa.array(range(n), type=pa.int64()),
            "kind": pa.array(["audio"] * n),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["audio/wav"] * n),
        },
        schema=MEDIA_SCHEMA,
    )


class AudioSumStage:
    """payload → (n_samples, sample_sum, abs_sum) — exact integer stats
    from the REAL RIFF/PCM parse (hash-comparable, unlike float RMS)."""

    def __init__(self, *, strict: bool = True):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ns, ss, ab = [], [], []
        for p in batch.column("payload").to_pylist():
            if p is None:
                ns.append(None), ss.append(None), ab.append(None)
                continue
            wav = decode_wav(p)
            if wav is None:
                if self.strict:
                    raise NotImplementedError(
                        "compressed-audio decoding requires a codec — stubbed"
                    )
                ns.append(None), ss.append(None), ab.append(None)
                continue
            samples, _rate = wav
            # decode_wav normalizes to int16/32768.0 (dyadic — exact in
            # float64); rescale recovers the original integers exactly
            s = np.round(samples * 32768.0).astype(np.int64)
            ns.append(len(s)), ss.append(int(s.sum())), ab.append(int(np.abs(s).sum()))
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "n_samples": pa.array(ns, type=pa.int64()),
                "sample_sum": pa.array(ss, type=pa.int64()),
                "abs_sum": pa.array(ab, type=pa.int64()),
            }
        )


def audio_sample_sums(
    ds, *, concurrency: int = 4, batch_size: int = DEFAULT_MEDIA_BATCH_SIZE
):
    """Actor-pool exact audio sample-sum parse over a media Dataset."""
    return ds.map_batches(
        AudioSumStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def synthesize_video_table_exact(n: int) -> pa.Table:
    """YUV4MPEG2 corpus with closed-form frame bytes: 16×12 C420 frames
    (288 bytes), ``n_frames = 4 + id % 9``,
    ``frame[f][j] = (31·f + 7·j + id) % 256``."""
    payloads = []
    fsize = 16 * 12 * 3 // 2
    j = np.arange(fsize, dtype=np.int64)
    for i in range(n):
        nf = 4 + i % 9
        frames = [
            ((31 * f + 7 * j + i) % 256).astype(np.uint8).tobytes()
            for f in range(nf)
        ]
        payloads.append(encode_y4m(frames, 16, 12))
    return pa.table(
        {
            "media_id": pa.array(range(n), type=pa.int64()),
            "kind": pa.array(["video"] * n),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["video/x-yuv4mpeg"] * n),
        },
        schema=MEDIA_SCHEMA,
    )


class VideoFrameByteSumStage:
    """payload → one row per demuxed frame with its exact byte sum — pins
    the REAL y4m demux (frame count, offsets, frame-size stride) to a SQL
    oracle; fan-out layout like :class:`VideoFrameSampleStage`."""

    def __init__(self, *, strict: bool = True):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, sums = [], [], []
        for mid, p in zip(
            batch.column("media_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            if p is None:
                continue
            lay = y4m_layout(p)
            if lay is None:
                if self.strict:
                    raise NotImplementedError(
                        "compressed-video demux requires a codec — stubbed"
                    )
                continue
            offsets, _w, _h, fsize = lay
            for fi, o in enumerate(offsets):
                frame = np.frombuffer(p, dtype=np.uint8, count=fsize, offset=o)
                ids.append(mid)
                idxs.append(fi)
                sums.append(int(frame.astype(np.int64).sum()))
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(idxs, type=pa.int64()),
                "byte_sum": pa.array(sums, type=pa.int64()),
            }
        )


def video_frame_byte_sums(
    ds, *, concurrency: int = 4, batch_size: int = DEFAULT_MEDIA_BATCH_SIZE
):
    """Actor-pool exact per-frame byte-sum demux over a media Dataset."""
    return ds.map_batches(
        VideoFrameByteSumStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# perceptual hashing (pHash) + near-duplicate images
# ---------------------------------------------------------------------------


class ImagePHashStage:
    """payload → 64-bit pHash: REAL pixel decode → integer luma →
    32×32 area resize → DCT-II (matmul against a matrix precomputed ONCE
    per actor in ``__init__``) → sign-vs-median of the low-frequency 8×8
    block (DC excluded).  Near-identical images (small brightness/noise
    perturbations, recompression) land within a few Hamming bits; the
    hash is deterministic (fixed IEEE float64 ops, no RNG).

    Compressed codecs (JPEG/PNG) are the documented stub of this module —
    the pipeline shape (actor pool, per-actor state, binary column in /
    fixed-width hash out) is exactly what a PIL/opencv-backed decode would
    use at scale.
    """

    SIZE = 32
    LOW = 8

    def __init__(self, *, strict: bool = True):
        self.strict = strict
        k = np.arange(self.SIZE, dtype=np.float64)
        # orthonormal DCT-II matrix: D @ x applies the transform
        self.dct = np.sqrt(2.0 / self.SIZE) * np.cos(
            np.pi * (2.0 * k[None, :] + 1.0) * k[:, None] / (2.0 * self.SIZE)
        )
        self.dct[0] *= 1.0 / np.sqrt(2.0)
        self.bit_weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))

    def _phash(self, payload: bytes | None):
        if payload is None:
            return None
        px = _decode_pixels(payload)
        if px is None:
            if self.strict:
                raise NotImplementedError(
                    "compressed-image decoding requires PIL/opencv — stubbed"
                )
            return None
        luma = (
            299 * px[:, :, 0].astype(np.int64)
            + 587 * px[:, :, 1].astype(np.int64)
            + 114 * px[:, :, 2].astype(np.int64)
        ) // 1000
        # images smaller than the DCT grid upsample by integer repeat
        # first (review finding: sub-32px dims left empty mean-boxes →
        # 0/0 = NaN → every small image hashed 0 and mass-deduped)
        if luma.shape[0] < self.SIZE:
            luma = np.repeat(luma, -(-self.SIZE // luma.shape[0]), axis=0)
        if luma.shape[1] < self.SIZE:
            luma = np.repeat(luma, -(-self.SIZE // luma.shape[1]), axis=1)
        h, w = luma.shape
        # area resize to SIZE×SIZE: mean over the pixel box each output
        # cell covers
        ys = (np.arange(self.SIZE + 1) * h) // self.SIZE
        xs = (np.arange(self.SIZE + 1) * w) // self.SIZE
        cs = np.zeros((h + 1, w + 1), dtype=np.int64)
        cs[1:, 1:] = luma.cumsum(0).cumsum(1)
        box = (
            cs[ys[1:, None], xs[None, 1:]]
            - cs[ys[:-1, None], xs[None, 1:]]
            - cs[ys[1:, None], xs[None, :-1]]
            + cs[ys[:-1, None], xs[None, :-1]]
        ).astype(np.float64)
        cnt = (
            (ys[1:] - ys[:-1])[:, None] * (xs[1:] - xs[:-1])[None, :]
        ).astype(np.float64)
        small = box / cnt
        freq = self.dct @ small @ self.dct.T
        low = freq[: self.LOW, : self.LOW].ravel()
        coeffs = low[1:]  # exclude DC
        med = np.median(coeffs)
        bits = np.zeros(64, dtype=bool)
        bits[: len(coeffs)] = coeffs > med
        return int(self.bit_weights[bits].sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = [
            self._phash(p) for p in batch.column("payload").to_pylist()
        ]
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "phash": pa.array(hashes, type=pa.uint64()),
            }
        )


def image_phashes(
    ds, *, concurrency: int = 4, batch_size: int = DEFAULT_MEDIA_BATCH_SIZE
):
    """Actor-pool pHash over a media Dataset."""
    return ds.map_batches(
        ImagePHashStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def dedup_phash_images(
    ds,
    *,
    max_hamming: int = 3,
    bands: int = 4,
    concurrency: int = 4,
    num_partitions: int = 32,
    filter_mode: str = "broadcast",
):
    """Near-duplicate image removal by pHash: hash in an actor pool, then
    band the 64-bit hashes (pigeonhole: Hamming ≤ bands−1 ⇒ some exact
    band match, so the candidate set is COMPLETE at ``max_hamming ≤
    bands−1``), verify candidates with an exact vectorized popcount, and
    keep the earliest ``media_id`` of each near-dup set.  The image
    payload never rides any exchange — only (band hash, media_id, phash)
    rows do.
    """
    hashes = image_phashes(ds, concurrency=concurrency)
    return _dedup_by_hash_banding(
        ds,
        hashes,
        max_hamming=max_hamming,
        bands=bands,
        num_partitions=num_partitions,
        filter_mode=filter_mode,
    )


def _dedup_by_hash_banding(
    ds,
    hashes,
    *,
    max_hamming: int,
    bands: int,
    num_partitions: int,
    filter_mode: str,
):
    """Shared banded-Hamming dedup core over a ``(media_id, phash)``
    Dataset: band buckets → pair expansion → SWAR-popcount verify →
    keep-first filter of the ORIGINAL dataset."""
    if max_hamming > bands - 1:
        raise ValueError(
            "banding is only complete for max_hamming <= bands - 1"
        )
    from ..pipelines.dedup import _apply_dup_filter

    width = 64 // bands
    band_mask = np.uint64((1 << width) - 1)

    def route(batch: pa.Table) -> pa.Table:
        # null phash (null payload, or strict=False decode failure) can't
        # near-dup anything — drop BEFORE the numpy conversion (a null
        # would become NaN→garbage uint64, colliding all null rows)
        phc = batch.column("phash")
        if isinstance(phc, pa.ChunkedArray):
            phc = phc.combine_chunks()
        batch = batch.filter(phc.is_valid())
        ph = batch.column("phash").to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        ids = batch.column("media_id").to_numpy(zero_copy_only=False)
        outs = []
        for b in range(bands):
            chunk = (ph >> np.uint64(b * width)) & band_mask
            # band id folded in so equal values in different bands differ
            bucket = chunk * np.uint64(bands) + np.uint64(b)
            outs.append(
                pa.table(
                    {
                        "bucket": pa.array(bucket, type=pa.uint64()),
                        "id": pa.array(ids, type=pa.int64()),
                        "phash": pa.array(ph, type=pa.uint64()),
                    }
                )
            )
        t = pa.concat_tables(outs)
        part = (
            t.column("bucket").to_numpy(zero_copy_only=False)
            % np.uint64(num_partitions)
        ).astype(np.int64)
        return t.append_column("_part", pa.array(part, type=pa.int64()))

    def resolve(group: pa.Table) -> pa.Table:
        bucket = group.column("bucket").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        ph = group.column("phash").to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        order = np.lexsort((ids, bucket))
        bucket, ids, ph = bucket[order], ids[order], ph[order]
        n = len(bucket)
        if n < 2:
            return pa.table({"dup_id": pa.array([], type=pa.int64())})
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = bucket[1:] != bucket[:-1]
        seg_start = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        pos = np.arange(n) - seg_start[seg_id]
        total = int(pos.sum())
        if total == 0:
            return pa.table({"dup_id": pa.array([], type=pa.int64())})
        b_idx = np.repeat(np.arange(n), pos)
        pairs_before = np.concatenate(([0], np.cumsum(pos)[:-1]))
        a_idx = np.arange(total) + np.repeat(
            seg_start[seg_id] - pairs_before, pos
        )
        x = ph[a_idx] ^ ph[b_idx]
        # vectorized popcount (SWAR)
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        ham = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
        ok = ham <= np.uint64(max_hamming)
        ia, ib = ids[a_idx][ok], ids[b_idx][ok]
        dup = np.where(ia < ib, ib, ia)  # later id loses
        return pa.table(
            {"dup_id": pa.array(np.unique(dup), type=pa.int64())}
        )

    candidates = (
        hashes.map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby("_part")
        .map_groups(resolve, batch_format="pyarrow")
    )
    return _apply_dup_filter(ds, "media_id", candidates, filter_mode)


def synthesize_noise_media_table(
    n: int, *, dup_rate: int = 5, seed: int = 1234
) -> pa.Table:
    """Structurally distinct noise images with planted near-duplicates:
    every ``dup_rate``-th image is a +1-red-channel perturbation of the
    previous one (a near-dup a pHash must catch; exact hashes differ).
    Seeded and deterministic."""
    rng = np.random.default_rng(seed)
    payloads, ids = [], []
    i = 0
    while len(payloads) < n:
        px = rng.integers(0, 256, (40, 40, 3)).astype(np.uint8)
        payloads.append(encode_ppm(px))
        ids.append(i)
        i += 1
        if len(payloads) < n and len(payloads) % dup_rate == 0:
            pert = px.copy()
            pert[:, :, 0] = np.minimum(
                pert[:, :, 0].astype(np.int64) + 1, 255
            ).astype(np.uint8)
            payloads.append(encode_ppm(pert))
            ids.append(i)
            i += 1
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "kind": pa.array(["image"] * len(ids)),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["image/x-portable-pixmap"] * len(ids)),
        },
        schema=MEDIA_SCHEMA,
    )


# ---------------------------------------------------------------------------
# audio fingerprinting (spectral hash) + near-duplicate audio
# ---------------------------------------------------------------------------


class AudioFingerprintStage:
    """payload → 64-bit spectral fingerprint from the REAL PCM decode:
    frame the mono signal (2048 samples, hop 1024, Hann window precomputed
    per actor), FFT per frame, pool log-band energies into an 8×9
    (frame-pool × band) grid, and take the sign of the time-and-band
    energy DELTAS (the Haitsma–Kalker / chromaprint bit rule) — a 9×9
    pool grid gives 8×8 = 64 REAL delta bits (no zero padding: a padded
    top band would collapse its dedup bucket space) — 64 bits
    robust to small gain/noise perturbations, deterministic (fixed IEEE
    ops, no RNG).  Null payloads and undecodable audio → null (strict
    raises for compressed codecs, same contract as the other stages)."""

    FRAME = 2048
    HOP = 1024
    POOL_T = 9
    BANDS = 9

    def __init__(self, *, strict: bool = True):
        self.strict = strict
        self.window = np.hanning(self.FRAME)
        # log-spaced band edges over the positive-frequency bins
        nbins = self.FRAME // 2 + 1
        self.edges = np.unique(
            np.geomspace(2, nbins - 1, self.BANDS + 1).astype(np.int64)
        )
        while len(self.edges) < self.BANDS + 1:  # tiny-N degenerate guard
            self.edges = np.append(self.edges, self.edges[-1] + 1)
        self.bit_weights = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def _fingerprint(self, payload: bytes | None):
        if payload is None:
            return None
        decoded = decode_wav(payload)
        if decoded is None:
            if self.strict:
                raise NotImplementedError(
                    "compressed-audio decoding requires ffmpeg/librosa — stubbed"
                )
            return None
        samples, _rate = decoded
        if len(samples) < self.FRAME:
            samples = np.pad(samples, (0, self.FRAME - len(samples)))
        n_frames = 1 + (len(samples) - self.FRAME) // self.HOP
        idx = (
            np.arange(self.FRAME)[None, :]
            + np.arange(n_frames)[:, None] * self.HOP
        )
        frames = samples[idx] * self.window[None, :]
        spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2
        # band energies; reduceat's last segment always runs to the end of
        # the spectrum, so zero the bins past the documented top edge first
        # — otherwise the top retained band silently absorbs everything up
        # to Nyquist instead of stopping at its log-spaced edge
        top = min(int(self.edges[self.BANDS]), spec.shape[1])
        spec[:, top:] = 0.0
        bands = np.add.reduceat(spec, self.edges[:-1], axis=1)[
            :, : self.BANDS
        ]
        # pool frames into POOL_T equal time buckets (mean)
        bounds = (np.arange(self.POOL_T + 1) * n_frames) // self.POOL_T
        bounds = np.maximum(bounds, np.arange(self.POOL_T + 1))
        bounds = np.minimum(bounds, n_frames)
        pooled = np.empty((self.POOL_T, self.BANDS))
        for tslot in range(self.POOL_T):
            a, b = bounds[tslot], bounds[tslot + 1]
            pooled[tslot] = (
                bands[a:b].mean(axis=0) if b > a else 0.0
            )
        loge = np.log1p(pooled)
        # bit(t, b) = 1 iff the (time, band) energy delta is positive
        d = (loge[1:, 1:] - loge[1:, :-1]) - (loge[:-1, 1:] - loge[:-1, :-1])
        bits = (d > 0).ravel()  # 8 × 8 = 64 real bits
        return int(self.bit_weights[bits].sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = [
            self._fingerprint(p)
            for p in batch.column("payload").to_pylist()
        ]
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "afp": pa.array(fps, type=pa.uint64()),
            }
        )


def dedup_audio_fingerprint(
    ds,
    *,
    max_hamming: int = 3,
    bands: int = 4,
    concurrency: int = 4,
    num_partitions: int = 32,
    filter_mode: str = "broadcast",
):
    """Near-duplicate audio removal by spectral fingerprint — the audio
    sibling of :func:`dedup_phash_images`: actor-pool fingerprinting, then
    the identical banded-Hamming candidate/verify/keep-first machinery
    (pigeonhole-complete at ``max_hamming ≤ bands−1``); payload bytes
    never ride an exchange."""
    fps = ds.map_batches(
        AudioFingerprintStage,
        batch_format="pyarrow",
        batch_size=DEFAULT_MEDIA_BATCH_SIZE,
        concurrency=concurrency,
    ).map_batches(
        lambda b: b.rename_columns(["media_id", "phash"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    return _dedup_by_hash_banding(
        ds,
        fps,
        max_hamming=max_hamming,
        bands=bands,
        num_partitions=num_partitions,
        filter_mode=filter_mode,
    )
