"""Multimodal actor-pool stage tests: real Ray plumbing (schemas, actor
signatures, fan-out layout), stubbed codecs (deterministic fakes)."""

import numpy as np
import pyarrow as pa
import pytest

from airbyte_destination_ray.stages.multimodal import (
    AudioFeatureStage,
    ImageDecodeStage,
    VideoFrameSampleStage,
    decode_images,
    sample_video_frames,
    synthesize_media_table,
)


def test_synthesize_media_deterministic():
    a = synthesize_media_table(4)
    b = synthesize_media_table(4)
    assert a.equals(b)
    assert a.column("payload").to_pylist()[0] is not None


def test_image_decode_stage_local():
    t = synthesize_media_table(5)
    out = ImageDecodeStage()(t)
    assert out.column_names == ["media_id", "kind", "mime", "width", "height", "channels", "mean_luma"]
    assert all(64 <= w <= 2048 for w in out.column("width").to_pylist())
    # deterministic: same payload → same fake decode
    out2 = ImageDecodeStage()(synthesize_media_table(5))
    assert out.equals(out2)


def test_image_decode_strict_marks_stub():
    t = synthesize_media_table(1)
    with pytest.raises(NotImplementedError):
        ImageDecodeStage(strict=True)(t)


def test_audio_features_fixed_dim():
    t = synthesize_media_table(3, kind="audio", payload_bytes=32000)
    out = AudioFeatureStage(dim=16)(t)
    assert all(len(f) == 16 for f in out.column("features").to_pylist())
    assert out.column("duration_sec").to_pylist()[0] == pytest.approx(1.0)


def test_video_fan_out_layout():
    t = synthesize_media_table(2, kind="video", payload_bytes=8192)
    out = VideoFrameSampleStage(frames_per_video=4, frame_bytes=1024)(t)
    assert out.num_rows == 8
    assert out.column_names == ["media_id", "frame_idx", "frame"]
    assert all(len(f) == 1024 for f in out.column("frame").to_pylist())


def test_actor_pool_decode_on_ray(ray_session):
    import ray.data

    ds = ray.data.from_arrow(synthesize_media_table(40))
    out = decode_images(ds, concurrency=2, batch_size=8)
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    assert t.num_rows == 40
    assert "mean_luma" in t.column_names


def test_actor_pool_frame_sampling_on_ray(ray_session):
    import ray.data

    ds = ray.data.from_arrow(synthesize_media_table(10, kind="video", payload_bytes=8192))
    out = sample_video_frames(ds, frames_per_video=3, concurrency=2)
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    assert t.num_rows == 30


def test_ppm_decode_roundtrip_exact():
    import numpy as np

    from airbyte_destination_ray.stages.multimodal import decode_ppm, encode_ppm

    px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    assert (decode_ppm(encode_ppm(px)) == px).all()
    # comments in the header are skipped
    with_comment = b"P6\n# a comment\n3 2\n255\n" + px.tobytes()
    assert (decode_ppm(with_comment) == px).all()
    assert decode_ppm(b"P6\n3 2\n255\n" + b"\x00" * 5) is None  # truncated


def test_bmp_decode_real():
    import numpy as np

    from airbyte_destination_ray.stages.multimodal import decode_bmp

    # hand-build a 2x2 24-bit bottom-up BMP: rows padded to 4 bytes
    w, h = 2, 2
    stride = (w * 3 + 3) & ~3
    px = np.array(
        [[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [10, 20, 30]]],
        dtype=np.uint8,
    )  # RGB, top-down
    rows = b""
    for r in range(h - 1, -1, -1):  # bottom-up storage
        row = px[r][:, ::-1].tobytes()  # RGB→BGR
        rows += row + b"\x00" * (stride - len(row))
    header = (
        b"BM"
        + (54 + len(rows)).to_bytes(4, "little")
        + b"\x00\x00\x00\x00"
        + (54).to_bytes(4, "little")
        + (40).to_bytes(4, "little")
        + w.to_bytes(4, "little")
        + h.to_bytes(4, "little")
        + (1).to_bytes(2, "little")
        + (24).to_bytes(2, "little")
        + (0).to_bytes(4, "little")
        + len(rows).to_bytes(4, "little")
        + b"\x00" * 16
    )
    out = decode_bmp(header + rows)
    assert (out == px).all()


def test_real_decode_pipeline():
    from airbyte_destination_ray.stages.multimodal import (
        ImageDecodeStage,
        synthesize_media_table,
    )

    t = synthesize_media_table(6, real_format="ppm")
    out = ImageDecodeStage(strict=True)(t)  # strict OK: real path, no stub
    ws = out.column("width").to_pylist()
    hs = out.column("height").to_pylist()
    assert all(16 <= w < 64 for w in ws) and all(16 <= h < 64 for h in hs)
    lumas = out.column("mean_luma").to_pylist()
    assert all(0.0 < l < 1.0 for l in lumas)


def test_wav_decode_real_features():
    import numpy as np

    from airbyte_destination_ray.stages.multimodal import (
        AudioFeatureStage,
        decode_wav,
        encode_wav,
    )

    rate = 8000
    t = np.arange(rate * 2)  # 2 seconds
    sine = (np.sin(2 * np.pi * 440 * t / rate) * 16384).astype(np.int16)
    wav = encode_wav(sine, rate)
    samples, r = decode_wav(wav)
    assert r == rate and len(samples) == len(sine)
    tbl = pa.table(
        {
            "media_id": pa.array([0], type=pa.int64()),
            "kind": pa.array(["audio"]),
            "payload": pa.array([wav], type=pa.binary()),
            "mime": pa.array(["audio/wav"]),
        }
    )
    out = AudioFeatureStage(dim=8, strict=True)(tbl)  # strict OK: real path
    assert abs(out.column("duration_sec").to_pylist()[0] - 2.0) < 1e-9
    feats = out.column("features").to_pylist()[0]
    # constant-amplitude sine → every RMS segment ~ A/sqrt(2) = 0.3536
    assert len(feats) == 8
    assert all(abs(f - 0.3536) < 0.01 for f in feats)


def test_y4m_frame_sampling_real():
    import numpy as np

    from airbyte_destination_ray.stages.multimodal import (
        VideoFrameSampleStage,
        encode_y4m,
    )

    w, h, nf = 8, 6, 10
    fsize = w * h * 3 // 2
    all_frames = [bytes([i]) * fsize for i in range(nf)]
    payload = encode_y4m(all_frames, w, h)
    tbl = pa.table(
        {
            "media_id": pa.array([7], type=pa.int64()),
            "kind": pa.array(["video"]),
            "payload": pa.array([payload], type=pa.binary()),
            "mime": pa.array(["video/x-yuv4mpeg"]),
        }
    )
    out = VideoFrameSampleStage(frames_per_video=4, strict=True)(tbl)
    assert out.num_rows == 4
    # evenly spaced TRUE frames: indices 0, 3, 6, 9
    got = [f[0] for f in out.column("frame").to_pylist()]
    assert got == [0, 3, 6, 9]
    assert all(len(f) == fsize for f in out.column("frame").to_pylist())


def test_malformed_codec_free_payloads_never_hang_or_raise():
    """Review repro fixes: malformed headers return None (stub fallback) —
    negative y4m height used to infinite-loop; negative PPM dims and
    zero-rate WAVs used to raise."""
    from airbyte_destination_ray.stages.multimodal import (
        decode_ppm,
        decode_wav,
        encode_wav,
        y4m_layout,
    )
    import numpy as np

    assert y4m_layout(b"YUV4MPEG2 W2 H-2\nFRAME\n") is None
    assert y4m_layout(b"YUV4MPEG2 Wx H2\nFRAME\n") is None
    assert decode_ppm(b"P6\n-3 -2\n255\n" + b"\x00" * 18) is None
    assert decode_ppm(b"P6\n0 0\n255\n") is None
    wav = bytearray(encode_wav(np.zeros(16, dtype=np.int16), 8000))
    wav[24:28] = (0).to_bytes(4, "little")  # sampleRate = 0
    assert decode_wav(bytes(wav)) is None


def test_exact_corpus_channel_sums_match_closed_form(ray_session):
    """The exact corpus round-trips: real P6 decode must reproduce the
    closed-form per-channel integer sums (and dims) for every image."""
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        image_channel_sums,
        synthesize_media_table_exact,
    )

    out = (
        image_channel_sums(
            ray.data.from_arrow(synthesize_media_table_exact(12)),
            concurrency=1,
            batch_size=4,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    for i in range(12):
        w, h = 16 + i % 48, 16 + (7 * i) % 48
        assert out.loc[i, "width"] == w and out.loc[i, "height"] == h
        assert out.loc[i, "r_sum"] == h * sum((x * 255) // (w - 1) for x in range(w))
        assert out.loc[i, "g_sum"] == w * sum((y * 255) // (h - 1) for y in range(h))
        assert out.loc[i, "b_sum"] == sum(
            (x + y) % 256 for x in range(w) for y in range(h)
        )


def test_exact_audio_sums_match_closed_form(ray_session):
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        audio_sample_sums,
        synthesize_audio_table_exact,
    )

    out = (
        audio_sample_sums(
            ray.data.from_arrow(synthesize_audio_table_exact(8)),
            concurrency=1,
            batch_size=4,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    for i in range(8):
        n, k = 1000 + (i % 7) * 500, 3 + i % 11
        vals = [(t * k) % 65536 - 32768 for t in range(n)]
        assert out.loc[i, "n_samples"] == n
        assert out.loc[i, "sample_sum"] == sum(vals)
        assert out.loc[i, "abs_sum"] == sum(abs(v) for v in vals)


def test_exact_video_frame_sums_match_closed_form(ray_session):
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        synthesize_video_table_exact,
        video_frame_byte_sums,
    )

    out = (
        video_frame_byte_sums(
            ray.data.from_arrow(synthesize_video_table_exact(6)),
            concurrency=1,
            batch_size=3,
        )
        .to_pandas()
        .sort_values(["media_id", "frame_idx"])
        .reset_index(drop=True)
    )
    r = 0
    for i in range(6):
        nf = 4 + i % 9
        for f in range(nf):
            assert out.loc[r, "media_id"] == i and out.loc[r, "frame_idx"] == f
            assert out.loc[r, "byte_sum"] == sum(
                (31 * f + 7 * j + i) % 256 for j in range(288)
            )
            r += 1
    assert r == len(out)


def test_phash_near_dup_images_detected_exact_kept(ray_session):
    """pHash dedup: a lightly perturbed copy of an image collides within
    the Hamming budget and the LATER media_id is dropped; structurally
    different images all survive; banding candidates are verified by the
    exact popcount (an unrelated image sharing one band can't be dropped)."""
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        ImagePHashStage,
        dedup_phash_images,
        encode_ppm,
    )

    # structurally DISTINCT images: independent random noise per id (the
    # closed-form gradient corpus is the same pattern at every size, which
    # pHash correctly reports as one near-dup cluster)
    stage = ImagePHashStage()
    rng = np.random.default_rng(99)
    payloads = [
        encode_ppm(rng.integers(0, 256, (40, 40, 3)).astype(np.uint8))
        for _ in range(24)
    ]
    # perturbed copies of images 0..2: +1 on the red channel (tiny)
    from airbyte_destination_ray.stages.multimodal import _decode_pixels

    dup_payloads, dup_ids = [], []
    for i in range(3):
        px = _decode_pixels(payloads[i]).copy()
        px[:, :, 0] = np.minimum(px[:, :, 0].astype(np.int64) + 1, 255).astype(
            np.uint8
        )
        dup_payloads.append(encode_ppm(px))
        dup_ids.append(100 + i)
    corpus = pa.table(
        {
            "media_id": pa.array(
                list(range(24)) + dup_ids, type=pa.int64()
            ),
            "kind": pa.array(["image"] * 27),
            "payload": pa.array(payloads + dup_payloads, type=pa.binary()),
            "mime": pa.array(["image/x-portable-pixmap"] * 27),
        }
    )

    # the perturbed hash must be near, not merely equal by luck
    h0 = stage._phash(payloads[0])
    h0p = stage._phash(dup_payloads[0])
    ham = bin(h0 ^ h0p).count("1")
    assert ham <= 3

    out = dedup_phash_images(
        ray.data.from_arrow(corpus).repartition(4),
        max_hamming=3,
        concurrency=2,
    )
    kept = sorted(out.to_pandas()["media_id"])
    assert 100 not in kept and 101 not in kept and 102 not in kept
    # all original images survive (they are structurally distinct)
    assert set(range(24)) <= set(kept)


def test_phash_deterministic_and_batch_independent(ray_session):
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        image_phashes,
        synthesize_media_table_exact,
    )

    t = synthesize_media_table_exact(40)

    def run(blocks):
        return (
            image_phashes(
                ray.data.from_arrow(t).repartition(blocks), concurrency=2
            )
            .to_pandas()
            .sort_values("media_id")["phash"]
            .tolist()
        )

    assert run(1) == run(7)


def test_phash_small_images_and_null_payloads(ray_session):
    """Sub-32px images hash by content (not all-NaN → 0), and null
    payloads never collide with each other (review regressions)."""
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        ImagePHashStage,
        dedup_phash_images,
        encode_ppm,
    )

    rng = np.random.default_rng(3)
    a16 = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
    b16 = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
    stage = ImagePHashStage()
    ha = stage._phash(encode_ppm(a16))
    hb = stage._phash(encode_ppm(b16))
    assert ha != 0 and hb != 0
    assert bin(ha ^ hb).count("1") > 3  # different content, far hashes

    t = pa.table(
        {
            "media_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "kind": pa.array(["image"] * 4),
            "payload": pa.array(
                [encode_ppm(a16), encode_ppm(b16), None, None],
                type=pa.binary(),
            ),
            "mime": pa.array(["image/x-portable-pixmap"] * 4),
        }
    )
    out = dedup_phash_images(
        ray.data.from_arrow(t), max_hamming=3, concurrency=2
    )
    # nothing dedups: small images differ, null payloads never match
    assert sorted(out.to_pandas()["media_id"]) == [0, 1, 2, 3]


def test_audio_fingerprint_near_dup(ray_session):
    """A +0.5% gain perturbation of a clip lands within Hamming 3 and the
    later media_id drops; structurally different clips (distinct harmonic
    content) survive; null payloads never collide."""
    import ray.data

    from airbyte_destination_ray.stages.multimodal import (
        AudioFingerprintStage,
        dedup_audio_fingerprint,
        encode_wav,
    )

    rate = 8000
    t_ax = np.arange(rate * 2)
    rng = np.random.default_rng(7)
    clips = []
    for i in range(10):
        # distinct multi-tone content per clip
        f1, f2 = 120 + 97 * i, 340 + 61 * i
        sig = (
            np.sin(2 * np.pi * f1 * t_ax / rate)
            + 0.5 * np.sin(2 * np.pi * f2 * t_ax / rate)
            + 0.02 * rng.standard_normal(len(t_ax))
        )
        clips.append((sig * 12000).astype(np.int16))
    stage = AudioFingerprintStage()
    base_fp = stage._fingerprint(encode_wav(clips[0], rate))
    pert = (clips[0].astype(np.float64) * 1.005).astype(np.int16)
    pert_fp = stage._fingerprint(encode_wav(pert, rate))
    assert bin(base_fp ^ pert_fp).count("1") <= 3

    payloads = [encode_wav(c, rate) for c in clips] + [
        encode_wav(pert, rate),
        None,
        None,
    ]
    tbl = pa.table(
        {
            "media_id": pa.array(
                list(range(10)) + [100, 101, 102], type=pa.int64()
            ),
            "kind": pa.array(["audio"] * 13),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["audio/wav"] * 13),
        }
    )
    out = dedup_audio_fingerprint(
        ray.data.from_arrow(tbl).repartition(3), max_hamming=3, concurrency=2
    )
    kept = sorted(out.to_pandas()["media_id"])
    assert 100 not in kept           # perturbed copy of clip 0 dropped
    assert set(range(10)) <= set(kept)  # distinct clips survive
    assert 101 in kept and 102 in kept  # nulls never collide
