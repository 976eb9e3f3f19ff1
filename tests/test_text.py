"""Text-analysis kernel tests: lang-id, quality, token counting,
fingerprinting, simhash, minhash (vectorized kernels, no Ray needed)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from airbyte_destination_ray.functions.minhash import (
    band_keys,
    minhash_signatures,
)
from airbyte_destination_ray.functions.simhash import (
    hamming_distance64,
    simhash64,
)
from airbyte_destination_ray.functions.text import (
    content_fingerprint,
    enrich_text_columns,
    lang_id,
    quality_features,
    quality_score,
)

EN = "The quick brown fox jumps over the lazy dog and that is fine for you"
DE = "Der schnelle braune Fuchs springt über den faulen Hund und das ist nicht schlimm für Sie"
FR = "Le renard brun rapide saute par-dessus le chien paresseux et c'est pour vous dans la maison"
ES = "El rápido zorro marrón salta sobre el perro perezoso para que usted esté con los niños"
ZH = "这是一个中文测试文档，用于检测语言识别功能。这里有很多中文字符。"
RU = "Это русский текст для проверки определения языка в системе"


def test_lang_id_major_languages():
    out = lang_id(pa.array([EN, DE, FR, ES, ZH, RU])).to_pylist()
    assert out == ["en", "de", "fr", "es", "zh", "ru"]


def test_lang_id_null_and_garbage():
    out = lang_id(pa.array([None, "", "12345 999 11"])).to_pylist()
    assert out == [None, "und", "und"]


def test_quality_features_counts():
    f = quality_features(pa.array(["Ab1! x", ""]))
    assert f["n_chars"].to_pylist() == [6, 0]
    assert f["n_words"].to_pylist() == [2, 0]
    assert f["alpha_ratio"].to_pylist()[0] == 3 / 6
    assert f["digit_ratio"].to_pylist()[0] == 1 / 6
    assert f["upper_ratio"].to_pylist()[0] == 1 / 6
    assert f["punct_ratio"].to_pylist()[0] == 1 / 6


def test_quality_score_ordering():
    s = quality_score(pa.array([EN, "1 2 3 4 5 6 7 8 9", None])).to_pylist()
    assert s[0] > s[1]  # prose beats digits
    assert s[2] is None


def test_quality_features_utf8_chars():
    f = quality_features(pa.array([ZH]))
    assert f["n_chars"].to_pylist() == [pc.utf8_length(pa.array([ZH]))[0].as_py()]


def test_fingerprint_exact_and_normalized():
    a = content_fingerprint(pa.array(["Hello  World", "hello world", None]))
    assert a.to_pylist()[0] != a.to_pylist()[1]
    assert a.to_pylist()[2] is None
    b = content_fingerprint(
        pa.array(["Hello  World", "hello world"]), normalize=True
    )
    assert b.to_pylist()[0] == b.to_pylist()[1]


def test_enrich_appends_columns_and_is_deterministic():
    t = pa.table({"text": pa.array([EN, None, ""])})
    o1 = enrich_text_columns(t)
    o2 = enrich_text_columns(t)
    assert o1.column_names == ["text", "lang_id", "quality", "n_tokens", "fingerprint"]
    assert o1.equals(o2)


def test_simhash_near_dup_vs_different():
    a = EN + " it was a sunny day in the park and everyone was happy"
    b = a.replace("sunny", "rainy")
    c = "completely different content about machine learning and neural networks"
    fp = simhash64(pa.array([a, b, c])).to_pylist()
    f = np.array(fp, dtype=np.uint64)
    near = hamming_distance64(f[:1], f[1:2])[0]
    far = hamming_distance64(f[:1], f[2:3])[0]
    assert near <= 6 < far


def test_simhash_empty_and_null():
    fp = simhash64(pa.array([None, "", "one"])).to_pylist()
    assert fp[0] is None and fp[1] == 0 and fp[2] != 0


def test_minhash_jaccard_discrimination():
    a = EN + " it was a sunny day in the park and everyone was happy today"
    b = a.replace("sunny", "rainy")
    c = "completely different content about machine learning and neural networks training"
    sig = minhash_signatures(pa.array([a, b, c]), num_perm=64, shingle_k=5)
    # the share of agreeing signature slots estimates the Jaccard similarity
    assert (sig[0] == sig[1]).mean() > 0.3
    assert (sig[0] == sig[2]).mean() < 0.1


def test_minhash_band_keys_candidate_property():
    a = EN + " it was a sunny day in the park and everyone was happy today"
    b = a.replace("sunny", "rainy")
    c = "completely different content about machine learning and neural networks training"
    sig = minhash_signatures(pa.array([a, b, c]), num_perm=64, shingle_k=5)
    _, keys = band_keys(sig, bands=16)
    kk = keys.reshape(3, 16)
    assert (kk[0] == kk[1]).sum() >= 1  # near-dups share a band
    assert (kk[0] == kk[2]).sum() == 0  # unrelated docs don't


def test_minhash_empty_doc_matches_nothing():
    sig = minhash_signatures(pa.array(["", "some real text here"]), num_perm=8)
    assert (sig[0] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
    assert not (sig[1] == np.uint64(0xFFFFFFFFFFFFFFFF)).any()


def test_quality_features_match_python_reference():
    """Property check: the byte engine equals a plain-Python reference on
    random ASCII documents (hypothesis-free deterministic sweep)."""
    import random

    rng = random.Random(7)
    chars = "abc XYZ 019 .,!?\t\n  "
    docs = ["".join(rng.choice(chars) for _ in range(rng.randint(0, 60))) for _ in range(200)]
    f = quality_features(pa.array(docs))
    for i, d in enumerate(docs):
        assert f["n_chars"].to_pylist()[i] == len(d), d
        assert f["n_words"].to_pylist()[i] == len(d.split()), d
        n_alpha = sum(c.isalpha() for c in d)
        n_digit = sum(c.isdigit() for c in d)
        n_upper = sum(c.isupper() for c in d)
        n = max(len(d), 1)
        if len(d):
            assert abs(f["alpha_ratio"].to_pylist()[i] - n_alpha / n) < 1e-9
            assert abs(f["digit_ratio"].to_pylist()[i] - n_digit / n) < 1e-9
            assert abs(f["upper_ratio"].to_pylist()[i] - n_upper / n) < 1e-9


def test_repetition_features_counts_and_nulls():
    import pyarrow as pa

    from airbyte_destination_ray.functions.text import repetition_features

    texts = pa.array(
        [
            "a\nb\na\nc",      # 4 lines, 3 distinct
            "same\nsame\nsame",  # 3 lines, 1 distinct
            "single",           # 1 line, 1 distinct
            "",                 # split('') -> [''] : 1 line, 1 distinct
            None,
        ]
    )
    f = repetition_features(texts)
    assert f["n_lines"].to_pylist() == [4, 3, 1, 1, None]
    assert f["n_distinct_lines"].to_pylist() == [3, 1, 1, 1, None]
    fracs = f["dup_line_frac"].to_pylist()
    assert fracs[0] == 0.25 and abs(fracs[1] - 2 / 3) < 1e-12
    assert fracs[2] == 0.0 and fracs[3] == 0.0 and fracs[4] is None


def test_redact_pii_patterns():
    import pyarrow as pa

    from airbyte_destination_ray.functions.text import redact_pii

    texts = pa.array(
        [
            "mail me at jane.doe+x@example.co.uk now",
            "server 192.168.1.200 and backup 10.0.0.1",
            "call +1 555-123-4567 today",
            "clean text with no pii at all",
            None,
        ]
    )
    out = redact_pii(texts)
    assert out["n_email"].to_pylist() == [1, 0, 0, 0, None]
    assert out["n_ipv4"].to_pylist() == [0, 2, 0, 0, None]
    assert out["n_phone"].to_pylist() == [0, 0, 1, 0, None]
    red = out["text_redacted"].to_pylist()
    assert red[0] == "mail me at [EMAIL] now"
    assert red[1] == "server [IP] and backup [IP]"
    assert red[2] == "call [PHONE] today"
    assert red[3] == "clean text with no pii at all"
    assert red[4] is None


def test_repetition_features_matches_bruteforce_hypothesis():
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from airbyte_destination_ray.functions.text import repetition_features

    lines = st.lists(
        st.text(alphabet="abʘ≈ x", max_size=4), min_size=0, max_size=6
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(lines, min_size=1, max_size=8))
    def check(docs):
        texts = ["\n".join(d) for d in docs]
        f = repetition_features(pa.array(texts))
        for i, d in enumerate(docs):
            # split semantics: "" splits to [""]
            parts = texts[i].split("\n")
            assert f["n_lines"][i].as_py() == len(parts)
            assert f["n_distinct_lines"][i].as_py() == len(set(parts))

    check()
