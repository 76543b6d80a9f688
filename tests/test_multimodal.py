import numpy as np
import pandas as pd
import pytest

from osm_sidewalkreator_ray.stages.multimodal import (
    AudioFrameSampler, ImageDecoder, VideoFrameSampler, _decode_bmp,
    _decode_wav, _decode_y4m, encode_bmp, encode_wav, encode_y4m,
    media_features, synthetic_media)
from media_references import collect_pairs


def test_bmp_roundtrip():
    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, size=(13, 21, 3), dtype=np.uint8)
    np.testing.assert_array_equal(_decode_bmp(encode_bmp(img)), img)


def test_wav_roundtrip():
    sr = 8000
    t = np.arange(sr // 2) / sr
    x = 0.5 * np.sin(2 * np.pi * 220.0 * t)
    y, sr2 = _decode_wav(encode_wav(x, sr))
    assert sr2 == sr
    assert len(y) == len(x)
    assert np.abs(y - x).max() < 1e-4  # 16-bit quantization only


def test_y4m_roundtrip():
    rng = np.random.RandomState(11)
    frames = rng.randint(0, 256, size=(5, 9, 17), dtype=np.uint8)
    out, fps = _decode_y4m(encode_y4m(frames, 24))
    assert fps == 24
    np.testing.assert_array_equal(out, frames)
    # the bytes are a spec-conformant YUV4MPEG2 stream
    assert encode_y4m(frames, 24).startswith(b"YUV4MPEG2 W17 H9 F24:1")


def test_real_decode_of_synthetic_payloads():
    """The synthetic table carries real BMP/WAV/Y4M bytes; the default
    (non-fake) decoders must handle them."""
    t = synthetic_media(9).to_pandas()
    img_out = ImageDecoder()(t[t["kind"] == "image"])
    assert len(img_out) == 3 and len(img_out.iloc[0]["thumb"]) == 64
    # gradient images: mean luma well inside (0, 255)
    assert 32 < img_out["mean_luma"].iloc[0] < 224
    aud_out = AudioFrameSampler()(t[t["kind"] == "audio"])
    assert len(aud_out) == 3
    # 0.5-amplitude sine: RMS ~ 0.35
    e = np.mean(aud_out.iloc[0]["frame_energy"])
    assert 0.2 < e < 0.5
    assert aud_out["duration_s"].between(0.2, 1.0).all()
    vid_out = VideoFrameSampler()(t[t["kind"] == "video"])
    assert len(vid_out) == 3
    # moving gradient: nonzero motion, plausible duration (8-16 @12fps)
    assert (vid_out["motion_score"] > 0).all()
    assert vid_out["duration_s"].between(0.5, 1.5).all()
    assert all(len(f) == 8 for f in vid_out["frame_luma"])


def test_undecodable_payload_is_marked():
    """Formats needing absent codec libs raise at the plug point.
    (The magic must not match any of the real codecs — JPEG and GIF
    now decode for real, so an AVIF-ish magic stands in.)"""
    t = synthetic_media(3).to_pandas()
    bogus = t.copy()
    bogus["payload"] = [b"\x00\x00\x00 ftypavifnot-a-codec"] * len(t)
    with pytest.raises(NotImplementedError):
        ImageDecoder()(bogus[bogus["kind"] == "image"])
    with pytest.raises(NotImplementedError):
        AudioFrameSampler()(bogus[bogus["kind"] == "audio"])
    with pytest.raises(NotImplementedError):
        VideoFrameSampler()(bogus[bogus["kind"] == "video"])
    # fake mode stays available for payload-independent pipeline tests
    out = ImageDecoder(fake=True)(bogus[bogus["kind"] == "image"])
    assert len(out) == 1
    out = VideoFrameSampler(fake=True)(bogus[bogus["kind"] == "video"])
    assert len(out) == 1


def test_stub_decode_deterministic():
    t = synthetic_media(6).to_pandas()
    dec = ImageDecoder(fake=True)
    out1 = dec(t[t["kind"] == "image"])
    out2 = dec(t[t["kind"] == "image"])
    pd.testing.assert_frame_equal(out1, out2)
    assert len(out1.iloc[0]["thumb"]) == 64


@pytest.mark.usefixtures("ray_session")
def test_media_pipeline_end_to_end():
    df = media_features(n=99)
    assert len(df) == 99 + 33  # audio rows appear twice (energy + spectrum)
    assert set(df["kind"]) == {"image", "audio", "audio_spectrum", "video"}
    assert "payload" not in df.columns  # wide column dropped in-stage
    # deterministic through the distributed path
    pd.testing.assert_frame_equal(df, media_features(n=99))
    # the image features came from the 32x32 RESIZED payloads: rerunning
    # the decoder on the raw payloads gives a different thumb size, but
    # the mean luma of a bilinear resample tracks the original
    spec = df[df["kind"] == "audio_spectrum"]
    assert (spec["feature"] >= 0).all()


def test_resize_bilinear_identity_and_constant():
    from osm_sidewalkreator_ray.stages.multimodal import resize_bilinear
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, size=(17, 23, 3), dtype=np.uint8)
    # identity size: half-pixel offsets are all integral -> exact copy
    np.testing.assert_array_equal(resize_bilinear(img, 17, 23), img)
    # constant image stays constant at any size (up and down)
    const = np.full((10, 14), 99, dtype=np.uint8)
    assert (resize_bilinear(const, 37, 5) == 99).all()
    # grayscale keeps 2-d shape
    assert resize_bilinear(const, 4, 4).shape == (4, 4)


def test_resize_bilinear_gradient_downsample():
    from osm_sidewalkreator_ray.stages.multimodal import resize_bilinear
    # horizontal ramp 0..255 over 256 px -> 2x downsample keeps the
    # ramp: out[x] ~ 2x + 0.5 (half-pixel centers), monotone, endpoints
    ramp = np.tile(np.arange(256, dtype=np.uint8), (8, 1))
    out = resize_bilinear(ramp, 8, 128)
    assert (np.diff(out[0].astype(int)) >= 0).all()
    expect = np.clip(np.rint(2 * np.arange(128) + 0.5), 0, 255)
    assert np.abs(out[0].astype(float) - expect).max() <= 1.0


def test_image_resizer_stage_roundtrip():
    from osm_sidewalkreator_ray.stages.multimodal import ImageResizer
    t = synthetic_media(30).to_pandas()
    imgs = t[t["kind"] == "image"].reset_index(drop=True)
    out = ImageResizer(out_h=24, out_w=40)(imgs)
    assert list(out["media_id"]) == list(imgs["media_id"])
    for p in out["payload"]:
        dec = _decode_bmp(p)
        assert dec.shape == (24, 40, 3)
    # binary->binary: the resized payload feeds the decoder stage
    feats = ImageDecoder()(out)
    assert len(feats) == len(out) and "thumb" in feats.columns


def test_spectrogram_tone_peak_band():
    from osm_sidewalkreator_ray.stages.multimodal import (
        AudioSpectrogram, spectrogram_bands)
    sr, n_fft, n_bands = 8000, 256, 16
    for freq in (440.0, 1760.0, 3300.0):
        t = np.arange(sr) / sr
        x = 0.5 * np.sin(2 * np.pi * freq * t)
        bands = spectrogram_bands(x, n_fft=n_fft, n_bands=n_bands)
        n_bins = n_fft // 2 + 1
        tone_bin = freq / sr * n_fft
        offs = (np.arange(n_bands) * n_bins) // n_bands  # kernel's bands
        expect_band = int(np.searchsorted(offs, tone_bin, "right") - 1)
        assert int(np.argmax(bands)) == expect_band, freq
    # stage path: RIFF payloads through the batch API, deterministic
    t = synthetic_media(30).to_pandas()
    aud = t[t["kind"] == "audio"].reset_index(drop=True)
    stage = AudioSpectrogram()
    out1, out2 = stage(aud), stage(aud)
    pd.testing.assert_frame_equal(out1, out2)
    assert (out1["peak_band"] >= 0).all()
    assert all(len(s) == 16 for s in out1["spectrum"])


def test_spectrogram_short_payload_padded():
    from osm_sidewalkreator_ray.stages.multimodal import spectrogram_bands
    # shorter than one FFT frame: padded, still n_bands finite values
    b = spectrogram_bands(np.ones(50), n_fft=256, n_bands=16)
    assert b.shape == (16,) and np.isfinite(b).all()


class TestPngCodec:
    """Stdlib PNG codec: round-trip + the full spec filter set."""

    def _img(self, h=23, w=31, seed=7):
        rng = np.random.RandomState(seed)
        return rng.randint(0, 256, (h, w, 3), dtype=np.uint8)

    def test_round_trip_exact(self):
        from osm_sidewalkreator_ray.stages.multimodal import (
            encode_png, _decode_png)
        img = self._img()
        assert np.array_equal(_decode_png(encode_png(img)), img)

    def _encode_with_filter(self, img: np.ndarray, f: int) -> bytes:
        """Reference encoder applying one filter type to every row
        (per the PNG spec), to prove the decoder inverts all five."""
        import struct as st
        import zlib
        from osm_sidewalkreator_ray.stages import multimodal as MM
        h, w, _ = img.shape
        prev = np.zeros((w, 3), dtype=np.uint8)
        lines = []
        for y in range(h):
            row = img[y].astype(np.int32)
            left = np.vstack([np.zeros((1, 3), np.int32),
                              row[:-1]])
            upleft = np.vstack([np.zeros((1, 3), np.int32),
                                prev[:-1].astype(np.int32)])
            up = prev.astype(np.int32)
            if f == 0:
                filt = row
            elif f == 1:
                filt = row - left
            elif f == 2:
                filt = row - up
            elif f == 3:
                filt = row - ((left + up) >> 1)
            else:
                pred = np.stack([MM._paeth(left[x].astype(np.uint8),
                                           up[x].astype(np.uint8),
                                           upleft[x].astype(np.uint8))
                                 for x in range(w)]).astype(np.int32)
                filt = row - pred
            lines.append(bytes([f]) + (filt % 256).astype(np.uint8)
                         .tobytes())
            prev = img[y]
        ihdr = st.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        idat = zlib.compress(b"".join(lines))
        return (MM._PNG_SIG + MM._png_chunk(b"IHDR", ihdr)
                + MM._png_chunk(b"IDAT", idat)
                + MM._png_chunk(b"IEND", b""))

    @pytest.mark.parametrize("f", [0, 1, 2, 3, 4])
    def test_all_filter_types_decode(self, f):
        from osm_sidewalkreator_ray.stages.multimodal import _decode_png
        img = self._img(h=9, w=13, seed=f + 1)
        assert np.array_equal(
            _decode_png(self._encode_with_filter(img, f)), img)

    def test_gray_and_rgba(self):
        import struct as st
        import zlib
        from osm_sidewalkreator_ray.stages import multimodal as MM
        rng = np.random.RandomState(3)
        # grayscale (color type 0) expands to 3 equal channels
        g = rng.randint(0, 256, (5, 7), dtype=np.uint8)
        body = np.concatenate(
            [np.concatenate([[0], g[y]]).astype(np.uint8)
             for y in range(5)]).tobytes()
        png = (MM._PNG_SIG
               + MM._png_chunk(b"IHDR", st.pack(">IIBBBBB", 7, 5, 8,
                                                0, 0, 0, 0))
               + MM._png_chunk(b"IDAT", zlib.compress(body))
               + MM._png_chunk(b"IEND", b""))
        out = MM._decode_png(png)
        assert np.array_equal(out, np.repeat(g[:, :, None], 3, axis=2))
        # RGBA (color type 6) drops alpha
        rgba = rng.randint(0, 256, (4, 6, 4), dtype=np.uint8)
        body = np.concatenate(
            [np.concatenate([[0], rgba[y].ravel()]).astype(np.uint8)
             for y in range(4)]).tobytes()
        png = (MM._PNG_SIG
               + MM._png_chunk(b"IHDR", st.pack(">IIBBBBB", 6, 4, 8,
                                                6, 0, 0, 0))
               + MM._png_chunk(b"IDAT", zlib.compress(body))
               + MM._png_chunk(b"IEND", b""))
        assert np.array_equal(MM._decode_png(png), rgba[:, :, :3])

    @pytest.mark.usefixtures("ray_session")
    def test_media_features_handles_png(self):
        """The standing pipeline now feeds alternating BMP/PNG image
        payloads through the real stages; the features are format-
        independent because both codecs are lossless."""
        from osm_sidewalkreator_ray.stages.multimodal import (
            media_features, synthetic_media, _PNG_SIG)
        tbl = synthetic_media(24)
        payloads = [p for p, k in zip(tbl["payload"].to_pylist(),
                                      tbl["kind"].to_pylist())
                    if k == "image"]
        assert any(p[:8] == _PNG_SIG for p in payloads)
        assert any(p[:2] == b"BM" for p in payloads)
        df = media_features(n=24)
        assert (df[df["kind"] == "image"]["feature"] > 0).all()


@pytest.mark.usefixtures("ray_session")
class TestPHash:
    def _media_with_dups(self):
        """Synthetic images plus planted near-duplicates: re-noised
        copies and a BMP-vs-PNG re-encode of the same pixels."""
        from osm_sidewalkreator_ray.stages import multimodal as M
        t = M.synthetic_media(60, seed=7).to_pandas()
        imgs = t[t["kind"] == "image"].reset_index(drop=True)
        rng = np.random.RandomState(0)
        extra = []
        # planted: tiny-noise copy of image 0, cross-format copy of 1
        src0 = M._decode_bmp(imgs.loc[0, "payload"]) \
            if imgs.loc[0, "payload"][:2] == b"BM" \
            else M._decode_png(imgs.loc[0, "payload"])
        noisy = np.clip(src0.astype(np.int16)
                        + rng.randint(-2, 3, src0.shape), 0,
                        255).astype(np.uint8)
        extra.append((1000, M.encode_bmp(noisy),
                      src0.shape[1], src0.shape[0]))
        src1 = M._decode_bmp(imgs.loc[1, "payload"]) \
            if imgs.loc[1, "payload"][:2] == b"BM" \
            else M._decode_png(imgs.loc[1, "payload"])
        other = M.encode_png(src1) \
            if imgs.loc[1, "payload"][:2] == b"BM" \
            else M.encode_bmp(src1)
        extra.append((1001, other, src1.shape[1], src1.shape[0]))
        rows = pd.DataFrame({
            "media_id": [e[0] for e in extra],
            "kind": ["image"] * 2,
            "width": [e[2] for e in extra],
            "height": [e[3] for e in extra],
            "sample_rate": [0, 0], "fps": [0, 0],
            "payload": [e[1] for e in extra]})
        return pd.concat([imgs, rows], ignore_index=True), t

    def test_phash_near_dups_planted(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        imgs, full = self._media_with_dups()
        ds = rd.from_pandas(imgs).repartition(4)
        pairs = collect_pairs(M.phash_near_dups_ds(ds, max_hamming=6))
        found = set(map(tuple, pairs[["media_a",
                                      "media_b"]].to_numpy()))
        a0 = int(imgs.loc[0, "media_id"])
        a1 = int(imgs.loc[1, "media_id"])
        assert (min(a0, 1000), max(a0, 1000)) in found
        # same pixels, different container -> hamming 0
        m = pairs[(pairs["media_a"] == min(a1, 1001))
                  & (pairs["media_b"] == max(a1, 1001))]
        assert len(m) == 1 and m["hamming"].iloc[0] == 0

    def test_phash_equals_bruteforce(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        from osm_sidewalkreator_ray.functions.hamming import \
            popcount64
        imgs, _ = self._media_with_dups()
        ds = rd.from_pandas(imgs)
        sigs = (ds.map_batches(M.ImagePHasher(),
                               batch_format="pandas")
                .to_pandas().sort_values("media_id"))
        h = sigs["phash"].to_numpy().view(np.uint64)
        ids = sigs["media_id"].to_numpy()
        ref = set()
        for i in range(len(h)):
            d = popcount64(h ^ h[i])
            for j in np.flatnonzero((d <= 6)
                                    & (ids > ids[i])):
                ref.add((int(ids[i]), int(ids[j])))
        got = collect_pairs(M.phash_near_dups_ds(
            rd.from_pandas(imgs).repartition(3), max_hamming=6))
        assert set(map(tuple,
                       got[["media_a", "media_b"]].to_numpy())) == ref

    def test_phash_mixed_kinds_filtered(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        _, full = self._media_with_dups()
        # full table includes audio/video rows: must not crash or pair
        pairs = collect_pairs(M.phash_near_dups_ds(
            rd.from_pandas(full), max_hamming=6))
        assert (pairs[["media_a", "media_b"]].to_numpy() < 1000).all()

    def test_phash_no_pairs_dataset_is_typed(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        _, full = self._media_with_dups()
        ds = M.phash_near_dups_ds(rd.from_pandas(full),
                                  max_hamming=6).materialize()
        # Ray's to_pandas skips zero-row blocks, so an empty result
        # collects without columns; the Dataset schema stays typed
        assert len(ds.to_pandas()) == 0
        assert ds.schema().names == ["media_a", "media_b", "hamming"]
        assert [str(t) for t in ds.schema().types] == ["int64"] * 3


@pytest.mark.usefixtures("ray_session")
class TestAudioFingerprint:
    def test_audio_near_dups_planted(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        rng = np.random.RandomState(1)
        sr = 8000
        t = np.arange(sr) / sr
        rows = []
        # 8 distinct tones + a re-noised, re-gained copy of tone 0
        for i in range(8):
            freq = 150.0 * (i + 1)
            x = 0.5 * np.sin(2 * np.pi * freq * t) \
                * np.linspace(1.0, 0.2 + 0.1 * i, sr)
            rows.append((i, M.encode_wav(x, sr)))
        x0 = 0.4 * np.sin(2 * np.pi * 150.0 * t) \
            * np.linspace(1.0, 0.2, sr) \
            + 0.01 * rng.standard_normal(sr)
        rows.append((100, M.encode_wav(x0, sr)))
        df = pd.DataFrame({
            "media_id": [r[0] for r in rows],
            "kind": ["audio"] * len(rows),
            "width": 0, "height": 0, "sample_rate": sr, "fps": 0,
            "payload": [r[1] for r in rows]})
        pairs = collect_pairs(M.audio_near_dups_ds(
            rd.from_pandas(df).repartition(3), max_hamming=6))
        found = set(map(tuple,
                        pairs[["media_a", "media_b"]].to_numpy()))
        assert (0, 100) in found
        # distinct tones should not all collapse together
        assert len(found) < 10

    def test_audio_fp_equals_bruteforce(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        from osm_sidewalkreator_ray.functions.hamming import \
            popcount64
        media = M.synthetic_media(45, seed=5).to_pandas()
        auds = media[media["kind"] == "audio"].reset_index(drop=True)
        sigs = (rd.from_pandas(auds)
                .map_batches(M.AudioFingerprinter(),
                             batch_format="pandas")
                .to_pandas().sort_values("media_id"))
        h = sigs["afp"].to_numpy().view(np.uint64)
        ids = sigs["media_id"].to_numpy()
        ref = set()
        for i in range(len(h)):
            d = popcount64(h ^ h[i])
            for j in np.flatnonzero((d <= 6) & (ids > ids[i])):
                ref.add((int(ids[i]), int(ids[j])))
        got = collect_pairs(M.audio_near_dups_ds(
            rd.from_pandas(media).repartition(4), max_hamming=6))
        assert set(map(tuple, got[["media_a",
                                   "media_b"]].to_numpy())) == ref


@pytest.mark.usefixtures("ray_session")
def test_media_job_cli(tmp_path):
    import json
    import pyarrow.parquet as pq
    from jobs.media_job import main
    from osm_sidewalkreator_ray.stages import multimodal as M
    data = str(tmp_path / "media.parquet")
    pq.write_table(M.synthetic_media(60, seed=11), data)
    out = str(tmp_path / "dups")
    import io, contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["audio", "--data", data, "--out", out])
    assert rc == 0
    rep = json.loads(buf.getvalue().strip().splitlines()[-1])
    # streaming write: the pair Dataset lands as one-or-more parquet
    # files under out/ instead of a single driver-collected file
    import pyarrow.dataset as pads
    got = pads.dataset(out, format="parquet").to_table().to_pandas()
    assert rep["pairs"] == len(got)
    assert sorted(got.columns) == ["hamming", "media_a", "media_b"]

    # re-run into the SAME --out: must not double-count (the retry /
    # refresh shape) — previous files are cleared before the write
    buf2 = io.StringIO()
    with contextlib.redirect_stdout(buf2):
        rc = main(["audio", "--data", data, "--out", out])
    assert rc == 0
    rep2 = json.loads(buf2.getvalue().strip().splitlines()[-1])
    assert rep2["pairs"] == rep["pairs"]


@pytest.mark.usefixtures("ray_session")
def test_media_job_refuses_foreign_out_dir(tmp_path):
    # --out mispointed at a directory holding unrelated parquet (for
    # example the INPUT dir): the job must refuse before deleting
    # anything — foreign data survives untouched
    import pyarrow.parquet as pq
    from jobs.media_job import main
    from osm_sidewalkreator_ray.stages import multimodal as M
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    data = str(data_dir / "media.parquet")
    pq.write_table(M.synthetic_media(10, seed=5), data)
    with pytest.raises(SystemExit):
        main(["audio", "--data", data, "--out", str(data_dir)])
    import os
    assert os.path.exists(data)  # the input was NOT deleted


@pytest.mark.usefixtures("ray_session")
def test_media_job_cli_no_pairs(tmp_path):
    # a corpus with no near-dups: the all-empty pair Dataset writes
    # ZERO parquet files — the job must still exit 0 with pairs=0 and
    # leave a typed empty file for downstream readers
    import contextlib
    import io
    import json
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from jobs.media_job import main
    from osm_sidewalkreator_ray.stages import multimodal as M
    data = str(tmp_path / "media.parquet")
    pq.write_table(M.synthetic_media(6, seed=3), data)
    out = str(tmp_path / "dups")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["audio", "--data", data, "--out", out,
                   "--max-hamming", "0"])
    assert rc == 0
    rep = json.loads(buf.getvalue().strip().splitlines()[-1])
    got = pads.dataset(out, format="parquet").to_table().to_pandas()
    assert rep["pairs"] == len(got)
    assert sorted(got.columns) == ["hamming", "media_a", "media_b"]


@pytest.mark.usefixtures("ray_session")
def test_media_job_failed_refresh_keeps_prior_output(tmp_path, monkeypatch):
    # the refresh writes to a staging dir next to --out: a write that
    # fails leaves the previous run's files and marker untouched and
    # removes the staging dir
    import contextlib
    import io
    import os
    import pyarrow.parquet as pq
    import ray.data as rd
    from jobs.media_job import main
    from osm_sidewalkreator_ray.stages import multimodal as M
    data = str(tmp_path / "media.parquet")
    pq.write_table(M.synthetic_media(60, seed=11), data)
    out = tmp_path / "dups"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["audio", "--data", data, "--out", str(out)]) == 0
    before = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert "_media_job.json" in before
    assert any(f.endswith(".parquet") for f in before)

    def boom(self, path, *a, **kw):
        raise RuntimeError("injected write failure")

    monkeypatch.setattr(rd.Dataset, "write_parquet", boom)
    with pytest.raises(RuntimeError, match="injected"):
        main(["audio", "--data", data, "--out", str(out)])
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before
    assert sorted(os.listdir(tmp_path)) == ["dups", "media.parquet"]
