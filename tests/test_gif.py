"""GIF decoder (stages/gif.py), checked against the test-side encoder
(media_references.py), + its multimodal wiring.

GIF is palette-based and this encoder never quantises, so all
round-trip assertions are EXACT (unlike the lossy JPEG tests). No Ray.
"""

import numpy as np
import pandas as pd
import pytest

from osm_sidewalkreator_ray.stages.gif import (decode_gif,
                                               decode_gif_frames,
                                               lzw_decompress)
from osm_sidewalkreator_ray.stages.multimodal import (ImageDecoder,
                                                      ImageResizer,
                                                      VideoFrameSampler,
                                                      _decode_bmp,
                                                      encode_bmp)
from media_references import _LsbBitWriter, encode_gif, lzw_compress


def _img(h, w, colors=6, seed=0):
    rng = np.random.RandomState(seed)
    return (rng.randint(0, colors, (h, w, 3)) * (255 // colors)) \
        .astype(np.uint8)


class TestLzw:
    @pytest.mark.parametrize("mcs", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("n", [0, 1, 5, 100, 5000, 60000])
    def test_roundtrip(self, mcs, n):
        rng = np.random.RandomState(mcs * 1000 + n)
        idx = rng.randint(0, 1 << min(mcs, 8), n).astype(np.uint8)
        got = np.frombuffer(lzw_decompress(lzw_compress(idx, mcs), mcs),
                            np.uint8)
        assert np.array_equal(got, idx)

    def test_repetitive_grows_table_through_width_bumps(self):
        # long runs force many table entries -> several width changes
        # and at least one table-full clear at 8-bit roots
        idx = np.tile(np.arange(16, dtype=np.uint8), 8000)
        got = np.frombuffer(lzw_decompress(lzw_compress(idx, 8), 8),
                            np.uint8)
        assert np.array_equal(got, idx)

    def test_handmade_uncompressed_stream(self):
        # decoder correctness independent of our own encoder: literal
        # codes at width 3 (mcs=2), clear every 2 codes so the table
        # never grows
        bw = _LsbBitWriter()
        seq = [1, 2, 3, 0, 1, 2, 3, 3]
        bw.put(4, 3)  # clear
        for i, s in enumerate(seq, 1):
            bw.put(s, 3)
            if i % 2 == 0:
                bw.put(4, 3)
        bw.put(5, 3)  # EOI
        assert list(lzw_decompress(bw.flush(), 2)) == seq

    def test_cscsc_case(self):
        # aaa...: the code == len(table) special case fires immediately
        idx = np.zeros(50, dtype=np.uint8)
        got = np.frombuffer(lzw_decompress(lzw_compress(idx, 2), 2),
                            np.uint8)
        assert np.array_equal(got, idx)


class TestGifRoundtrip:
    @pytest.mark.parametrize("shape", [(37, 53), (1, 1), (8, 8),
                                       (100, 3)])
    def test_lossless(self, shape):
        img = _img(*shape)
        assert np.array_equal(decode_gif(encode_gif(img)), img)

    def test_interlaced(self):
        img = _img(37, 53, seed=1)
        data = encode_gif(img, interlace=True)
        assert np.array_equal(decode_gif(data), img)
        # interlace really changes the stream
        assert data != encode_gif(img)

    def test_full_256_color_palette(self):
        g = np.repeat(np.arange(256, dtype=np.uint8)
                      .reshape(16, 16)[..., None], 3, axis=2)
        assert np.array_equal(decode_gif(encode_gif(g)), g)

    def test_too_many_colors_raises(self):
        img = np.random.RandomState(2).randint(
            0, 256, (64, 64, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="256"):
            encode_gif(img)

    def test_not_gif_raises(self):
        with pytest.raises(ValueError):
            decode_gif(b"BMnot-a-gif")


class TestAnimation:
    def test_frames_and_delays(self):
        f0 = np.zeros((16, 16, 3), np.uint8)
        f1 = f0.copy()
        f1[4:8, 4:8] = 200
        f2 = f1.copy()
        f2[10:12, 10:12] = 100
        frames, delays = decode_gif_frames(
            encode_gif([f0, f1, f2], delay_cs=5))
        assert delays == [5, 5, 5]
        for got, want in zip(frames, [f0, f1, f2]):
            assert np.array_equal(got, want)

    def test_transparency_composites_over_previous(self):
        t0 = np.full((8, 8, 3), 50, np.uint8)
        t1 = np.full((8, 8, 3), 99, np.uint8)
        t1[0:4] = 50  # transparent -> first frame shows through
        frames, _ = decode_gif_frames(
            encode_gif([t0, t1], transparent_color=(50, 50, 50)))
        exp = t0.copy()
        exp[4:8] = 99
        assert np.array_equal(frames[1], exp)

    def test_disposal_restore_background(self):
        # disposal=2: each frame is drawn on the restored background,
        # so frame 2's canvas must NOT contain frame 1's box
        base = np.full((12, 12, 3), 30, np.uint8)
        f1 = base.copy()
        f1[2:4, 2:4] = 200
        f2 = base.copy()
        f2[8:10, 8:10] = 90
        frames, _ = decode_gif_frames(encode_gif([f1, f2], disposal=2))
        assert np.array_equal(frames[0], f1)
        assert np.array_equal(frames[1], f2)


class TestMultimodalWiring:
    def test_image_decoder_gif_matches_bmp(self):
        img = _img(32, 48, seed=3)
        batch = pd.DataFrame({
            "media_id": [0, 1], "width": [48, 48], "height": [32, 32],
            "payload": [encode_bmp(img), encode_gif(img)],
        })
        out = ImageDecoder()(batch)
        # GIF round-trip is lossless: identical luma features
        assert out["mean_luma"][0] == out["mean_luma"][1]
        assert out["thumb"][0] == out["thumb"][1]

    def test_image_resizer_handles_gif(self):
        img = _img(40, 40, seed=4)
        batch = pd.DataFrame({
            "media_id": [0], "width": [40], "height": [40],
            "payload": [encode_gif(img)],
        })
        out = ImageResizer(out_h=16, out_w=16)(batch)
        assert _decode_bmp(out["payload"][0]).shape == (16, 16, 3)

    def test_video_sampler_handles_animated_gif(self):
        frames = []
        for i in range(6):
            f = np.zeros((16, 16, 3), np.uint8)
            f[:, : (i + 1) * 2] = 240  # wipe: real motion
            frames.append(f)
        batch = pd.DataFrame({
            "media_id": [0], "width": [16], "height": [16],
            "payload": [encode_gif(frames, delay_cs=10)],
        })
        out = VideoFrameSampler(n_sample=4)(batch)
        assert len(out["frame_luma"][0]) == 4
        assert out["motion_score"][0] > 0
        assert out["duration_s"][0] == pytest.approx(0.6)
