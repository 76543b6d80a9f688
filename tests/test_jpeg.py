"""Baseline JPEG decoder (stages/jpeg.py), checked against the test-side
encoder (media_references.py), + its multimodal wiring.

The codec is lossy, so round-trip assertions are PSNR bounds on
JPEG-friendly (smooth) content rather than byte equality; the
structural invariants (restart markers change the stream but not the
decoded pixels, grayscale replicates to 3 channels, dimensions
survive any subsampling) are exact.
"""

import numpy as np
import pandas as pd
import pytest

from osm_sidewalkreator_ray.stages.jpeg import decode_jpeg
from osm_sidewalkreator_ray.stages.multimodal import (
    ImageDecoder, ImagePHasher, ImageResizer, encode_bmp, _decode_bmp)
from media_references import QTBL_LUMA, encode_jpeg, scaled_quant_table


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean()
    return float("inf") if mse == 0 else 10 * np.log10(255.0 ** 2 / mse)


def _smooth_rgb(h: int, w: int, seed: int = 0) -> np.ndarray:
    rng = np.random.RandomState(seed)
    gx = np.linspace(0, 255, w)
    gy = np.linspace(0, 255, h)
    base = (gy[:, None] + gx[None, :]) / 2
    img = np.stack([base, 255 - base, np.full((h, w), 90.0)], axis=2)
    return np.clip(img + rng.randint(-8, 8, img.shape), 0, 255) \
        .astype(np.uint8)


@pytest.mark.parametrize("subsample", ["444", "420"])
@pytest.mark.parametrize("quality", [95, 75, 40])
def test_roundtrip_psnr(subsample, quality):
    img = _smooth_rgb(37, 53)
    dec = decode_jpeg(encode_jpeg(img, quality=quality,
                                  subsample=subsample))
    assert dec.shape == img.shape
    assert _psnr(img, dec) > 30.0


def test_quality_monotone():
    """Higher quality -> closer reconstruction and a bigger stream."""
    img = _smooth_rgb(40, 40, seed=3)
    lo = encode_jpeg(img, quality=20)
    hi = encode_jpeg(img, quality=95)
    assert len(hi) > len(lo)
    assert _psnr(img, decode_jpeg(hi)) > _psnr(img, decode_jpeg(lo))


def test_grayscale_roundtrip():
    g = _smooth_rgb(33, 29)[:, :, 0]
    dec = decode_jpeg(encode_jpeg(g, quality=90))
    assert dec.shape == (33, 29, 3)
    # grayscale replicates to 3 identical channels
    np.testing.assert_array_equal(dec[:, :, 0], dec[:, :, 1])
    assert _psnr(np.repeat(g[:, :, None], 3, axis=2), dec) > 32.0


def test_restart_markers_lossless_vs_plain():
    """DRI/RSTn segmentation changes the byte stream, not the pixels."""
    img = _smooth_rgb(37, 53, seed=5)
    plain = encode_jpeg(img, quality=75, subsample="420")
    rst = encode_jpeg(img, quality=75, subsample="420",
                      restart_interval=2)
    assert rst != plain
    assert b"\xff\xdd" in rst  # DRI segment present
    np.testing.assert_array_equal(decode_jpeg(rst), decode_jpeg(plain))


@pytest.mark.parametrize("shape", [(1, 1), (8, 8), (9, 17), (16, 15)])
def test_edge_dimensions(shape):
    """Non-multiple-of-MCU sizes survive padding on both paths."""
    img = _smooth_rgb(*shape, seed=9)
    for sub in ("444", "420"):
        dec = decode_jpeg(encode_jpeg(img, quality=90, subsample=sub))
        assert dec.shape == (*shape, 3)


def test_quant_table_scaling():
    assert np.array_equal(scaled_quant_table(QTBL_LUMA, 50), QTBL_LUMA)
    assert (scaled_quant_table(QTBL_LUMA, 95)
            <= scaled_quant_table(QTBL_LUMA, 10)).all()
    assert scaled_quant_table(QTBL_LUMA, 100).min() >= 1


def test_progressive_frame_without_scan_raises():
    """SOF2 now DECODES (tests/test_jpeg_progressive.py); a frame
    header with no scan data is a corrupt stream, not a plug point."""
    import struct
    sof2 = struct.pack(">BBH", 0xFF, 0xC2, 2 + 9) \
        + struct.pack(">BHHB", 8, 8, 8, 1) + bytes([1, 0x11, 0])
    with pytest.raises(ValueError, match="no scan data"):
        decode_jpeg(b"\xff\xd8" + sof2)


def test_arithmetic_sof_raises():
    """Arithmetic-coded frames remain the honest plug point."""
    import struct
    sof9 = struct.pack(">BBH", 0xFF, 0xC9, 2 + 9) \
        + struct.pack(">BHHB", 8, 8, 8, 1) + bytes([1, 0x11, 0])
    with pytest.raises(NotImplementedError, match="0xC9"):
        decode_jpeg(b"\xff\xd8" + sof9)


def test_not_jpeg_raises():
    with pytest.raises(ValueError):
        decode_jpeg(b"BMnot-a-jpeg")


def test_image_decoder_handles_jpeg_payload():
    """The multimodal stage sniffs FFD8FF and decodes for real: the
    luma features of a JPEG payload match the BMP features of the
    same image to JPEG tolerance."""
    img = _smooth_rgb(32, 48, seed=11)
    batch = pd.DataFrame({
        "media_id": [0, 1],
        "width": [48, 48], "height": [32, 32],
        "payload": [encode_bmp(img), encode_jpeg(img, quality=95)],
    })
    out = ImageDecoder()(batch)
    assert len(out) == 2
    assert abs(out["mean_luma"][0] - out["mean_luma"][1]) < 2.0
    thumb_bmp = np.array(out["thumb"][0])
    thumb_jpg = np.array(out["thumb"][1])
    assert np.abs(thumb_bmp - thumb_jpg).mean() < 4.0


def test_image_resizer_handles_jpeg_payload():
    img = _smooth_rgb(40, 40, seed=13)
    batch = pd.DataFrame({
        "media_id": [0], "width": [40], "height": [40],
        "payload": [encode_jpeg(img, quality=95)],
    })
    out = ImageResizer(out_h=16, out_w=16)(batch)
    resized = _decode_bmp(out["payload"][0])
    assert resized.shape == (16, 16, 3)


def test_phash_stable_across_bmp_jpeg():
    """dHash of the JPEG re-encode lands within a few bits of the BMP
    original — the perceptual-dedup contract for lossy copies."""
    img = _smooth_rgb(32, 32, seed=17)
    batch = pd.DataFrame({
        "media_id": [0, 1], "width": [32, 32], "height": [32, 32],
        "payload": [encode_bmp(img), encode_jpeg(img, quality=90)],
    })
    out = ImagePHasher()(batch)
    a, b = np.uint64(out["phash"][0]), np.uint64(out["phash"][1])
    assert bin(int(a) ^ int(b)).count("1") <= 6
