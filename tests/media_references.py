"""Image encoders that only tests use: they make the streams the
package's JPEG and GIF decoders are checked against. Also
``collect_pairs``, which collects a media near-dup pair Dataset into
a sorted frame.

- ``encode_jpeg``: baseline sequential JFIF (ITU-T T.81), 8-bit
  grayscale or YCbCr at 4:4:4 / 4:2:0, Annex K.1/K.2 quantisation
  tables scaled by the libjpeg quality formula, Annex K.3 typical
  Huffman tables, optional restart interval (DRI + RSTn).
- ``encode_gif``: GIF89a with one exact (<=256 distinct colors) global
  palette, so round-trips are lossless; single- or multi-frame,
  interlace, disposal and transparency options; a real LZW compressor
  (prefix dict, synchronized width growth, table-full clear).
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd

from osm_sidewalkreator_ray.stages.gif import _MAX_CODE, _interlace_rows
from osm_sidewalkreator_ray.stages.jpeg import _DCT, ZIGZAG


# ----------------------------------------------------------------- JPEG

# K.1 / K.2 base quantisation tables (natural / raster order).
QTBL_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)

QTBL_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# K.3 typical Huffman tables: (BITS[1..16], HUFFVAL).
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))

AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]

def scaled_quant_table(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg quality scaling: 1..100 -> scaled Annex K table."""
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


class _BitWriter:
    """MSB-first bit accumulator with FF 00 byte stuffing."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, value: int, n: int) -> None:
        if n == 0:
            return
        self.acc = (self.acc << n) | (value & ((1 << n) - 1))
        self.nbits += n
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def pad_to_byte(self) -> None:
        """1-fill to a byte boundary (F.1.2.3)."""
        if self.nbits:
            self.put((1 << (8 - self.nbits)) - 1, 8 - self.nbits)


def _canonical_codes(bits: list[int], vals: list[int]
                     ) -> dict[int, tuple[int, int]]:
    """symbol -> (code, size) per T.81 C.2 (codes assigned in
    increasing length order)."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


def _rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, ...]:
    r = img[:, :, 0].astype(np.float64)
    g = img[:, :, 1].astype(np.float64)
    b = img[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
    return y, cb, cr


def _pad_edge(plane: np.ndarray, ph: int, pw: int) -> np.ndarray:
    h, w = plane.shape
    return np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")


def _blocks_fdct_quant(plane: np.ndarray, qtbl: np.ndarray
                       ) -> np.ndarray:
    """Padded float plane -> (by, bx, 64) quantised zigzag coeffs;
    the DCT is one einsum over every block of the component."""
    h, w = plane.shape
    by, bx = h // 8, w // 8
    blocks = (plane - 128.0).reshape(by, 8, bx, 8).transpose(0, 2, 1, 3)
    coeff = np.einsum("ij,bcjk,lk->bcil", _DCT, blocks, _DCT)
    q = np.rint(coeff / qtbl.reshape(8, 8)).astype(np.int64)
    return q.reshape(by, bx, 64)[:, :, ZIGZAG]


def _encode_block(w: _BitWriter, zz: np.ndarray, pred: int,
                  dc: dict[int, tuple[int, int]],
                  ac: dict[int, tuple[int, int]]) -> int:
    """Entropy-code one zigzag block (F.1.2); returns the new DC pred."""
    dc_val = int(zz[0])
    diff = dc_val - pred
    ssss = abs(diff).bit_length()
    code, size = dc[ssss]
    w.put(code, size)
    if ssss:
        w.put(diff if diff >= 0 else diff + (1 << ssss) - 1, ssss)
    nz = np.nonzero(zz[1:])[0]
    prev = 0
    for pos in nz:
        run = int(pos) - prev
        prev = int(pos) + 1
        while run > 15:
            c, s = ac[0xF0]  # ZRL
            w.put(c, s)
            run -= 16
        v = int(zz[1 + pos])
        ssss = abs(v).bit_length()
        c, s = ac[(run << 4) | ssss]
        w.put(c, s)
        w.put(v if v >= 0 else v + (1 << ssss) - 1, ssss)
    if prev != 63:
        c, s = ac[0x00]  # EOB
        w.put(c, s)
    return dc_val


def _seg(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def encode_jpeg(img: np.ndarray, quality: int = 75,
                subsample: str = "420",
                restart_interval: int = 0) -> bytes:
    """uint8 (h, w) grayscale or (h, w, 3) RGB -> baseline JFIF bytes.

    ``subsample`` is '444' or '420' (ignored for grayscale);
    ``restart_interval`` > 0 emits a DRI segment and RSTn markers
    every that many MCUs (the resumable-scan feature real encoders
    use for corruption resilience)."""
    if img.dtype != np.uint8:
        raise ValueError("expected uint8 image")
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    qt_l = scaled_quant_table(QTBL_LUMA, quality)
    qt_c = scaled_quant_table(QTBL_CHROMA, quality)

    if gray:
        comps = [(1, (1, 1), 0, img.astype(np.float64))]
        hmax = vmax = 1
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsample == "444":
            comps = [(1, (1, 1), 0, y), (2, (1, 1), 1, cb),
                     (3, (1, 1), 1, cr)]
            hmax = vmax = 1
        elif subsample == "420":
            # chroma = mean of each 2x2 (plane edge-padded to even)
            eh, ew = h + (h & 1), w + (w & 1)
            cbp = _pad_edge(cb, eh, ew)
            crp = _pad_edge(cr, eh, ew)
            cb2 = cbp.reshape(eh // 2, 2, ew // 2, 2).mean(axis=(1, 3))
            cr2 = crp.reshape(eh // 2, 2, ew // 2, 2).mean(axis=(1, 3))
            comps = [(1, (2, 2), 0, y), (2, (1, 1), 1, cb2),
                     (3, (1, 1), 1, cr2)]
            hmax = vmax = 2
        else:
            raise ValueError("subsample must be '444' or '420'")

    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    planes = []  # (comp_id, hi, vi, tq, zigzag coeff array)
    for cid, (hi, vi), tq, plane in comps:
        padded = _pad_edge(plane, mcuy * vi * 8, mcux * hi * 8)
        planes.append((cid, hi, vi, tq,
                       _blocks_fdct_quant(padded,
                                          qt_l if tq == 0 else qt_c)))

    dc_l = _canonical_codes(DC_LUMA_BITS, DC_LUMA_VALS)
    ac_l = _canonical_codes(AC_LUMA_BITS, AC_LUMA_VALS)
    dc_c = _canonical_codes(DC_CHROMA_BITS, DC_CHROMA_VALS)
    ac_c = _canonical_codes(AC_CHROMA_BITS, AC_CHROMA_VALS)

    bw = _BitWriter()
    preds = {cid: 0 for cid, *_ in planes}
    n_mcu = mcux * mcuy
    rst = 0
    for m in range(n_mcu):
        if restart_interval and m and m % restart_interval == 0:
            bw.pad_to_byte()
            bw.buf += bytes([0xFF, 0xD0 + (rst & 7)])
            rst += 1
            preds = {cid: 0 for cid, *_ in planes}
        my, mx = divmod(m, mcux)
        for cid, hi, vi, tq, zz in planes:
            dct, act = (dc_l, ac_l) if tq == 0 else (dc_c, ac_c)
            for v in range(vi):
                for hh in range(hi):
                    preds[cid] = _encode_block(
                        bw, zz[my * vi + v, mx * hi + hh],
                        preds[cid], dct, act)
    bw.pad_to_byte()

    out = bytearray(b"\xff\xd8")  # SOI
    out += _seg(0xE0, b"JFIF\x00" + struct.pack(">BBBHHBB",
                                                1, 1, 0, 1, 1, 0, 0))
    out += _seg(0xDB, bytes([0x00]) + bytes(qt_l[ZIGZAG].astype(np.uint8)))
    if not gray:
        out += _seg(0xDB, bytes([0x01])
                    + bytes(qt_c[ZIGZAG].astype(np.uint8)))
    sof = struct.pack(">BHHB", 8, h, w, len(planes))
    for cid, hi, vi, tq, _zz in planes:
        sof += struct.pack(">BBB", cid, (hi << 4) | vi, tq)
    out += _seg(0xC0, sof)
    for tc_th, bits, vals in (
            ((0 << 4) | 0, DC_LUMA_BITS, DC_LUMA_VALS),
            ((1 << 4) | 0, AC_LUMA_BITS, AC_LUMA_VALS),
            ((0 << 4) | 1, DC_CHROMA_BITS, DC_CHROMA_VALS),
            ((1 << 4) | 1, AC_CHROMA_BITS, AC_CHROMA_VALS)):
        if gray and (tc_th & 0x0F):
            continue
        out += _seg(0xC4, bytes([tc_th]) + bytes(bits) + bytes(vals))
    if restart_interval:
        out += _seg(0xDD, struct.pack(">H", restart_interval))
    sos = bytes([len(planes)])
    for cid, _hi, _vi, tq, _zz in planes:
        sos += struct.pack(">BB", cid, (tq << 4) | tq)
    sos += bytes([0, 63, 0])
    out += _seg(0xDA, sos)
    out += bw.buf
    out += b"\xff\xd9"  # EOI
    return bytes(out)

# ------------------------------------------------------------------ GIF

class _LsbBitWriter:
    """LSB-first bit packer (GIF's bit order — opposite of JPEG)."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, value: int, width: int) -> None:
        self.acc |= (value & ((1 << width) - 1)) << self.nbits
        self.nbits += width
        while self.nbits >= 8:
            self.buf.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def flush(self) -> bytes:
        if self.nbits:
            self.buf.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.buf)


def lzw_compress(indices: np.ndarray, min_code_size: int) -> bytes:
    """Pixel indices -> GIF LZW stream (without sub-block framing)."""
    clear = 1 << min_code_size
    eoi = clear + 1
    bw = _LsbBitWriter()
    width = min_code_size + 1
    bw.put(clear, width)
    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = eoi + 1
    w = b""
    for k in indices.astype(np.uint8).tobytes():
        kb = bytes([k])
        wk = w + kb
        if wk in table:
            w = wk
            continue
        bw.put(table[w], width)
        if next_code < _MAX_CODE:
            table[wk] = next_code
            next_code += 1
            # grow once the just-added code needs one more bit: the
            # NEXT emitted code may reference it (decoder mirrors by
            # growing when its table length reaches 1 << width)
            if next_code == (1 << width) + 1 and width < 12:
                width += 1
        else:
            bw.put(clear, width)
            table = {bytes([i]): i for i in range(clear)}
            next_code = eoi + 1
            width = min_code_size + 1
        w = kb
    if w:
        bw.put(table[w], width)
    bw.put(eoi, width)
    return bw.flush()


def _sub_blocks(data: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(data), 255):
        chunk = data[i:i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    return bytes(out)


def encode_gif(frames: np.ndarray | list[np.ndarray],
               delay_cs: int = 10, interlace: bool = False,
               disposal: int = 1,
               transparent_color: tuple | None = None) -> bytes:
    """uint8 (h, w, 3) RGB frame or list of same-size frames ->
    GIF89a bytes with one exact global palette over all frames
    (raises if the frames hold more than 256 distinct colors — this
    encoder never quantises, so decode round-trips losslessly).
    ``transparent_color`` marks one RGB as transparent in every
    frame's Graphic Control Extension."""
    if isinstance(frames, np.ndarray):
        frames = [frames]
    if not frames:
        raise ValueError("no frames")
    h, w = frames[0].shape[:2]
    for f in frames:
        if f.dtype != np.uint8 or f.shape != (h, w, 3):
            raise ValueError("frames must be uint8 (h, w, 3), same size")
    stacked = np.concatenate([f.reshape(-1, 3) for f in frames])
    palette, inverse = np.unique(stacked, axis=0, return_inverse=True)
    if len(palette) > 256:
        raise ValueError(f"{len(palette)} distinct colors > 256; "
                         "quantise first")
    trans_idx = None
    if transparent_color is not None:
        tc = np.asarray(transparent_color, dtype=np.uint8)
        hits = np.nonzero((palette == tc).all(axis=1))[0]
        if len(hits) == 0:
            raise ValueError("transparent_color not present in frames")
        trans_idx = int(hits[0])
    # palette size: power of two >= max(2, len) (GIF requires 2^(n+1))
    n = max(1, int(len(palette) - 1).bit_length())
    size = 1 << n
    pal_bytes = palette.tobytes() + b"\x00" * (3 * (size - len(palette)))
    min_code = max(2, n)

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((n - 1) << 4) | (n - 1),
                       0, 0)
    out += pal_bytes
    if len(frames) > 1:
        # Netscape looping extension (loop forever)
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    per_frame = inverse.reshape(len(frames), h * w)
    for fi in range(len(frames)):
        packed = (disposal & 7) << 2
        if trans_idx is not None:
            packed |= 1
        out += struct.pack("<BBBBHBB", 0x21, 0xF9, 4, packed, delay_cs,
                           trans_idx or 0, 0)
        idx = per_frame[fi].reshape(h, w)
        if interlace:
            order = _interlace_rows(h)
            idx = idx[order]
        out += struct.pack("<BHHHHB", 0x2C, 0, 0, w, h,
                           0x40 if interlace else 0)
        out.append(min_code)
        out += _sub_blocks(lzw_compress(idx.ravel(), min_code))
    out.append(0x3B)
    return bytes(out)


# ---------------------------------------------------------- near-dups

def collect_pairs(pairs_ds) -> pd.DataFrame:
    """A ``*_near_dups_ds`` pair Dataset as a sorted frame. A Dataset
    with no pairs collects to a frame without columns, so the empty
    case gets the typed (media_a, media_b, hamming) columns here."""
    df = pairs_ds.to_pandas()
    if df.empty:
        return pd.DataFrame({"media_a": pd.Series([], dtype="int64"),
                             "media_b": pd.Series([], dtype="int64"),
                             "hamming": pd.Series([], dtype="int64")})
    return df.sort_values(["media_a", "media_b"]) \
        .reset_index(drop=True)
