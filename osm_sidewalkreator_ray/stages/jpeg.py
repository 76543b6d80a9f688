"""Baseline JPEG (ITU-T T.81, 1992) codec on numpy + stdlib only.

Closes the JPEG plug point in ``stages/multimodal.py`` (the container
ships no PIL/libjpeg): ``encode_jpeg`` / ``decode_jpeg`` implement
baseline sequential DCT JPEG — the format of essentially every ``.jpg``
on the web — end to end:

- 8-bit grayscale and YCbCr color, 4:4:4 and 4:2:0 chroma subsampling
  (encode); the decoder handles ANY sampling-factor combination up to
  4x4 via the general T.81 MCU geometry (A.2.3), so 4:2:2 streams from
  other encoders decode too.
- Annex K.1/K.2 quantisation tables scaled by the libjpeg quality
  formula; Annex K.3 typical Huffman tables (the tables virtually all
  baseline encoders emit).
- Canonical Huffman decode per T.81 F.2.2.3 (mincode/maxcode/valptr),
  byte-stuffing (FF 00) and restart-marker (DRI/RSTn) handling on both
  sides.
- The 2-D DCT as one einsum over all blocks of a component against the
  orthonormal DCT-II matrix (exactly the T.81 A.3.3 definition — the
  1/4·C(u)C(v) scaling IS the orthonormal normalisation), so there is
  no per-block Python work outside entropy coding.

Progressive JPEG (SOF2) DECODES too: spectral selection, successive
approximation (DC/AC first + refinement passes with EOB-run coding per
T.81 G.1.2 / Annex G), interleaved DC scans and the non-interleaved
per-component scan geometry, restart markers inside progressive scans.
The matching scan-script encoder (with T.81 K.2 optimal Huffman
tables) is test-only and lives in ``tests/test_jpeg_progressive.py``,
which checks this decode path against baseline decode bit-exactly
without any codec library.
Arithmetic-coded, hierarchical, lossless and 12-bit streams raise
``NotImplementedError`` with the marker named — the same honest
plug-point contract as the other codecs.

Everything here is public knowledge: the T.81 spec text plus the
libjpeg quality-scaling convention. No code is taken from the
reference repo (it contains no codecs).
"""

from __future__ import annotations

import struct

import numpy as np

# ------------------------------------------------------- Annex K tables

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

# Zigzag scan: ZIGZAG[k] = raster index of the k-th zigzag position
# (T.81 Figure 5).
ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int64)


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8-point DCT-II matrix; D @ B @ D.T is exactly the
    T.81 A.3.3 FDCT (the 1/4·C(u)C(v) factors equal the orthonormal
    row norms), D.T @ S @ D the IDCT."""
    k = np.arange(8)[:, None]
    n = np.arange(8)[None, :]
    d = np.cos((2 * n + 1) * k * np.pi / 16) / 2.0
    d[0] /= np.sqrt(2.0)
    return d


_DCT = _dct_matrix()


def scaled_quant_table(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg quality scaling: 1..100 -> scaled Annex K table."""
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


# ----------------------------------------------------------- bit I/O

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


class _BitReader:
    """MSB-first reader over entropy-coded data: un-stuffs FF 00,
    stops at any real marker, surfaces RSTn at byte boundaries."""

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0
        self.marker: int | None = None  # marker that ended the scan

    def _fill(self) -> None:
        if self.marker is not None:
            raise ValueError("read past end of entropy-coded segment")
        b = self.data[self.pos]
        if b == 0xFF:
            nxt = self.data[self.pos + 1]
            if nxt == 0x00:
                self.pos += 2
            else:
                self.marker = nxt
                raise ValueError(
                    f"marker 0x{nxt:02X} inside entropy data")
        else:
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.nbits += 8

    def bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def receive(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def sync_restart(self, expect: int) -> None:
        """Byte-align and consume the RSTn marker (F.2.1.3.1)."""
        self.acc = 0
        self.nbits = 0
        if self.data[self.pos] != 0xFF:
            raise ValueError("expected restart marker")
        m = self.data[self.pos + 1]
        if m != 0xD0 + (expect & 7):
            raise ValueError(f"bad restart marker 0x{m:02X}")
        self.pos += 2


# ------------------------------------------------------ Huffman tables

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


class _HuffDecoder:
    """T.81 F.2.2.3 mincode/maxcode/valptr canonical decoder."""

    def __init__(self, bits: list[int], vals: list[int]) -> None:
        self.vals = vals
        self.mincode = [0] * 17
        self.maxcode = [-1] * 17
        self.valptr = [0] * 17
        code = 0
        k = 0
        for ln in range(1, 17):
            if bits[ln - 1]:
                self.valptr[ln] = k
                self.mincode[ln] = code
                code += bits[ln - 1]
                k += bits[ln - 1]
                self.maxcode[ln] = code - 1
            code <<= 1

    def decode(self, r: _BitReader) -> int:
        code = r.bit()
        ln = 1
        while code > self.maxcode[ln]:
            code = (code << 1) | r.bit()
            ln += 1
            if ln > 16:
                raise ValueError("corrupt Huffman code")
        return self.vals[self.valptr[ln] + code - self.mincode[ln]]


def _extend(v: int, n: int) -> int:
    """F.2.2.1 EXTEND: map the n received bits to a signed value."""
    if n and v < (1 << (n - 1)):
        return v - (1 << n) + 1
    return v


# ------------------------------------------------------- color + blocks

def _rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, ...]:
    r = img[:, :, 0].astype(np.float64)
    g = img[:, :, 1].astype(np.float64)
    b = img[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
    return y, cb, cr


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray
                  ) -> np.ndarray:
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.rint(np.stack([r, g, b], axis=2)), 0,
                   255).astype(np.uint8)


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


def _idct_assemble(zz: np.ndarray, qtbl: np.ndarray) -> np.ndarray:
    """(by, bx, 64) zigzag coeffs -> float plane (by*8, bx*8)."""
    by, bx = zz.shape[:2]
    nat = np.zeros((by, bx, 64), dtype=np.float64)
    nat[:, :, ZIGZAG] = zz
    nat *= qtbl.reshape(1, 1, 64)
    blocks = nat.reshape(by, bx, 8, 8)
    pix = np.einsum("ji,bcjk,kl->bcil", _DCT, blocks, _DCT) + 128.0
    return pix.transpose(0, 2, 1, 3).reshape(by * 8, bx * 8)


# ------------------------------------------------------------- encoder

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


# ------------------------------------------------------------- decoder

def _next_marker(data: bytes, pos: int) -> int:
    """Position of the first real marker (FF xx, xx not 00) at or
    after ``pos`` — how a completed scan hands control back to the
    segment loop (any bytes in between are entropy pad bits)."""
    n = len(data)
    while pos + 1 < n:
        if data[pos] == 0xFF and data[pos + 1] != 0x00:
            return pos
        pos += 1
    return n


def _comp_geometry(frame):
    """(hmax, vmax, mcux, mcuy, {cid: (blocks_wide, blocks_high)}).

    The per-component block dims are the NON-INTERLEAVED scan extents
    (T.81 A.2.2: ceil of the scaled image dims, NOT the MCU-padded
    grid — pad blocks exist only in interleaved scans)."""
    h, w, cs = frame
    hmax = max(c[1] for c in cs)
    vmax = max(c[2] for c in cs)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    dims = {}
    for cid, hi, vi, _tq in cs:
        cw = -(-w * hi // hmax)
        ch = -(-h * vi // vmax)
        dims[cid] = (-(-cw // 8), -(-ch // 8))
    return hmax, vmax, mcux, mcuy, dims


def _decode_seq_scan(rdr: _BitReader, coeffs, frame, scan_comps, huff,
                     restart_interval: int) -> None:
    """One baseline (sequential DCT) scan: full 64-coefficient blocks,
    interleaved across the scan's components (T.81 F.2.2)."""
    h, w, cs = frame
    hmax, vmax, mcux, mcuy, dims = _comp_geometry(frame)
    by_id = {c[0]: c for c in cs}
    in_scan = [by_id[scid] for scid, _t in scan_comps]
    tables = dict(scan_comps)
    preds = {cid: 0 for cid, *_ in in_scan}
    if len(in_scan) == 1:
        cid, hi, vi, _tq = in_scan[0]
        bw_, bh_ = dims[cid]
        units = [(cid, by, bx) for by in range(bh_)
                 for bx in range(bw_)]
    else:
        units = []
        for m in range(mcux * mcuy):
            my, mx = divmod(m, mcux)
            group = []
            for cid, hi, vi, _tq in in_scan:
                for v in range(vi):
                    for hh in range(hi):
                        group.append((cid, my * vi + v, mx * hi + hh))
            units.append(group)
        # flatten but remember MCU boundaries for restarts
    rst = 0
    n_units = len(units)
    for m in range(n_units):
        if restart_interval and m and m % restart_interval == 0:
            rdr.sync_restart(rst)
            rst += 1
            preds = {cid: 0 for cid, *_ in in_scan}
        entry = units[m]
        blocks = [entry] if isinstance(entry, tuple) else entry
        for cid, by, bx in blocks:
            td, ta = tables[cid]
            dcd = huff[(0, td)]
            acd = huff[(1, ta)]
            blk = coeffs[cid][by, bx]
            t = dcd.decode(rdr)
            diff = _extend(rdr.receive(t), t)
            preds[cid] += diff
            blk[0] = preds[cid]
            k = 1
            while k < 64:
                rs = acd.decode(rdr)
                r, s = rs >> 4, rs & 0x0F
                if s == 0:
                    if r == 15:  # ZRL
                        k += 16
                        continue
                    break  # EOB
                k += r
                blk[k] = _extend(rdr.receive(s), s)
                k += 1


def _refine_coef(rdr: _BitReader, blk: np.ndarray, k: int, p1: int,
                 m1: int) -> None:
    """One AC-refinement correction bit for an already-nonzero
    coefficient (G.1.2.3: a 1-bit means |coef| grows by 2^Al)."""
    if rdr.bit() and not (int(blk[k]) & p1):
        blk[k] += p1 if blk[k] >= 0 else m1


def _decode_prog_scan(rdr: _BitReader, coeffs, frame, scan_comps,
                      huff, ss: int, se: int, ah: int, al: int,
                      restart_interval: int) -> None:
    """One progressive scan (T.81 Annex G): DC or AC band, first pass
    (Ah=0) or successive-approximation refinement (Ah>0), with EOB-run
    coding in the AC passes."""
    h, w, cs = frame
    hmax, vmax, mcux, mcuy, dims = _comp_geometry(frame)
    by_id = {c[0]: c for c in cs}
    in_scan = [by_id[scid] for scid, _t in scan_comps]
    tables = dict(scan_comps)
    dc_scan = ss == 0
    if dc_scan and se != 0:
        raise ValueError("progressive DC scan must have Se=0")
    if not dc_scan and len(in_scan) != 1:
        raise ValueError("progressive AC scan must be single-component")

    # unit list: interleaved MCUs for multi-component DC scans,
    # component-raster blocks otherwise (restart counts these units)
    if len(in_scan) > 1:
        units = []
        for m in range(mcux * mcuy):
            my, mx = divmod(m, mcux)
            group = []
            for cid, hi, vi, _tq in in_scan:
                for v in range(vi):
                    for hh in range(hi):
                        group.append((cid, my * vi + v, mx * hi + hh))
            units.append(group)
    else:
        cid, hi, vi, _tq = in_scan[0]
        bw_, bh_ = dims[cid]
        units = [[(cid, by, bx)] for by in range(bh_)
                 for bx in range(bw_)]

    preds = {cid: 0 for cid, *_ in in_scan}
    eobrun = 0
    p1, m1 = 1 << al, -(1 << al)
    rst = 0
    for m, group in enumerate(units):
        if restart_interval and m and m % restart_interval == 0:
            rdr.sync_restart(rst)
            rst += 1
            preds = {cid: 0 for cid, *_ in in_scan}
            eobrun = 0
        for cid, by, bx in group:
            blk = coeffs[cid][by, bx]
            if dc_scan:
                if ah == 0:  # DC first pass (G.1.2.1)
                    dcd = huff[(0, tables[cid][0])]
                    t = dcd.decode(rdr)
                    diff = _extend(rdr.receive(t), t)
                    preds[cid] += diff
                    blk[0] = preds[cid] << al
                else:  # DC refinement: one raw bit per block
                    if rdr.bit():
                        blk[0] |= p1
                continue
            acd = huff[(1, tables[cid][1])]
            if ah == 0:  # AC first pass (G.1.2.2)
                if eobrun:
                    eobrun -= 1
                    continue
                k = ss
                while k <= se:
                    rs = acd.decode(rdr)
                    r, s = rs >> 4, rs & 0x0F
                    if s == 0:
                        if r < 15:  # EOBn: run of (1<<r)+ext blocks
                            eobrun = (1 << r) - 1
                            if r:
                                eobrun += rdr.receive(r)
                            break
                        k += 16  # ZRL
                    else:
                        k += r
                        blk[k] = _extend(rdr.receive(s), s) << al
                        k += 1
            else:  # AC refinement (G.1.2.3)
                k = ss
                if eobrun == 0:
                    while k <= se:
                        rs = acd.decode(rdr)
                        r, s = rs >> 4, rs & 0x0F
                        val = 0
                        if s == 0:
                            if r < 15:
                                eobrun = 1 << r
                                if r:
                                    eobrun += rdr.receive(r)
                                break  # sweep rest of band below
                            # r == 15: skip 16 zero-history coeffs
                        else:
                            if s != 1:
                                raise ValueError(
                                    "corrupt AC refinement scan")
                            val = p1 if rdr.bit() else m1
                        # advance over r zero-history coefficients,
                        # emitting correction bits at nonzero ones
                        while k <= se:
                            if blk[k]:
                                _refine_coef(rdr, blk, k, p1, m1)
                                k += 1
                            else:
                                if r == 0:
                                    break
                                r -= 1
                                k += 1
                        if k <= se:
                            if val:
                                blk[k] = val
                            k += 1
                if eobrun:
                    # EOB entered in this block: correction bits for
                    # the remaining nonzero-history band positions
                    while k <= se:
                        if blk[k]:
                            _refine_coef(rdr, blk, k, p1, m1)
                        k += 1
                    eobrun -= 1


def decode_jpeg(payload: bytes) -> np.ndarray:
    """JFIF/JPEG bytes -> uint8 (h, w, 3) RGB. Baseline sequential
    (SOF0/1) and progressive (SOF2) streams decode; grayscale streams
    are replicated to 3 channels, matching ``_decode_png``."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload")
    pos = 2
    qtbls: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffDecoder] = {}
    frame = None  # (h, w, [(cid, hi, vi, tq)])
    progressive = False
    coeffs: dict[int, np.ndarray] | None = None
    got_scan = False
    restart_interval = 0

    while pos < len(payload):
        if payload[pos] != 0xFF:
            raise ValueError("expected marker")
        while payload[pos + 1] == 0xFF:  # fill bytes
            pos += 1
        marker = payload[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # standalone markers
        ln = struct.unpack_from(">H", payload, pos)[0]
        body = payload[pos + 2:pos + ln]
        pos += ln
        if marker == 0xDB:  # DQT
            off = 0
            while off < len(body):
                pq, tq = body[off] >> 4, body[off] & 0x0F
                if pq != 0:
                    raise NotImplementedError("16-bit DQT (12-bit JPEG)")
                zz = np.frombuffer(body, np.uint8, 64, off + 1)
                nat = np.zeros(64, dtype=np.int64)
                nat[ZIGZAG] = zz
                qtbls[tq] = nat
                off += 65
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(body):
                tc, th = body[off] >> 4, body[off] & 0x0F
                bits = list(body[off + 1:off + 17])
                n = sum(bits)
                vals = list(body[off + 17:off + 17 + n])
                huff[(tc, th)] = _HuffDecoder(bits, vals)
                off += 17 + n
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 baseline, SOF2 prog
            prec, fh, fw, nf = struct.unpack_from(">BHHB", body, 0)
            if prec != 8:
                raise NotImplementedError("only 8-bit precision")
            progressive = marker == 0xC2
            cs = []
            for i in range(nf):
                cid, hv, tq = struct.unpack_from(">BBB", body, 6 + 3 * i)
                cs.append((cid, hv >> 4, hv & 0x0F, tq))
            frame = (fh, fw, cs)
            hmax = max(c[1] for c in cs)
            vmax = max(c[2] for c in cs)
            mcux = -(-fw // (8 * hmax))
            mcuy = -(-fh // (8 * vmax))
            coeffs = {cid: np.zeros((mcuy * vi, mcux * hi, 64),
                                    dtype=np.int64)
                      for cid, hi, vi, _tq in cs}
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"unsupported JPEG coding (SOF marker 0x{marker:02X}: "
                "arithmetic/hierarchical/lossless); plug PIL here")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack_from(">H", body, 0)[0]
        elif marker == 0xDA:  # SOS — entropy data follows
            if frame is None or coeffs is None:
                raise ValueError("SOS before SOF")
            ns = body[0]
            scan_comps = []
            for i in range(ns):
                cid, tdta = body[1 + 2 * i], body[2 + 2 * i]
                scan_comps.append((cid, (tdta >> 4, tdta & 0x0F)))
            ss_, se_, ahal = body[1 + 2 * ns:4 + 2 * ns]
            rdr = _BitReader(payload, pos)
            if progressive:
                _decode_prog_scan(rdr, coeffs, frame, scan_comps, huff,
                                  ss_, se_, ahal >> 4, ahal & 0x0F,
                                  restart_interval)
            else:
                _decode_seq_scan(rdr, coeffs, frame, scan_comps, huff,
                                 restart_interval)
            got_scan = True
            pos = _next_marker(payload, rdr.pos)
        # other segments (APPn, COM): skipped

    if frame is None or coeffs is None or not got_scan:
        raise ValueError("no scan data in JPEG payload")
    h, w, cs = frame
    hmax = max(c[1] for c in cs)
    vmax = max(c[2] for c in cs)
    planes = {}
    for cid, hi, vi, tq in cs:
        pix = _idct_assemble(coeffs[cid], qtbls[tq])
        ch = -(-h * vi // vmax)
        cw = -(-w * hi // hmax)
        pix = pix[:ch, :cw]
        if hi != hmax or vi != vmax:
            pix = np.repeat(np.repeat(pix, vmax // vi, axis=0),
                            hmax // hi, axis=1)
        planes[cid] = np.clip(pix[:h, :w], 0, 255)
    if len(cs) == 1:
        g = np.rint(planes[cs[0][0]]).astype(np.uint8)
        return np.repeat(g[:, :, None], 3, axis=2)
    y, cb, cr = (planes[c[0]] for c in cs)
    return _ycbcr_to_rgb(y, cb, cr)
