"""Progressive JPEG (SOF2) codec tests.

The invariant under test: a progressive stream carries the SAME
quantised DCT coefficients as the baseline stream of the same image at
the same quality — the entropy coding differs, the data does not — so
``decode_jpeg(progressive)`` must equal ``decode_jpeg(baseline)``
PIXEL-FOR-PIXEL (not approximately). That exercises every decode path
(DC/AC first passes, successive-approximation refinement, EOB runs,
ZRL-with-correction-bits, restart markers, interleaved and
non-interleaved scan geometry) without any codec library. No Ray.

The encoder below is test-only: it emits spectral-selection +
successive-approximation scan scripts (T.81 Annex G) with per-scan
optimal Huffman tables (K.2), EOB runs and buffered correction bits,
so the product decoder in ``stages/jpeg.py`` is checked against
streams no baseline encoder produces.
"""

import struct

import numpy as np
import pytest

from osm_sidewalkreator_ray.stages.jpeg import ZIGZAG, decode_jpeg
from media_references import (
    QTBL_CHROMA, QTBL_LUMA, _BitWriter, _blocks_fdct_quant,
    _canonical_codes, _pad_edge, _rgb_to_ycbcr, _seg, encode_jpeg,
    scaled_quant_table)

# libjpeg caps the refinement-pass correction-bit buffer; flush the
# pending EOB run before the buffer could overflow a block's worth
_MAX_CORR_BITS = 1000 - 64

# the libjpeg standard progressive scan script (jcparam.c semantics,
# public): component indices are positions in the SOF component list
SCRIPT_COLOR = [
    ((0, 1, 2), 0, 0, 0, 1),   # DC first, all comps, Al=1
    ((0,), 1, 5, 0, 2),        # luma AC low band
    ((2,), 1, 63, 0, 1),       # chroma AC full band
    ((1,), 1, 63, 0, 1),
    ((0,), 6, 63, 0, 2),       # luma AC high band
    ((0,), 1, 63, 2, 1),       # luma AC refine Al 2->1
    ((0, 1, 2), 0, 0, 1, 0),   # DC refine to full precision
    ((2,), 1, 63, 1, 0),       # AC refines to full precision
    ((1,), 1, 63, 1, 0),
    ((0,), 1, 63, 1, 0),
]
SCRIPT_GRAY = [
    ((0,), 0, 0, 0, 1),
    ((0,), 1, 63, 0, 2),
    ((0,), 1, 63, 2, 1),
    ((0,), 0, 0, 1, 0),
    ((0,), 1, 63, 1, 0),
]


# ------------------------------------------------ optimal Huffman (K.2)

def optimal_huffman(freq: np.ndarray) -> tuple[list[int], list[int]]:
    """Symbol frequencies (len 256) -> (BITS[1..16], HUFFVAL) per the
    T.81 K.2 procedure (Figures K.1-K.3): merge the two least-frequent
    symbols repeatedly, then fold code lengths above 16 down. Symbol
    256 is the reserved always-present entry that guarantees no real
    symbol gets the all-ones code."""
    freq = np.concatenate([freq.astype(np.int64), [1]])
    codesize = np.zeros(257, dtype=np.int64)
    others = np.full(257, -1, dtype=np.int64)
    while True:
        nz = np.nonzero(freq)[0]
        if len(nz) < 2:
            break
        order = nz[np.lexsort((-nz, freq[nz]))]  # ties -> larger symbol
        v1, v2 = int(order[0]), int(order[1])
        freq[v1] += freq[v2]
        freq[v2] = 0
        codesize[v1] += 1
        while others[v1] != -1:
            v1 = others[v1]
            codesize[v1] += 1
        others[v1] = v2
        codesize[v2] += 1
        while others[v2] != -1:
            v2 = others[v2]
            codesize[v2] += 1
    if codesize.max() > 32:
        raise ValueError("Huffman code length overflow")
    bits = [0] * 33
    for s in codesize:
        if s:
            bits[int(s)] += 1
    # Figure K.3: fold lengths > 16 (move a pair down, a symbol up)
    for i in range(32, 16, -1):
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    # drop the reserved symbol's code (the longest)
    i = 16
    while bits[i] == 0:
        i -= 1
    bits[i] -= 1
    vals = sorted((s for s in range(256) if codesize[s]),
                  key=lambda s: (codesize[s], s))
    return bits[1:17], vals


# ------------------------------------------------------- symbol sinks

class _CountSink:
    """Pass-1 sink: tallies Huffman symbol frequencies, ignores raw
    bits (the scan body runs identically in both passes)."""

    def __init__(self) -> None:
        self.freq = np.zeros(256, dtype=np.int64)

    def sym(self, s: int) -> None:
        self.freq[s] += 1

    def bits(self, _v: int, _n: int) -> None:
        pass

    def restart(self, _idx: int) -> None:
        pass


class _WriteSink:
    """Pass-2 sink: real entropy output through the stuffing writer."""

    def __init__(self, codes: dict[int, tuple[int, int]]) -> None:
        self.codes = codes
        self.bw = _BitWriter()

    def sym(self, s: int) -> None:
        code, size = self.codes[s]
        self.bw.put(code, size)

    def bits(self, v: int, n: int) -> None:
        self.bw.put(v, n)

    def restart(self, idx: int) -> None:
        self.bw.pad_to_byte()
        self.bw.buf += bytes([0xFF, 0xD0 + (idx & 7)])


# ---------------------------------------------------------- scan bodies

def _dc_scan(sink, blocks, al: int, refine: bool) -> None:
    """DC first pass (per-component prediction on the point-transformed
    value) or DC refinement (one raw bit per block)."""
    preds: dict[int, int] = {}
    for cid, blk in blocks:
        v = int(blk[0]) >> al  # arithmetic shift, per G.1.2.1
        if refine:
            sink.bits(v & 1, 1)
            continue
        diff = v - preds.get(cid, 0)
        preds[cid] = v
        ssss = abs(diff).bit_length()
        sink.sym(ssss)
        if ssss:
            sink.bits(diff if diff >= 0 else diff + (1 << ssss) - 1,
                      ssss)


class _EobState:
    """Pending EOB run + correction bits buffered behind it (the BE
    buffer of G.1.2.3)."""

    def __init__(self, sink) -> None:
        self.sink = sink
        self.run = 0
        self.pending: list[int] = []

    def flush(self) -> None:
        if self.run:
            r = self.run.bit_length() - 1
            self.sink.sym(r << 4)
            if r:
                self.sink.bits(self.run - (1 << r), r)
            self.run = 0
        for b in self.pending:
            self.sink.bits(b, 1)
        self.pending = []

    def count(self, corr_bits: list[int]) -> None:
        self.run += 1
        self.pending.extend(corr_bits)
        if self.run == 0x7FFF or len(self.pending) > _MAX_CORR_BITS:
            self.flush()


def _ac_first_scan(sink, blocks, ss: int, se: int, al: int) -> None:
    """AC first pass (G.1.2.2): run-length + size coding of the
    point-transformed band, EOB runs across all-zero block tails."""
    eob = _EobState(sink)
    for _cid, blk in blocks:
        band = blk[ss:se + 1]
        t = np.where(band >= 0, band >> al, -((-band) >> al))
        nz = np.nonzero(t)[0]
        if len(nz) == 0:
            eob.count([])
            continue
        eob.flush()
        prev = 0
        for pos in nz:
            run = int(pos) - prev
            prev = int(pos) + 1
            while run > 15:
                sink.sym(0xF0)  # ZRL
                run -= 16
            v = int(t[pos])
            ssss = abs(v).bit_length()
            sink.sym((run << 4) | ssss)
            sink.bits(v if v >= 0 else v + (1 << ssss) - 1, ssss)
        if prev <= se - ss:  # trailing zeros -> this block ends an EOB
            eob.count([])
    eob.flush()


def _ac_refine_scan(sink, blocks, ss: int, se: int, al: int) -> None:
    """AC refinement pass (G.1.2.3, the libjpeg encode_mcu_AC_refine
    structure): newly-nonzero coefficients emit (run, 1) symbols with
    a sign bit; already-nonzero coefficients contribute buffered
    correction bits; trailing zero/history tails fold into EOB runs."""
    eob = _EobState(sink)
    for _cid, blk in blocks:
        band = blk[ss:se + 1]
        absval = np.abs(band) >> al
        ones = np.nonzero(absval == 1)[0]
        last_new = int(ones[-1]) if len(ones) else -1
        r = 0
        br: list[int] = []  # correction bits since last emitted symbol
        for k in range(len(band)):
            temp = int(absval[k])
            if temp == 0:
                r += 1
                continue
            # fold zero runs past the last new coefficient into EOB;
            # before it, they must become ZRLs (each followed by the
            # correction bits gathered so far — the decoder reads them
            # while advancing over the 16 zero-history positions)
            while r > 15 and k <= last_new:
                eob.flush()
                sink.sym(0xF0)
                r -= 16
                for b in br:
                    sink.bits(b, 1)
                br = []
            if temp > 1:  # history coefficient: one correction bit
                br.append(temp & 1)
                continue
            # newly-nonzero (magnitude exactly 1 at this precision)
            eob.flush()
            sink.sym((r << 4) | 1)
            sink.bits(1 if int(band[k]) >= 0 else 0, 1)
            for b in br:
                sink.bits(b, 1)
            br = []
            r = 0
        if r > 0 or br:
            eob.count(br)
    eob.flush()


# ------------------------------------------------------------- encoder

def _scan_units(comps_meta, scan_idx, mcux, mcuy):
    """Restartable unit list for a scan — each unit is the block group
    of one MCU (multi-component scans) or one data unit (single-
    component scans, true ceil-dims with no MCU padding blocks); the
    restart interval counts these units (T.81 G.1.2 / F.2.1.3)."""
    if len(scan_idx) == 1:
        cid, hi, vi, _tq, zz, bw_, bh_ = comps_meta[scan_idx[0]]
        return [[(cid, zz[by, bx])] for by in range(bh_)
                for bx in range(bw_)]
    out = []
    for m in range(mcux * mcuy):
        my, mx = divmod(m, mcux)
        group = []
        for i in scan_idx:
            cid, hi, vi, _tq, zz, _bw, _bh = comps_meta[i]
            for v in range(vi):
                for hh in range(hi):
                    group.append((cid, zz[my * vi + v, mx * hi + hh]))
        out.append(group)
    return out


def encode_jpeg_progressive(img: np.ndarray, quality: int = 75,
                            subsample: str = "420",
                            scans: list | None = None,
                            restart_interval: int = 0) -> bytes:
    """uint8 (h, w) grayscale or (h, w, 3) RGB -> progressive (SOF2)
    JFIF bytes. ``scans`` overrides the libjpeg standard script; each
    row is ``(comp_indices, Ss, Se, Ah, Al)``. ``restart_interval``
    > 0 emits a DRI segment and RSTn markers every that many MCUs /
    data units in EVERY scan (DC prediction and EOB runs reset at each
    marker). The quantised coefficients are identical to
    ``encode_jpeg`` at the same quality, so both streams decode to
    identical pixels."""
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
    comps_meta = []
    for cid, (hi, vi), tq, plane in comps:
        padded = _pad_edge(plane, mcuy * vi * 8, mcux * hi * 8)
        zz = _blocks_fdct_quant(padded, qt_l if tq == 0 else qt_c)
        cw = -(-w * hi // hmax)
        ch = -(-h * vi // vmax)
        comps_meta.append((cid, hi, vi, tq, zz,
                           -(-cw // 8), -(-ch // 8)))

    if scans is None:
        scans = SCRIPT_GRAY if gray else SCRIPT_COLOR

    out = bytearray(b"\xff\xd8")
    out += _seg(0xE0, b"JFIF\x00" + struct.pack(">BBBHHBB",
                                                1, 1, 0, 1, 1, 0, 0))
    out += _seg(0xDB, bytes([0x00]) + bytes(qt_l[ZIGZAG].astype(np.uint8)))
    if not gray:
        out += _seg(0xDB, bytes([0x01])
                    + bytes(qt_c[ZIGZAG].astype(np.uint8)))
    sof = struct.pack(">BHHB", 8, h, w, len(comps_meta))
    for cid, hi, vi, tq, _zz, _bw, _bh in comps_meta:
        sof += struct.pack(">BBB", cid, (hi << 4) | vi, tq)
    out += _seg(0xC2, sof)
    if restart_interval:
        out += _seg(0xDD, struct.pack(">H", restart_interval))

    for scan_idx, ss_, se_, ah_, al_ in scans:
        scan_idx = tuple(scan_idx)
        units = _scan_units(comps_meta, scan_idx, mcux, mcuy)
        dc_scan = ss_ == 0
        refine = ah_ > 0
        step = restart_interval or len(units)

        def run(sink):
            # each restart chunk re-enters the scan body with fresh
            # DC-prediction / EOB-run state (G.1.2: both reset at RSTn)
            for ci in range(0, max(len(units), 1), step):
                if ci:
                    sink.restart(ci // step - 1)
                blocks = [b for u in units[ci:ci + step] for b in u]
                if dc_scan:
                    _dc_scan(sink, blocks, al_, refine)
                elif refine:
                    _ac_refine_scan(sink, blocks, ss_, se_, al_)
                else:
                    _ac_first_scan(sink, blocks, ss_, se_, al_)

        needs_table = not (dc_scan and refine)
        if needs_table:
            counter = _CountSink()
            run(counter)
            bits, vals = optimal_huffman(counter.freq)
            tc = 0 if dc_scan else 1
            out += _seg(0xC4, bytes([(tc << 4) | 0]) + bytes(bits)
                        + bytes(vals))
            writer = _WriteSink(_canonical_codes(bits, vals))
        else:
            writer = _WriteSink({})
        run(writer)
        writer.bw.pad_to_byte()

        sos = bytes([len(scan_idx)])
        for i in scan_idx:
            cid = comps_meta[i][0]
            sos += struct.pack(">BB", cid, 0x00)  # Td=0 / Ta=0
        sos += bytes([ss_, se_, (ah_ << 4) | al_])
        out += _seg(0xDA, sos)
        out += writer.bw.buf

    out += b"\xff\xd9"
    return bytes(out)


# --------------------------------------------------------------- tests

def _noise(shape, seed=0):
    return np.random.RandomState(seed).randint(0, 256, shape,
                                               dtype=np.uint8)


def _photoish(h, w):
    g = 128 + 60 * np.sin(np.add.outer(np.arange(h) / 5.0,
                                       np.arange(w) / 7.0))
    return g[..., None].repeat(3, axis=2).astype(np.uint8)


class TestProgressiveEqualsBaseline:
    @pytest.mark.parametrize("shape,sub", [
        ((24, 31, 3), "444"),
        ((33, 47, 3), "420"),
        ((8, 8, 3), "420"),
        ((64, 64, 3), "444"),
    ])
    def test_color_identity(self, shape, sub):
        img = _noise(shape, seed=1)
        base = decode_jpeg(encode_jpeg(img, 75, subsample=sub))
        prog = decode_jpeg(
            encode_jpeg_progressive(img, 75, subsample=sub))
        assert np.array_equal(base, prog)

    def test_grayscale_identity(self):
        img = _noise((41, 29), seed=2)
        base = decode_jpeg(encode_jpeg(img, 75))
        prog = decode_jpeg(encode_jpeg_progressive(img, 75))
        assert np.array_equal(base, prog)

    @pytest.mark.parametrize("q", [10, 50, 92])
    def test_quality_sweep_noise(self, q):
        # dense coefficients: heavy refinement-correction traffic
        img = _noise((40, 56, 3), seed=3)
        base = decode_jpeg(encode_jpeg(img, q, subsample="420"))
        prog = decode_jpeg(
            encode_jpeg_progressive(img, q, subsample="420"))
        assert np.array_equal(base, prog)

    def test_flat_image_long_eob_runs(self):
        img = np.full((128, 160, 3), 173, np.uint8)
        base = decode_jpeg(encode_jpeg(img, 75))
        prog = decode_jpeg(encode_jpeg_progressive(img, 75))
        assert np.array_equal(base, prog)

    def test_hot_pixel_isolated_block(self):
        # one detailed block inside a large EOB run on both sides
        img = np.full((96, 96, 3), 40, np.uint8)
        img[70, 70] = 255
        base = decode_jpeg(encode_jpeg(img, 75, subsample="444"))
        prog = decode_jpeg(
            encode_jpeg_progressive(img, 75, subsample="444"))
        assert np.array_equal(base, prog)

    @pytest.mark.parametrize("shape", [(1, 300, 3), (300, 1, 3),
                                       (7, 7), (9, 17, 3)])
    def test_extreme_aspect(self, shape):
        img = _noise(shape, seed=4)
        base = decode_jpeg(encode_jpeg(img, 75))
        prog = decode_jpeg(encode_jpeg_progressive(img, 75))
        assert np.array_equal(base, prog)


# a deliberately deep script: Al=3 first passes, three refinement
# rounds per band, narrow spectral slices — worst case for the
# EOB-run + correction-bit bookkeeping
DEEP_SCRIPT = [
    ((0, 1, 2), 0, 0, 0, 3),
    ((0,), 1, 2, 0, 3), ((0,), 3, 9, 0, 3), ((0,), 10, 63, 0, 3),
    ((1,), 1, 63, 0, 3), ((2,), 1, 63, 0, 3),
    ((0, 1, 2), 0, 0, 1, 2), ((0, 1, 2), 0, 0, 1, 1),
    ((0, 1, 2), 0, 0, 1, 0),
    ((0,), 1, 2, 3, 2), ((0,), 3, 9, 3, 2), ((0,), 10, 63, 3, 2),
    ((1,), 1, 63, 3, 2), ((2,), 1, 63, 3, 2),
    ((0,), 1, 2, 2, 1), ((0,), 3, 9, 2, 1), ((0,), 10, 63, 2, 1),
    ((1,), 1, 63, 2, 1), ((2,), 1, 63, 2, 1),
    ((0,), 1, 2, 1, 0), ((0,), 3, 9, 1, 0), ((0,), 10, 63, 1, 0),
    ((1,), 1, 63, 1, 0), ((2,), 1, 63, 1, 0),
]


class TestScanScripts:
    @pytest.mark.parametrize("sub", ["444", "420"])
    def test_deep_successive_approximation(self, sub):
        for seed, mk in [(5, lambda: _noise((50, 77, 3), 5)),
                         (0, lambda: _photoish(50, 77))]:
            img = mk()
            base = decode_jpeg(encode_jpeg(img, 60, subsample=sub))
            prog = decode_jpeg(encode_jpeg_progressive(
                img, 60, subsample=sub, scans=DEEP_SCRIPT))
            assert np.array_equal(base, prog)

    def test_default_scripts_are_standard_shape(self):
        # DC-first rows precede their refinements; every band reaches
        # Al=0 (the "displayable at full precision" invariant)
        for script in (SCRIPT_COLOR, SCRIPT_GRAY):
            finals = {(c, k) for comps, ss, se, ah, al in script
                      if al == 0 for c in comps
                      for k in range(ss, se + 1)}
            ncomp = max(max(c) for c, *_ in script) + 1
            want = {(c, k) for c in range(ncomp) for k in range(64)}
            assert finals == want


class TestRestartMarkers:
    @pytest.mark.parametrize("ri", [1, 2, 7])
    def test_progressive_restart_identity(self, ri):
        img = _noise((40, 56, 3), seed=6)
        base = decode_jpeg(encode_jpeg(img, 70, subsample="420"))
        prog = decode_jpeg(encode_jpeg_progressive(
            img, 70, subsample="420", restart_interval=ri))
        assert np.array_equal(base, prog)

    def test_restart_gray_single_component(self):
        # non-interleaved geometry: restart counts data units
        img = _noise((33, 33), seed=7)
        base = decode_jpeg(encode_jpeg(img, 70))
        prog = decode_jpeg(
            encode_jpeg_progressive(img, 70, restart_interval=3))
        assert np.array_equal(base, prog)


class TestOptimalHuffman:
    def test_kraft_and_completeness(self):
        rng = np.random.RandomState(8)
        for _ in range(20):
            freq = np.zeros(256, dtype=np.int64)
            n = rng.randint(1, 60)
            syms = rng.choice(256, size=n, replace=False)
            freq[syms] = rng.randint(1, 10_000, size=n)
            bits, vals = optimal_huffman(freq)
            assert sorted(vals) == sorted(syms.tolist())
            assert sum(bits) == n
            kraft = sum(c * 2.0 ** -(i + 1) for i, c in enumerate(bits))
            assert kraft <= 1.0 + 1e-12
            assert all(c >= 0 for c in bits)

    def test_single_symbol_gets_one_bit(self):
        freq = np.zeros(256, dtype=np.int64)
        freq[42] = 1000
        bits, vals = optimal_huffman(freq)
        assert vals == [42]
        assert bits[0] == 1  # one code of length 1

    def test_progressive_usually_smaller(self):
        # optimal per-scan tables should beat the fixed Annex K
        # baseline tables on a typical smooth image
        img = _photoish(64, 96)
        base = encode_jpeg(img, 75, subsample="420")
        prog = encode_jpeg_progressive(img, 75, subsample="420")
        assert len(prog) < len(base)


class TestPlugPoints:
    def test_arithmetic_still_raises(self):
        img = _noise((16, 16), seed=9)
        data = bytearray(encode_jpeg_progressive(img, 75))
        i = data.find(bytes([0xFF, 0xC2]))
        data[i + 1] = 0xCA  # SOF10: progressive arithmetic
        with pytest.raises(NotImplementedError):
            decode_jpeg(bytes(data))
