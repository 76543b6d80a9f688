"""Baseline and progressive JPEG (ITU-T T.81, 1992) decoder on numpy +
stdlib only.

Closes the JPEG plug point in ``stages/multimodal.py`` (the container
ships no PIL/libjpeg): ``decode_jpeg`` implements sequential DCT JPEG
— the format of essentially every ``.jpg`` on the web — end to end:

- 8-bit grayscale and YCbCr color; any sampling-factor combination up
  to 4x4 via the general T.81 MCU geometry (A.2.3), so 4:4:4, 4:2:2
  and 4:2:0 streams all decode.
- Canonical Huffman decode per T.81 F.2.2.3 (mincode/maxcode/valptr),
  byte-stuffing (FF 00) and restart-marker (DRI/RSTn) handling.
- The 2-D IDCT as one einsum over all blocks of a component against
  the orthonormal DCT-II matrix (exactly the T.81 A.3.3 definition —
  the 1/4·C(u)C(v) scaling IS the orthonormal normalisation), so there
  is no per-block Python work outside entropy decoding.

Progressive JPEG (SOF2) DECODES too: spectral selection, successive
approximation (DC/AC first + refinement passes with EOB-run coding per
T.81 G.1.2 / Annex G), interleaved DC scans and the non-interleaved
per-component scan geometry, restart markers inside progressive scans.
The baseline and progressive encoders that make test streams are
test-only (``tests/media_references.py``,
``tests/test_jpeg_progressive.py``); the tests check the progressive
decode path against baseline decode bit-exactly without any codec
library.
Arithmetic-coded, hierarchical, lossless and 12-bit streams raise
``NotImplementedError`` with the marker named — the same honest
plug-point contract as the other codecs.

Everything here is public knowledge: the T.81 spec text. No code is
taken from the reference repo (it contains no codecs).
"""

from __future__ import annotations

import struct

import numpy as np

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


# ----------------------------------------------------------- bit I/O

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

def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray
                  ) -> np.ndarray:
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.rint(np.stack([r, g, b], axis=2)), 0,
                   255).astype(np.uint8)


def _idct_assemble(zz: np.ndarray, qtbl: np.ndarray) -> np.ndarray:
    """(by, bx, 64) zigzag coeffs -> float plane (by*8, bx*8)."""
    by, bx = zz.shape[:2]
    nat = np.zeros((by, bx, 64), dtype=np.float64)
    nat[:, :, ZIGZAG] = zz
    nat *= qtbl.reshape(1, 1, 64)
    blocks = nat.reshape(by, bx, 8, 8)
    pix = np.einsum("ji,bcjk,kl->bcil", _DCT, blocks, _DCT) + 128.0
    return pix.transpose(0, 2, 1, 3).reshape(by * 8, bx * 8)


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
