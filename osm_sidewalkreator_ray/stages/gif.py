"""GIF decoder (GIF87a/89a) on numpy + stdlib only.

Closes the GIF plug point in ``stages/multimodal.py``: after BMP, PNG
and JPEG this is the remaining image format a web crawl actually
contains. Implements, from the public GIF89a specification:

- LZW decompression with variable code width (LSB-first bit packing,
  clear/EOI codes, the ``code == len(dict)`` cScSc case, 12-bit table
  cap with deferred-clear tolerance);
- global and local color tables, interlaced row order (the 8/8/4/2
  four-pass scheme), transparency via the Graphic Control Extension;
- multi-frame (animated) streams: ``decode_gif_frames`` composites
  each frame onto the logical screen honoring disposal methods
  0/1 (keep), 2 (restore background) and 3 (restore previous).

The lossless encoder that makes test streams is test-only
(``tests/media_references.py``).

No code from the reference repo (it contains no codecs).
"""

from __future__ import annotations

import struct

import numpy as np

_MAX_CODE = 4096  # 12-bit LZW table cap


# ------------------------------------------------------------- LZW

def lzw_decompress(data: bytes, min_code_size: int) -> bytes:
    """GIF LZW stream -> pixel index bytes."""
    clear = 1 << min_code_size
    eoi = clear + 1
    roots = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(roots)
    width = min_code_size + 1
    acc = 0
    nbits = 0
    pos = 0
    out = bytearray()
    prev: bytes | None = None
    n = len(data)
    while True:
        while nbits < width:
            if pos >= n:
                return bytes(out)  # tolerate missing EOI (common)
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        if code == clear:
            table = list(roots)
            width = min_code_size + 1
            prev = None
            continue
        if code == eoi:
            return bytes(out)
        if code < len(table):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]  # the cScSc case
        else:
            raise ValueError(f"corrupt LZW code {code}")
        out += entry
        if prev is not None and len(table) < _MAX_CODE:
            table.append(prev + entry[:1])
        prev = entry
        if len(table) >= (1 << width) and width < 12:
            width += 1


# ---------------------------------------------------------- decoder

def _interlace_rows(h: int) -> np.ndarray:
    """Row order of the GIF 4-pass interlace: output row i of the
    stream belongs at canvas row order[i]."""
    return np.concatenate([np.arange(0, h, 8), np.arange(4, h, 8),
                           np.arange(2, h, 4), np.arange(1, h, 2)])


def decode_gif_frames(payload: bytes
                      ) -> tuple[list[np.ndarray], list[int]]:
    """GIF bytes -> (list of uint8 (h, w, 3) RGB frames composited on
    the logical screen, list of per-frame delays in centiseconds)."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    w, h, packed, bg, _ar = struct.unpack_from("<HHBBB", payload, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        size = 2 << (packed & 7)
        gct = np.frombuffer(payload, np.uint8, 3 * size,
                            pos).reshape(size, 3)
        pos += 3 * size
    if gct is not None and bg < len(gct):
        canvas = np.tile(gct[bg], (h, w, 1)).astype(np.uint8)
    else:
        canvas = np.zeros((h, w, 3), dtype=np.uint8)
    background = canvas.copy()
    frames: list[np.ndarray] = []
    delays: list[int] = []
    trans_idx: int | None = None
    disposal = 0
    delay = 0
    while pos < len(payload):
        block = payload[pos]
        pos += 1
        if block == 0x3B:  # trailer
            break
        if block == 0x21:  # extension
            label = payload[pos]
            pos += 1
            if label == 0xF9:  # graphic control
                sz = payload[pos]
                gpacked, delay, tidx = struct.unpack_from(
                    "<BHB", payload, pos + 1)
                pos += 1 + sz
                disposal = (gpacked >> 2) & 7
                trans_idx = tidx if gpacked & 1 else None
            # skip (remaining) sub-blocks
            while payload[pos]:
                pos += 1 + payload[pos]
            pos += 1
        elif block == 0x2C:  # image descriptor
            left, top, fw, fh, ipacked = struct.unpack_from(
                "<HHHHB", payload, pos)
            pos += 9
            if ipacked & 0x80:  # local color table
                size = 2 << (ipacked & 7)
                ct = np.frombuffer(payload, np.uint8, 3 * size,
                                   pos).reshape(size, 3)
                pos += 3 * size
            else:
                if gct is None:
                    raise ValueError("no color table for frame")
                ct = gct
            min_code = payload[pos]
            pos += 1
            chunks = []
            while payload[pos]:
                ln = payload[pos]
                chunks.append(payload[pos + 1:pos + 1 + ln])
                pos += 1 + ln
            pos += 1
            idx = np.frombuffer(
                lzw_decompress(b"".join(chunks), min_code),
                dtype=np.uint8)[:fw * fh]
            if len(idx) < fw * fh:
                raise ValueError("truncated GIF frame data")
            idx = idx.reshape(fh, fw)
            if ipacked & 0x40:  # interlaced: scatter rows back
                deinter = np.empty_like(idx)
                deinter[_interlace_rows(fh)] = idx
                idx = deinter
            prev_canvas = canvas.copy()
            region = canvas[top:top + fh, left:left + fw]
            rgb = ct[np.minimum(idx, len(ct) - 1)]
            if trans_idx is not None:
                opaque = idx != trans_idx
                region[opaque] = rgb[opaque]
            else:
                region[:] = rgb
            frames.append(canvas.copy())
            delays.append(int(delay))
            if disposal == 2:  # restore background
                canvas[top:top + fh, left:left + fw] = \
                    background[top:top + fh, left:left + fw]
            elif disposal == 3:  # restore previous
                canvas = prev_canvas
        else:
            raise ValueError(f"unknown GIF block 0x{block:02X}")
    if not frames:
        raise ValueError("no image data in GIF payload")
    return frames, delays


def decode_gif(payload: bytes) -> np.ndarray:
    """GIF bytes -> first frame as uint8 (h, w, 3) RGB (the static-
    image contract the multimodal ImageDecoder expects)."""
    return decode_gif_frames(payload)[0][0]
