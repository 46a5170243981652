"""PNG + GIF codec tests: roundtrip fuzz, pinned bytes, corrupt-input
errors, and the multimodal decode integration over corpus payloads."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.pdfcore.gif import (
    GifError,
    _lzw_decode_gif,
    _lzw_encode_gif,
    decode_gif,
    encode_gif,
)
from pdf_parser_ray.pdfcore.png import PngError, decode_png, encode_png

PAL = bytes(b for j in range(256) for b in (j, (j * 7) % 256, (j * 13) % 256))


@given(st.binary(min_size=1, max_size=3000), st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_gif_lzw_roundtrip(data, mcs):
    alphabet = 1 << mcs
    data = bytes(b % alphabet for b in data)
    assert _lzw_decode_gif(_lzw_encode_gif(data, mcs), mcs, len(data)) == data


def test_gif_lzw_table_fill_roundtrip():
    # > 4096 dictionary entries forces the in-stream Clear reset path
    data = bytes((i * 7 + i // 3) % 256 for i in range(60_000))
    assert _lzw_decode_gif(_lzw_encode_gif(data, 8), 8, len(data)) == data


@given(st.integers(1, 24), st.integers(1, 24), st.randoms())
@settings(max_examples=60, deadline=None)
def test_gif_container_roundtrip(w, h, rng):
    idx = bytes(rng.randrange(256) for _ in range(w * h))
    ww, hh, pal, out = decode_gif(encode_gif(idx, w, h, PAL))
    assert (ww, hh, pal, out) == (w, h, PAL, idx)


@given(st.integers(1, 24), st.integers(1, 24), st.sampled_from([1, 3]), st.randoms())
@settings(max_examples=60, deadline=None)
def test_png_roundtrip(w, h, ch, rng):
    px = bytes(rng.randrange(256) for _ in range(w * h * ch))
    assert decode_png(encode_png(px, w, h, ch)) == (w, h, ch, px)


def test_png_decodes_all_filter_types():
    """The decoder must undo filters 1-4 too (shared row-filter code
    with the PDF Predictor-15 path): hand-build a PNG whose rows use
    Sub/Up/Average/Paeth and check the recovered pixels."""
    import struct

    w, h, ch = 4, 4, 3
    px = bytes((i * 11) % 256 for i in range(w * h * ch))
    stride = w * ch
    rows = [bytearray(px[y * stride : (y + 1) * stride]) for y in range(h)]
    filtered = bytearray()
    prev = bytearray(stride)
    for y, row in enumerate(rows):
        tag = [1, 2, 3, 4][y]
        enc = bytearray(row)
        if tag == 1:
            for i in range(stride - 1, ch - 1, -1):
                enc[i] = (enc[i] - row[i - ch]) & 0xFF
        elif tag == 2:
            for i in range(stride):
                enc[i] = (enc[i] - prev[i]) & 0xFF
        elif tag == 3:
            for i in range(stride):
                left = row[i - ch] if i >= ch else 0
                enc[i] = (enc[i] - ((left + prev[i]) >> 1)) & 0xFF
        else:
            for i in range(stride):
                a = row[i - ch] if i >= ch else 0
                b = prev[i]
                c = prev[i - ch] if i >= ch else 0
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                enc[i] = (enc[i] - pred) & 0xFF
        filtered += bytes([tag]) + enc
        prev = row

    def chunk(tag, body):
        return (
            struct.pack(">I", len(body))
            + tag
            + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
        )

    png = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(bytes(filtered)))
        + chunk(b"IEND", b"")
    )
    assert decode_png(png) == (w, h, ch, px)


def test_pinned_payload_bytes():
    """Pin the exact encoder output for one input each, so silent codec
    drift (which would invalidate every cached corpus sha256) fails
    loudly."""
    import hashlib

    png = encode_png(bytes(range(12)), 2, 2, 3)
    gif = encode_gif(bytes(range(4)), 2, 2, PAL)
    assert hashlib.sha256(png).hexdigest() == PINNED_PNG_SHA
    assert hashlib.sha256(gif).hexdigest() == PINNED_GIF_SHA


# pinned by the first green run (deterministic: fixed zlib level, fixed
# LZW dialect); see test_pinned_payload_bytes
PINNED_PNG_SHA = "fe7fbe37be96824b5a3539d1cb1bc9c50990c6da49c0b048c590e552599b7072"
PINNED_GIF_SHA = "6a4f0c75ffec4c586c9a39b32ec8e9371c504fc1b9399893f325b8019672f850"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b[:10],  # truncated
        lambda b: b"XX" + b[2:],  # bad signature
        lambda b: b[:-6] + b"\x00" * 6,  # corrupt tail / crc
    ],
)
def test_png_corrupt_raises(mangle):
    png = encode_png(bytes(range(27)), 3, 3, 3)
    with pytest.raises(PngError):
        decode_png(mangle(png))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b[:8],
        lambda b: b"NOTAGIF" + b[7:],
        lambda b: b[:20],
    ],
)
def test_gif_corrupt_raises(mangle):
    gif = encode_gif(bytes(range(9)), 3, 3, PAL)
    with pytest.raises(GifError):
        decode_gif(mangle(gif))


def test_decode_stub_real_image_arms():
    """decode_stub: real decoders for png/gif/jpeg payloads, real
    failure channel for junk bytes behind valid magic."""
    from pdf_parser_ray.pipelines.multimodal import decode_stub, detect_mime

    png = encode_png(bytes(range(27)), 3, 3, 3)
    assert detect_mime(png) == "image/png"
    meta = decode_stub(png, "image/png")
    assert (meta["width"], meta["height"]) == (3, 3)

    gif = encode_gif(bytes(range(6)), 3, 2, PAL)
    assert detect_mime(gif) == "image/gif"
    meta = decode_stub(gif, "image/gif")
    assert (meta["width"], meta["height"]) == (3, 2)

    with pytest.raises(NotImplementedError):
        decode_stub(b"GIF89a" + bytes(64), "image/gif")
    with pytest.raises(NotImplementedError):
        decode_stub(b"\x89PNG\r\n\x1a\n" + bytes(48), "image/png")
    with pytest.raises(NotImplementedError):
        decode_stub(b"%PDF-1.4 ...", "application/pdf")


def test_junk_arm_payloads_decode_to_synth_pixels():
    """Corpus v9 junk rows k==1/k==2 are REAL images: decode recovers
    the deterministic synthesis pixels and the formula dims."""
    from pdf_parser_ray.sources.synth import (
        gif_dims,
        image_pixels,
        make_junk_payload,
        png_dims,
    )

    gif_doc = 5  # doc_id % 3 == 2, (doc_id//3) % 4 == 1
    w, h = gif_dims(gif_doc)
    ww, hh, pal, idx = decode_gif(make_junk_payload(gif_doc))
    assert (ww, hh) == (w, h)
    assert idx == image_pixels(gif_doc, w * h)
    assert pal == PAL

    png_doc = 8  # doc_id % 3 == 2, (doc_id//3) % 4 == 2
    w, h = png_dims(png_doc)
    ww, hh, ch, px = decode_png(make_junk_payload(png_doc))
    assert (ww, hh, ch) == (w, h, 3)
    assert px == image_pixels(png_doc, w * h * 3)


def test_gif_deferred_clear_decode():
    """Spec encoders may defer the Clear code past a full table,
    emitting 12-bit codes indefinitely; the decoder must freeze its
    table at 4096 and keep decoding (not desync)."""
    from pdf_parser_ray.pdfcore.gif import _lzw_decode_gif

    mcs = 8
    clear, eoi, base = 1 << mcs, (1 << mcs) + 1, (1 << mcs) + 2

    out = bytearray()
    state = {"bitbuf": 0, "nbits": 0, "width": mcs + 1}

    def emit(code):
        state["bitbuf"] |= code << state["nbits"]
        state["nbits"] += state["width"]
        while state["nbits"] >= 8:
            out.append(state["bitbuf"] & 0xFF)
            state["bitbuf"] >>= 8
            state["nbits"] -= 8

    # a no-Clear encoder: freezes its table at 4096 entries
    data = bytes((i * 7 + i // 5) % 256 for i in range(60_000))
    table = {bytes([i]): i for i in range(clear)}
    next_code, dec_size, first = base, base, True
    emit(clear)
    cur = b""

    def after_emit():
        nonlocal dec_size, first
        if first:
            first = False
            return
        if dec_size < 4096:
            dec_size += 1
            if dec_size == (1 << state["width"]) and state["width"] < 12:
                state["width"] += 1

    for byte in data:
        nxt = cur + bytes([byte])
        if nxt in table:
            cur = nxt
            continue
        emit(table[cur])
        after_emit()
        if next_code < 4096:
            table[nxt] = next_code
            next_code += 1
        cur = bytes([byte])
    if cur:
        emit(table[cur])
        after_emit()
    emit(eoi)
    if state["nbits"]:
        out.append(state["bitbuf"] & 0xFF)

    assert _lzw_decode_gif(bytes(out), mcs, len(data)) == data


def test_gif_animation_roundtrip():
    from pdf_parser_ray.pdfcore.gif import (
        decode_gif,
        decode_gif_frames,
        encode_gif_animation,
    )

    pal = bytes(bytearray(v for i in range(256) for v in (i, i, i)))
    frames = [bytes((21 + 13 * f + p) % 251 for p in range(64)) for f in range(5)]
    gif = encode_gif_animation(frames, 8, 8, pal)
    w, h, got_pal, got = decode_gif_frames(gif)
    assert (w, h) == (8, 8)
    assert got == frames
    assert got_pal == pal
    # first-frame compatibility wrapper agrees
    assert decode_gif(gif)[3] == frames[0]
    # max_frames stops early
    assert len(decode_gif_frames(gif, max_frames=2)[3]) == 2


def test_gif_subrect_frame_composites_onto_canvas():
    from pdf_parser_ray.pdfcore.gif import decode_gif_frames, encode_gif

    pal = bytes(bytearray(v for i in range(256) for v in (i, i, i)))
    g1 = encode_gif(bytes(range(64)), 8, 8, pal)
    g2 = encode_gif(bytes(16), 4, 4, pal)
    # splice g2's image block (header 13 B + 768 B global palette)
    # after g1's, replacing g1's trailer: a second SUB-RECTANGLE frame
    # (valid GIF89a) must composite onto the 8x8 canvas at (0, 0)
    assert g2[13 + 768] == 0x2C
    spliced = g1[:-1] + g2[13 + 768 :]
    w, h, _pal, frames = decode_gif_frames(spliced)
    assert (w, h, len(frames)) == (8, 8, 2)
    assert frames[0] == bytes(range(64))
    expect = bytearray(range(64))
    for r in range(4):
        expect[r * 8 : r * 8 + 4] = bytes(4)
    assert frames[1] == bytes(expect)


def test_gif_oversized_rect_rejected():
    import struct

    import pytest

    from pdf_parser_ray.pdfcore.gif import (
        GifError,
        decode_gif_frames,
        encode_gif,
    )

    pal = bytes(bytearray(v for i in range(256) for v in (i, i, i)))
    g = bytearray(encode_gif(bytes(range(64)), 8, 8, pal))
    # move the image rect to (6, 0): 6 + 8 > screen width 8
    struct.pack_into("<HH", g, 13 + 768 + 1, 6, 0)
    with pytest.raises(GifError, match="exceeds"):
        decode_gif_frames(bytes(g))


def test_gif_interlaced_roundtrip():
    from pdf_parser_ray.pdfcore.gif import decode_gif, encode_gif

    pal = bytes(bytearray(v for i in range(256) for v in (i, i, i)))
    for hgt in (1, 2, 5, 8, 9, 31):
        idx = bytes((x * 13 + 1) % 256 for x in range(11 * hgt))
        w, h, _p, got = decode_gif(encode_gif(idx, 11, hgt, pal, interlace=True))
        assert (w, h, got) == (11, hgt, idx)


def test_kmv_kth_zero_saturates():
    import numpy as np

    from pdf_parser_ray.pipelines.sketch import _I64_MAX, _kmv_row

    # k=1 with hash 0 as the kth minimum: estimator denominator is 0 —
    # must saturate, not raise ZeroDivisionError
    r = _kmv_row("en", np.array([0], dtype=np.uint64), 1)
    assert r["est_distinct"] == _I64_MAX


def test_gif_frame_sampler_hand_case(ray_session, tmp_path):
    import pyarrow as pa

    from pdf_parser_ray.pipelines.multimodal import (
        GIF_FRAME_SCHEMA,
        RowStage,
        gif_frame_row,
    )

    batch = pa.table({"doc_id": pa.array([3], pa.int64())})
    out = RowStage(gif_frame_row, GIF_FRAME_SCHEMA)(batch).to_pandas()
    # doc 3: n_frames = 2 + 3%4 = 5 -> sampled frames 0, 2, 4
    assert list(out["frame_idx"]) == [0, 2, 4]
    assert (out["n_frames"] == 5).all()
    for f, s in zip(out["frame_idx"], out["sum_pixels"]):
        assert s == sum((7 * 3 + 13 * f + p) % 251 for p in range(64))
