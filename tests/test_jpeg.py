"""Baseline JPEG codec tests (pdfcore/jpeg.py): spec-derived decode
vectors (independent textbook IDCT in the test), near-lossless
roundtrips, 4:2:0 and restart-marker decode paths, and the PDF
DCTDecode integration (reference src/image.rs:140-143 parity)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.pdfcore.jpeg import (
    _STD_AC_LUM,
    _STD_DC_LUM,
    ZIGZAG,
    JpegError,
    _BitWriter,
    _build_encode_table,
    decode_jpeg,
    encode_jpeg,
)


def _textbook_idct(coef8x8: np.ndarray) -> np.ndarray:
    """Direct double-sum IDCT from T.81 A.3.3 — deliberately NOT the
    decoder's matrix formulation, so the test is an independent
    cross-check of the transform."""
    out = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            s = 0.0
            for u in range(8):
                for v in range(8):
                    cu = 1 / np.sqrt(2) if u == 0 else 1.0
                    cv = 1 / np.sqrt(2) if v == 0 else 1.0
                    s += (
                        cu * cv * coef8x8[u, v]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            out[x, y] = s / 4
    return out


def _handmade_gray_jpeg(zz_coeffs: list[int], quant: int = 1) -> bytes:
    """Assemble a minimal 8x8 grayscale baseline JPEG whose single
    block holds the given zig-zag quantized coefficients."""
    out = bytearray(b"\xff\xd8")
    q = [quant] * 64
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes(q)
    out += b"\xff\xc0" + struct.pack(">H", 11) + b"\x08" + struct.pack(">HH", 8, 8)
    out += bytes([1, 1, 0x11, 0])
    for tc, (bits, vals) in ((0, _STD_DC_LUM), (1, _STD_AC_LUM)):
        payload = bytes([tc << 4]) + bytes(bits[1:]) + bytes(vals)
        out += b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload
    out += b"\xff\xda" + struct.pack(">H", 8) + bytes([1, 1, 0x00]) + b"\x00\x3f\x00"

    dc_tbl = _build_encode_table(*_STD_DC_LUM)
    ac_tbl = _build_encode_table(*_STD_AC_LUM)
    bw = _BitWriter()
    # DC
    dc = zz_coeffs[0]
    size = 0 if dc == 0 else int(np.floor(np.log2(abs(dc)))) + 1
    code, ln = dc_tbl[size]
    bw.write(code, ln)
    if size:
        bw.write(dc if dc >= 0 else dc + (1 << size) - 1, size)
    # AC
    run = 0
    for k in range(1, 64):
        v = zz_coeffs[k] if k < len(zz_coeffs) else 0
        if v == 0:
            run += 1
            continue
        while run > 15:
            c, l2 = ac_tbl[0xF0]
            bw.write(c, l2)
            run -= 16
        s = int(np.floor(np.log2(abs(v)))) + 1
        c, l2 = ac_tbl[(run << 4) | s]
        bw.write(c, l2)
        bw.write(v if v >= 0 else v + (1 << s) - 1, s)
        run = 0
    if run:
        c, l2 = ac_tbl[0x00]
        bw.write(c, l2)
    bw.flush()
    out += bw.out + b"\xff\xd9"
    return bytes(out)


@pytest.mark.parametrize(
    "zz",
    [
        [0],                      # all-zero block -> flat 128
        [32],                     # DC only -> flat 128 + 32/8*... (IDCT)
        [5, -3, 7, 0, 0, 11],     # a few low-frequency ACs
        [-128, 64, -64, 32, -32, 16, -16, 8, 127],
    ],
)
def test_decode_matches_textbook_idct(zz):
    data = _handmade_gray_jpeg(zz, quant=2)
    w, h, n, px = decode_jpeg(data)
    assert (w, h, n) == (8, 8, 1)
    coef = np.zeros(64)
    zzfull = np.zeros(64, dtype=np.int64)
    zzfull[: len(zz)] = zz
    coef[ZIGZAG] = zzfull * 2  # dequantized
    expected = np.clip(np.round(_textbook_idct(coef.reshape(8, 8)) + 128), 0, 255)
    got = np.frombuffer(px, np.uint8).reshape(8, 8).astype(float)
    assert np.array_equal(got, expected)


def test_roundtrip_gray_exact():
    w, h = 24, 17
    g = np.clip(np.add.outer(np.arange(h) * 3, np.arange(w) * 2), 0, 255).astype(
        np.uint8
    )
    ww, hh, n, out = decode_jpeg(encode_jpeg(g.tobytes(), w, h, 1))
    assert (ww, hh, n) == (w, h, 1)
    assert np.array_equal(np.frombuffer(out, np.uint8).reshape(h, w), g)


def test_roundtrip_rgb_within_2():
    rng = np.random.RandomState(7)
    w, h = 19, 11
    px = rng.randint(0, 256, (h, w, 3), dtype=np.uint8)
    ww, hh, n, out = decode_jpeg(encode_jpeg(px.tobytes(), w, h, 3))
    assert (ww, hh, n) == (w, h, 3)
    arr = np.frombuffer(out, np.uint8).reshape(h, w, 3).astype(int)
    assert np.abs(arr - px.astype(int)).max() <= 2


def test_decode_420_flat_color():
    """Hand-built 16x16 4:2:0 YCbCr stream (4 Y blocks + Cb + Cr per
    MCU) must decode to the flat source color within rounding."""
    r0, g0, b0 = 40, 180, 90
    y = 0.299 * r0 + 0.587 * g0 + 0.114 * b0
    cb = -0.168736 * r0 - 0.331264 * g0 + 0.5 * b0 + 128.0
    cr = 0.5 * r0 - 0.418688 * g0 - 0.081312 * b0 + 128.0

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes([1] * 64)
    out += b"\xff\xc0" + struct.pack(">H", 17) + b"\x08" + struct.pack(">HH", 16, 16)
    out += bytes([3, 1, 0x22, 0, 2, 0x11, 0, 3, 0x11, 0])
    for tc, (bits, vals) in ((0, _STD_DC_LUM), (1, _STD_AC_LUM)):
        payload = bytes([tc << 4]) + bytes(bits[1:]) + bytes(vals)
        out += b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload
    out += b"\xff\xda" + struct.pack(">H", 12) + bytes(
        [3, 1, 0x00, 2, 0x00, 3, 0x00]
    ) + b"\x00\x3f\x00"

    dc_tbl = _build_encode_table(*_STD_DC_LUM)
    ac_tbl = _build_encode_table(*_STD_AC_LUM)
    bw = _BitWriter()
    # DC for a flat block at value v: quantized coef = round((v-128)*8)
    pred = {"y": 0, "cb": 0, "cr": 0}

    def put_block(key, val):
        dc = int(np.round((val - 128.0) * 8))
        diff = dc - pred[key]
        pred[key] = dc
        size = 0 if diff == 0 else int(np.floor(np.log2(abs(diff)))) + 1
        c, ln = dc_tbl[size]
        bw.write(c, ln)
        if size:
            bw.write(diff if diff >= 0 else diff + (1 << size) - 1, size)
        c, ln = ac_tbl[0x00]  # EOB
        bw.write(c, ln)

    for _ in range(4):  # Y blocks of the single MCU
        put_block("y", y)
    put_block("cb", cb)
    put_block("cr", cr)
    bw.flush()
    out += bw.out + b"\xff\xd9"

    w, h, n, px = decode_jpeg(bytes(out))
    assert (w, h, n) == (16, 16, 3)
    arr = np.frombuffer(px, np.uint8).reshape(16, 16, 3).astype(int)
    assert np.abs(arr - np.array([r0, g0, b0])).max() <= 2


def test_decode_restart_markers():
    """Two-MCU gray stream with DRI=1 and an RST0 between MCUs."""
    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes([1] * 64)
    out += b"\xff\xdd" + struct.pack(">H", 4) + struct.pack(">H", 1)  # DRI 1
    out += b"\xff\xc0" + struct.pack(">H", 11) + b"\x08" + struct.pack(">HH", 8, 16)
    out += bytes([1, 1, 0x11, 0])
    for tc, (bits, vals) in ((0, _STD_DC_LUM), (1, _STD_AC_LUM)):
        payload = bytes([tc << 4]) + bytes(bits[1:]) + bytes(vals)
        out += b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload
    out += b"\xff\xda" + struct.pack(">H", 8) + bytes([1, 1, 0x00]) + b"\x00\x3f\x00"

    dc_tbl = _build_encode_table(*_STD_DC_LUM)
    ac_tbl = _build_encode_table(*_STD_AC_LUM)

    def flat_block_bits(val):
        bw = _BitWriter()
        dc = int(np.round((val - 128.0) * 8))  # DC pred resets per restart
        size = 0 if dc == 0 else int(np.floor(np.log2(abs(dc)))) + 1
        c, ln = dc_tbl[size]
        bw.write(c, ln)
        if size:
            bw.write(dc if dc >= 0 else dc + (1 << size) - 1, size)
        c, ln = ac_tbl[0x00]
        bw.write(c, ln)
        bw.flush()
        return bytes(bw.out)

    out += flat_block_bits(100) + b"\xff\xd0" + flat_block_bits(200) + b"\xff\xd9"
    w, h, n, px = decode_jpeg(bytes(out))
    assert (w, h, n) == (16, 8, 1)
    arr = np.frombuffer(px, np.uint8).reshape(8, 16)
    assert np.abs(arr[:, :8].astype(int) - 100).max() <= 1
    assert np.abs(arr[:, 8:].astype(int) - 200).max() <= 1


def test_unsupported_sof_rejected():
    bad = bytearray(encode_jpeg(bytes(64), 8, 8, 1))
    i = bad.find(b"\xff\xc0")
    bad[i + 1] = 0xC3  # SOF3 (lossless) unsupported
    with pytest.raises(JpegError, match="not baseline/progressive"):
        decode_jpeg(bytes(bad))
    # a baseline scan mislabeled SOF2 is caught by scan validation
    bad[i + 1] = 0xC2
    with pytest.raises(JpegError):
        decode_jpeg(bytes(bad))


def test_truncated_rejected():
    with pytest.raises(JpegError):
        decode_jpeg(b"\xff\xd8\xff\xdb")
    with pytest.raises(JpegError):
        decode_jpeg(b"notajpeg")


def test_pdf_dct_image_extraction():
    """build_text_pdf(dct image) -> extract_images decodes within +-2
    of the source pixels (the pdf_image_stats tolerance)."""
    from pdf_parser_ray.pdfcore.document import PdfDocument
    from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf

    w, h = 6, 5
    pixels = bytes((11 * i) % 256 for i in range(w * h * 3))
    pdf = build_text_pdf(
        b"dct text",
        image={"width": w, "height": h, "pixels": pixels, "filter": "dct"},
    )
    doc = PdfDocument(pdf)
    images = [i for page in doc.extract_images([1]) for i in page]
    assert len(images) == 1
    img = images[0]
    assert img["filter"] == "DCTDecode"
    assert (img["width"], img["height"]) == (w, h)
    got = np.frombuffer(img["rgb"], np.uint8).astype(int)
    exp = np.frombuffer(pixels, np.uint8).astype(int)
    assert np.abs(got - exp).max() <= 2
    # text path is unaffected
    from pdf_parser_ray.pdfcore.textextract import extract_text

    assert extract_text(doc)[0] == b"dct text"


def test_cli_jpg_sink(tmp_path):
    """extract-images writes {page}-{image}.jpg that our decoder (and
    the format) round-trips (reference src/main.rs:36-42 parity)."""
    from pdf_parser_ray.cli import main
    from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf

    w, h = 4, 3
    pixels = bytes((7 * i) % 256 for i in range(w * h * 3))
    pdf_path = tmp_path / "img.pdf"
    pdf_path.write_bytes(
        build_text_pdf(
            b"x", image={"width": w, "height": h, "pixels": pixels}
        )
    )
    rc = main(["extract-images", str(pdf_path), "--out", str(tmp_path)])
    assert rc == 0
    # 0-based enumerate naming (reference src/main.rs:30-37)
    jpg = (tmp_path / "0-0.jpg").read_bytes()
    assert jpg[:3] == b"\xff\xd8\xff"
    ww, hh, n, out = decode_jpeg(jpg)
    assert (ww, hh, n) == (w, h, 3)
    got = np.frombuffer(out, np.uint8).astype(int)
    assert np.abs(got - np.frombuffer(pixels, np.uint8).astype(int)).max() <= 2


def test_media_meta_decodes_real_jpeg():
    """The multimodal metadata stage uses the real codec for
    image/jpeg payloads (stub remains only for formats with no
    in-container codec)."""
    import pyarrow as pa

    from pdf_parser_ray.pipelines.multimodal import (
        MEDIA_META_SCHEMA,
        RowStage,
        media_meta_row,
    )

    jpg = encode_jpeg(bytes(range(48)), 4, 4, 3)
    t = pa.table(
        {
            "url": ["https://x/p/9"],
            "html": pa.array([jpg], pa.binary()),
        }
    )
    out = RowStage(media_meta_row, MEDIA_META_SCHEMA)(t)
    assert out["mime"][0].as_py() == "image/jpeg"
    assert out["decoded"][0].as_py() is True
    assert out["width"][0].as_py() == 4 and out["height"][0].as_py() == 4


def test_decode_large_image_linear_time():
    """Accumulator truncation keeps decode linear — a 192x192 decode
    previously took ~27 s (quadratic bignum growth); now well under 2 s."""
    import time

    rng = np.random.RandomState(3)
    px = rng.randint(0, 256, (192, 192), dtype=np.uint8)
    data = encode_jpeg(px.tobytes(), 192, 192, 1)
    t0 = time.monotonic()
    w, h, n, out = decode_jpeg(data)
    assert (w, h, n) == (192, 192, 1)
    assert time.monotonic() - t0 < 10.0  # was ~27 s when quadratic; noisy host needs slack
    err = np.abs(
        np.frombuffer(out, np.uint8).reshape(192, 192).astype(int) - px.astype(int)
    ).max()
    assert err <= 1  # extreme random noise rounds +-1 at quant=1


def test_truncated_entropy_raises():
    """A scan cut off mid-MCU must raise, not return zero-filled
    pixels as ok (the silent-corruption channel)."""
    data = encode_jpeg(bytes(range(200)) * 30, 50, 40, 3)
    sos = data.find(b"\xff\xda")
    cut = data[: sos + (len(data) - sos) // 2]
    with pytest.raises(JpegError):
        decode_jpeg(cut)


@pytest.mark.parametrize(
    "bad",
    [
        b"\xff\xd8\xff\xc0\x00\x03\x08",            # truncated SOF
        b"\xff\xd8\xff\xdd\x00\x02",                # truncated DRI
        b"\xff\xd8\xff\xc4\x00\x04\x00\x01",        # truncated DHT
    ],
)
def test_malformed_headers_raise_jpeg_error(bad):
    """Malformed input raises JpegError, never a raw struct/index
    error — the per-row error channel depends on that contract."""
    with pytest.raises(JpegError):
        decode_jpeg(bad)


def test_hostile_dimensions_rejected():
    """A tiny stream declaring a 65535x65535 frame must be refused
    before allocating ~100 GB of planes."""
    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes([1] * 64)
    out += b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
    out += struct.pack(">HH", 65535, 65535) + bytes([1, 1, 0x11, 0])
    with pytest.raises(JpegError, match="safety cap"):
        decode_jpeg(bytes(out))
    # zero dimension
    out2 = bytearray(b"\xff\xd8")
    out2 += b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
    out2 += struct.pack(">HH", 0, 8) + bytes([1, 1, 0x11, 0])
    with pytest.raises(JpegError, match="zero"):
        decode_jpeg(bytes(out2))


def test_media_meta_survives_corrupt_jpeg():
    """A payload with JPEG magic but garbage body must become an
    undecoded row, never a job-killing exception."""
    import pyarrow as pa

    from pdf_parser_ray.pipelines.multimodal import (
        MEDIA_META_SCHEMA,
        RowStage,
        media_meta_row,
    )

    t = pa.table(
        {
            "url": ["https://x/p/1"],
            "html": pa.array([b"\xff\xd8\xff\xc0\x00\x03\x08"], pa.binary()),
        }
    )
    out = RowStage(media_meta_row, MEDIA_META_SCHEMA)(t)
    assert out["mime"][0].as_py() == "image/jpeg"
    assert out["decoded"][0].as_py() is False


@pytest.mark.parametrize(
    "w,h,ncomp,quant,dc_al,ac_al,bands",
    [
        (16, 16, 1, 1, 1, 1, ((1, 5), (6, 63))),
        (24, 17, 3, 1, 1, 1, ((1, 5), (6, 63))),
        (19, 13, 3, 2, 2, 2, ((1, 2), (3, 20), (21, 63))),
        (8, 8, 1, 1, 0, 0, ((1, 63),)),  # spectral selection only
        (40, 33, 3, 3, 1, 2, ((1, 63),)),
    ],
)
def test_progressive_matches_baseline(w, h, ncomp, quant, dc_al, ac_al, bands):
    """Full refinement reconstructs the exact baseline coefficients,
    so progressive decode must equal baseline decode BYTE FOR BYTE —
    covers DC first/refine, AC first/refine, EOB runs, ZRL-in-
    refinement and multi-band spectral selection."""
    from pdf_parser_ray.pdfcore.jpeg import encode_progressive_jpeg

    rng = np.random.RandomState(w * h + ncomp)
    px = rng.randint(0, 256, (h, w, ncomp), dtype=np.uint8).tobytes()
    base = decode_jpeg(encode_jpeg(px, w, h, ncomp, quant))
    prog = decode_jpeg(
        encode_progressive_jpeg(px, w, h, ncomp, quant, dc_al, ac_al, bands)
    )
    assert base[:3] == prog[:3] == (w, h, ncomp)
    assert base[3] == prog[3]


def test_pdf_with_progressive_dct_image():
    """A PROGRESSIVE DCTDecode stream embedded in a real PDF decodes
    through the full image path (extract_images incl. param checks and
    pixel assembly) — real-world corpora mix baseline and progressive."""
    from pdf_parser_ray.pdfcore.document import PdfDocument
    from pdf_parser_ray.pdfcore.jpeg import encode_progressive_jpeg
    from pdf_parser_ray.pdfcore.pdfbuild import build_text_pdf

    w, h = 10, 7
    pixels = bytes((13 * i) % 256 for i in range(w * h * 3))
    pdf = build_text_pdf(
        b"prog text",
        image={
            "width": w,
            "height": h,
            "pixels": pixels,
            "filter": "dct",
            "jpeg_bytes": encode_progressive_jpeg(pixels, w, h, 3),
        },
    )
    doc = PdfDocument(pdf)
    images = [i for page in doc.extract_images([1]) for i in page]
    assert len(images) == 1 and images[0]["filter"] == "DCTDecode"
    got = np.frombuffer(images[0]["rgb"], np.uint8).astype(int)
    exp = np.frombuffer(pixels, np.uint8).astype(int)
    assert np.abs(got - exp).max() <= 2


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_decode_fuzz_only_jpeg_error(data):
    """Arbitrary bytes (including SOI-prefixed garbage) must either
    decode or raise JpegError — never any other exception type."""
    for payload in (data, b"\xff\xd8" + data):
        try:
            decode_jpeg(payload)
        except JpegError:
            pass


def test_progressive_420_flat_color():
    """Hand-built PROGRESSIVE 4:2:0 stream: interleaved DC first scan
    (subsampled MCU order) + per-component AC scans over the
    component's OWN block grid (1 block for chroma vs 4 for luma) —
    pins the bw_c/bh_c vs MCU-grid distinction in the progressive
    path."""
    r0, g0, b0 = 200, 60, 130
    y = 0.299 * r0 + 0.587 * g0 + 0.114 * b0
    cb = -0.168736 * r0 - 0.331264 * g0 + 0.5 * b0 + 128.0
    cr = 0.5 * r0 - 0.418688 * g0 - 0.081312 * b0 + 128.0

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes([1] * 64)
    out += b"\xff\xc2" + struct.pack(">H", 17) + b"\x08" + struct.pack(">HH", 16, 16)
    out += bytes([3, 1, 0x22, 0, 2, 0x11, 0, 3, 0x11, 0])
    for tc, (bits, vals) in ((0, _STD_DC_LUM), (1, _STD_AC_LUM)):
        payload = bytes([tc << 4]) + bytes(bits[1:]) + bytes(vals)
        out += b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload

    dc_tbl = _build_encode_table(*_STD_DC_LUM)
    ac_tbl = _build_encode_table(*_STD_AC_LUM)

    # scan 1: DC first, interleaved (4 Y + 1 Cb + 1 Cr), Ah=0 Al=0
    out += b"\xff\xda" + struct.pack(">H", 12) + bytes(
        [3, 1, 0x00, 2, 0x00, 3, 0x00]
    ) + bytes([0, 0, 0x00])
    bw = _BitWriter()
    pred = {"y": 0, "cb": 0, "cr": 0}

    def put_dc(key, val):
        dc = int(np.round((val - 128.0) * 8))
        diff = dc - pred[key]
        pred[key] = dc
        size = 0 if diff == 0 else int(abs(diff)).bit_length()
        c, ln = dc_tbl[size]
        bw.write(c, ln)
        if size:
            bw.write(diff if diff >= 0 else diff + (1 << size) - 1, size)

    for _ in range(4):
        put_dc("y", y)
    put_dc("cb", cb)
    put_dc("cr", cr)
    bw.flush()
    out += bw.out

    # scans 2-4: AC first per component (flat image -> EOB-only), over
    # each component's OWN grid: 4 blocks for Y, 1 for Cb, 1 for Cr
    for cid, nblocks in ((1, 4), (2, 1), (3, 1)):
        out += b"\xff\xda" + struct.pack(">H", 8) + bytes(
            [1, cid, 0x00]
        ) + bytes([1, 63, 0x00])
        bw = _BitWriter()
        for _ in range(nblocks):
            c, ln = ac_tbl[0x00]  # EOB0
            bw.write(c, ln)
        bw.flush()
        out += bw.out

    out += b"\xff\xd9"
    w, h, n, px = decode_jpeg(bytes(out))
    assert (w, h, n) == (16, 16, 3)
    arr = np.frombuffer(px, np.uint8).reshape(16, 16, 3).astype(int)
    assert np.abs(arr - np.array([r0, g0, b0])).max() <= 2
