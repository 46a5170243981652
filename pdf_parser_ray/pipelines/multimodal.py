"""Multimodal (binary-column) stages (build mandate).

Images/audio/video are opaque ``binary`` columns with typed metadata.
The Ray-side plumbing — schema, batch sizing, actor signature, output
layout — is real, and so are the codecs for JPEG, PNG, GIF (incl.
animation frames), WAV PCM and MPEG audio metadata (the engine's own
spec-derived implementations in pdfcore/ — no media libraries exist in
this container; the mp3 arm parses frame headers, not samples).

Every operator is one row function plus its output schema, run by the
generic ``RowStage`` actor: ``fn(row, cache)`` yields zero or more
output rows per input row (a whole payload is the vectorization unit
for codecs), and the batch is assembled against the schema so empty
batches keep their column types.

Batch sizing: binary payload stages use small ``batch_size`` so
``batch_size x concurrency x payload`` fits a worker heap (SURVEY.md §4).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..pdfcore.document import PdfDocument
from ..pdfcore.errors import PdfError
from ..pdfcore.gif import decode_gif, decode_gif_frames, encode_gif, encode_gif_animation
from ..pdfcore.htmlextract import detect_charset, extract_outlinks
from ..pdfcore.mp3 import decode_mp3_meta, encode_mp3
from ..pdfcore.pdfbuild import build_text_pdf
from ..pdfcore.png import decode_png, encode_png
from ..pdfcore.textextract import CMapCache, extract_text
from ..pdfcore.wav import decode_wav_samples, encode_wav
from ..sources.synth import image_pixels, read_pages
from .extract_pipeline import actor_pool
from .textstats import documents_path

MAGIC = (
    (b"%PDF-", "application/pdf"),
    (b"GIF89a", "image/gif"),
    (b"GIF87a", "image/gif"),
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"PK\x03\x04", "application/zip"),
    (b"RIFF", "audio/wav"),
    (b"ID3", "audio/mpeg"),
)


def detect_mime(payload: bytes) -> str:
    for magic, mime in MAGIC:
        if payload.startswith(magic):
            return mime
    if payload[:1] == b"<" or payload.lstrip()[:1] == b"<":
        return "text/html"
    return "application/octet-stream"


def decode_stub(payload: bytes, mime: str) -> dict:
    """Decoder step: REAL for every mime this stage routes —
    image/jpeg, image/png, image/gif, audio/wav and audio/mpeg (the
    engine's own codecs — pdfcore/jpeg.py, png.py, gif.py, wav.py,
    mp3.py; no media libraries exist in this container; the mp3 arm is
    a frame-header metadata walk, not a sample decoder). Raises
    NotImplementedError (the stage's "not decodable" channel) on other
    mimes or corrupt media data."""
    if mime == "image/jpeg":
        from ..pdfcore.jpeg import JpegError, decode_jpeg

        try:
            w, h, n, px = decode_jpeg(payload)
        except JpegError as e:
            raise NotImplementedError(f"jpeg decode failed: {e}") from e
        return {
            "width": w,
            "height": h,
            "mean": sum(px[:256]) / (255.0 * min(len(px), 256)),
        }
    if mime == "image/png":
        from ..pdfcore.png import PngError, decode_png

        try:
            w, h, n, px = decode_png(payload)
        except PngError as e:
            raise NotImplementedError(f"png decode failed: {e}") from e
        return {
            "width": w,
            "height": h,
            "mean": sum(px[:256]) / (255.0 * min(len(px), 256)),
        }
    if mime == "image/gif":
        from ..pdfcore.gif import GifError, decode_gif

        try:
            w, h, palette, idx = decode_gif(payload)
        except GifError as e:
            raise NotImplementedError(f"gif decode failed: {e}") from e
        return {
            "width": w,
            "height": h,
            "mean": sum(idx[:256]) / (255.0 * min(len(idx), 256)),
        }
    if mime == "audio/wav":
        from ..pdfcore.wav import WavError, decode_wav_samples

        try:
            rate, ch, _width, vals = decode_wav_samples(payload)
        except WavError as e:
            raise NotImplementedError(f"wav decode failed: {e}") from e
        # generic media-meta mapping: width=frames, height=channels,
        # mean = normalized mean absolute amplitude
        n_frames = len(vals) // ch if ch else 0
        amp = sum(abs(v) for v in vals[:4096]) / (
            32768.0 * max(1, min(len(vals), 4096))
        )
        return {"width": n_frames, "height": ch, "mean": amp}
    if mime == "audio/mpeg":
        from ..pdfcore.mp3 import Mp3Error, decode_mp3_meta

        try:
            meta = decode_mp3_meta(payload)
        except Mp3Error as e:
            raise NotImplementedError(f"mp3 decode failed: {e}") from e
        # generic media-meta mapping: width=frames, height=channels,
        # mean = duration as a fraction of a minute (capped)
        return {
            "width": meta["n_frames"],
            "height": meta["channels"],
            "mean": min(1.0, meta["duration_ms"] / 60000.0),
        }
    raise NotImplementedError(f"no decoder for {mime}")


class RowStage:
    """Actor stage running one row function over a batch.

    ``fn(row, cache)`` yields zero or more output row dicts for each
    input row; ``cache`` is a CMapCache that lives as long as the actor
    (the warm CMap cache of ``encrypted_text_row``)."""

    def __init__(self, fn, schema: pa.Schema):
        self.fn = fn
        self.schema = schema
        self.cache = CMapCache()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [out for row in batch.to_pylist() for out in self.fn(row, self.cache)]
        return pa.Table.from_pylist(rows, schema=self.schema)


def _map_rows(sf_dir: str, columns: list[str], fn, schema: pa.Schema, batch_size: int):
    """Read only ``columns`` and run ``fn`` per row in an actor pool.

    The ``html`` payload exists only in the synthesized pages table;
    every other stage reads ``documents.parquet``."""
    import ray.data

    if "html" in columns:
        ds = read_pages(sf_dir, columns=columns)
    else:
        ds = ray.data.read_parquet(documents_path(sf_dir), columns=columns)
    return ds.map_batches(
        RowStage,
        fn_constructor_args=(fn, schema),
        batch_format="pyarrow",
        batch_size=batch_size,
        **actor_pool(),
    )


I64 = pa.int64()
STR = pa.string()

# identity-gray GIF palette: index i -> RGB(i, i, i)
GRAY_PALETTE = bytes(v for i in range(256) for v in (i, i, i))


MEDIA_META_SCHEMA = pa.schema(
    [("url", STR), ("mime", STR), ("payload_bytes", I64), ("sha256", STR),
     ("decoded", pa.bool_()), ("width", pa.int32()), ("height", pa.int32())]
)


def media_meta_row(row: dict, cache: dict):
    """Binary payload -> typed metadata row."""
    p = row["html"] or b""
    mime = detect_mime(p)
    try:
        meta = decode_stub(p, mime)
        ok, w, h = True, meta["width"], meta["height"]
    except NotImplementedError:
        ok, w, h = False, 0, 0
    yield {
        "url": row["url"],
        "mime": mime,
        "payload_bytes": len(p),
        "sha256": hashlib.sha256(p).hexdigest(),
        "decoded": ok,
        "width": w,
        "height": h,
    }


def media_meta(sf_dir: str):
    """Media metadata over the synthetic pages table's binary column."""
    return _map_rows(sf_dir, ["url", "html"], media_meta_row, MEDIA_META_SCHEMA, 64)


PDF_IMAGE_STATS_SCHEMA = pa.schema(
    [("doc_id", I64), ("n_images", I64), ("img_w", I64), ("img_h", I64),
     ("rgb_ok", pa.bool_())]
)


def pdf_image_stats_row(row: dict, cache: dict):
    """Decode image XObjects of image-bearing pdf rows (V12-V17 incl.
    the SMask anti-join) and verify pixels in-engine.

    Emits one row per document that contains images: (doc_id, n_images,
    img_w, img_h, rgb_ok) where rgb_ok asserts the decoded RGB bytes
    equal the deterministic synthesis pixels.
    """
    payload = row["html"]
    if not payload or not payload.startswith(b"%PDF-"):
        return
    doc_id = int(row["url"].rsplit("/", 1)[1])
    try:
        doc = PdfDocument(payload)
        images = [
            img
            for page_images in doc.extract_images(list(range(1, len(doc.pages) + 1)))
            for img in page_images
        ]
    except PdfError:
        return
    if not images:
        return
    first = images[0]
    expected = image_pixels(doc_id, first["width"] * first["height"] * 3)
    if first["filter"] == "DCTDecode":
        # JPEG is lossy by construction; the engine encoder's
        # flat-quant roundtrip is bounded at +-2 per sample
        # (pinned in tests/test_jpeg.py)
        got = first["rgb"]
        ok = got is not None and len(got) == len(expected) and all(
            abs(a - b) <= 2 for a, b in zip(got, expected)
        )
    else:
        ok = first["rgb"] == expected
    yield {
        "doc_id": doc_id,
        "n_images": len(images),
        "img_w": first["width"],
        "img_h": first["height"],
        "rgb_ok": ok,
    }


def pdf_image_stats(sf_dir: str):
    """Image-extraction capability over the synthetic corpus."""
    return _map_rows(
        sf_dir, ["url", "html"], pdf_image_stats_row, PDF_IMAGE_STATS_SCHEMA, 128
    )


GIF_FRAME_STRIDE = 2
GIF_FRAME_SCHEMA = pa.schema(
    [("doc_id", I64), ("frame_idx", I64), ("n_frames", I64), ("sum_pixels", I64)]
)


def gif_frame_row(row: dict, cache: dict):
    """Video-style FRAME SAMPLING: each doc carries a deterministic
    multi-frame animated GIF (built by the engine's own encoder —
    pdfcore/gif.py encode_gif_animation, with NETSCAPE loop + per-frame
    Graphic Control Extensions); the stage DECODES every frame with the
    engine's decoder and keeps every ``GIF_FRAME_STRIDE``-th one,
    emitting integer pixel sums per sampled frame.

    This is the frame-sample arm of the multimodal mandate with a REAL
    codec roundtrip in the hot path: frame ``f`` of doc ``d`` is the
    8x8 index grid ``(7*d + 13*f + p) % 251`` (p = pixel index), whose
    pixel sum has the closed form ``64*a + 2016 - 251*max(0, a+63-250)``
    with ``a = (7*d + 13*f) % 251`` — what the DuckDB oracle restates.
    A wrong encoder, LZW coder, or frame walker breaks the sum."""
    d = row["doc_id"]
    n_frames = 2 + d % 4
    frames = [
        bytes((7 * d + 13 * f + p) % 251 for p in range(64))
        for f in range(n_frames)
    ]
    w, h, _pal, decoded = decode_gif_frames(
        encode_gif_animation(frames, 8, 8, GRAY_PALETTE)
    )
    if (w, h, len(decoded)) != (8, 8, n_frames):
        # explicit raise (assert strips under -O): a roundtrip
        # mismatch is codec corruption, never a data condition
        raise ValueError(f"gif roundtrip mismatch for doc {d}")
    for f in range(0, n_frames, GIF_FRAME_STRIDE):
        yield {"doc_id": d, "frame_idx": f, "n_frames": n_frames,
               "sum_pixels": sum(decoded[f])}


def gif_frame_sample(sf_dir: str):
    """Animated-GIF frame sampling over the documents table (only
    ``doc_id`` leaves the parquet — the payload is synthesized in the
    stage, so the read is maximally pruned)."""
    return _map_rows(sf_dir, ["doc_id"], gif_frame_row, GIF_FRAME_SCHEMA, 128)


AUDIO_META_SCHEMA = pa.schema(
    [("doc_id", I64), ("sample_rate", I64), ("n_channels", I64), ("n_frames", I64),
     ("duration_ms", I64), ("sum_abs", I64)]
)


def audio_meta_row(row: dict, cache: dict):
    """Audio decode over a MIXED audio column: docs with
    ``doc_id % 4 == 3`` carry a deterministic MPEG-1 Layer III stream
    (built + walked by the engine's own codec — pdfcore/mp3.py: ID3v2
    tag skip, per-frame header validation, padding-aware length
    arithmetic), every other doc a RIFF/WAVE PCM payload
    (pdfcore/wav.py), DECODED with the engine's parsers and
    summarized: sample rate, channel count, frame count, integer
    duration and an integer mass column (absolute-amplitude sum for
    WAV; walked stream bytes for MP3, where samples aren't decoded).

    Both payload families are closed-form, so the DuckDB oracle
    restates the full decode: WAV interleaved sample ``t`` of doc ``d``
    is ``((d*31 + t*17) % 65536) - 32768`` (generate_series); the MP3
    arm's frame length is ``144*br*1000//rate (+1 on odd frames)``
    with nf frames of 1152 samples. A wrong encoder field, chunk/frame
    walk, or length formula breaks the sums."""
    d = row["doc_id"]
    if d % 4 == 3:
        rate = (44100, 48000, 32000)[d % 3]
        ch = 1 + d % 2
        nf = 16 + d % 32
        br = (96, 128, 160, 192)[(d // 3) % 4]
        meta = decode_mp3_meta(encode_mp3(nf, br, rate, ch, seed=d))
        got = (meta["sample_rate"], meta["channels"], meta["n_frames"])
        if got != (rate, ch, nf):
            # explicit raise (not assert: stripped under -O and
            # an AssertionError would bypass the stage's error
            # semantics) — a roundtrip mismatch is codec
            # corruption, never a data condition
            raise ValueError(
                f"mp3 roundtrip mismatch for doc {d}: "
                f"{got} != {(rate, ch, nf)}"
            )
        yield {
            "doc_id": d,
            "sample_rate": meta["sample_rate"],
            "n_channels": meta["channels"],
            "n_frames": meta["n_frames"],
            "duration_ms": meta["duration_ms"],
            "sum_abs": meta["stream_bytes"],
        }
        return
    rate = 8000 + (d % 3) * 4000
    ch = 1 + d % 2
    n_frames = 64 + d % 64
    vals = [((d * 31 + t * 17) % 65536) - 32768 for t in range(n_frames * ch)]
    got_rate, got_ch, _w, got_vals = decode_wav_samples(encode_wav(vals, ch, rate))
    if (got_rate, got_ch, got_vals) != (rate, ch, vals):
        raise ValueError(f"wav roundtrip mismatch for doc {d}")
    yield {
        "doc_id": d,
        "sample_rate": got_rate,
        "n_channels": got_ch,
        "n_frames": len(got_vals) // got_ch,
        "duration_ms": len(got_vals) // got_ch * 1000 // got_rate,
        "sum_abs": sum(abs(v) for v in got_vals),
    }


def audio_meta(sf_dir: str):
    """Audio decode + metadata over the documents table (only
    ``doc_id`` leaves the parquet — the payload is synthesized in the
    stage, so the read is maximally pruned)."""
    return _map_rows(sf_dir, ["doc_id"], audio_meta_row, AUDIO_META_SCHEMA, 128)


MPEG_VERSIONS = ("1", "2", "2.5")
MPEG_RATES = {
    "1": (44100, 48000, 32000),
    "2": (22050, 24000, 16000),
    "2.5": (11025, 12000, 8000),
}
MPEG_BITRATES = (32, 64, 96, 128, 160)
AUDIO_META_EXT_SCHEMA = pa.schema(
    [("doc_id", I64), ("mpeg_version", STR), ("layer", I64), ("sample_rate", I64),
     ("n_channels", I64), ("n_frames", I64), ("duration_ms", I64),
     ("stream_bytes", I64)]
)


def audio_meta_ext_row(row: dict, cache: dict):
    """MPEG version/layer MATRIX decode: every doc carries a
    deterministic CBR stream cycling through MPEG-1/2/2.5 x Layer
    I/II/III (pdfcore/mp3.py full header walk: version-dependent
    sample-rate tables, layer-dependent frame-length and padding
    arithmetic — one BYTE for Layers II/III, one 4-byte SLOT for
    Layer I, halved Layer III frames for MPEG-2/2.5).

    Parameters are derived from doc_id so the DuckDB oracle can
    restate every output column as arithmetic; the bitrates used
    ({32, 64, 96, 128, 160} kbps) are deliberately the values present
    in ALL five ISO bitrate tables, so the oracle needs no table."""
    d = row["doc_id"]
    version = MPEG_VERSIONS[d % 3]
    layer = 1 + (d // 3) % 3
    rate = MPEG_RATES[version][(d // 9) % 3]
    ch = 1 + d % 2
    nf = 8 + d % 16
    br = MPEG_BITRATES[(d // 2) % 5]
    meta = decode_mp3_meta(
        encode_mp3(nf, br, rate, ch, seed=d, version=version, layer=layer)
    )
    got = (meta["version"], meta["layer"], meta["sample_rate"],
           meta["channels"], meta["n_frames"])
    if got != (version, layer, rate, ch, nf):
        raise ValueError(f"mpeg roundtrip mismatch for doc {d}: {got}")
    yield {
        "doc_id": d,
        "mpeg_version": version,
        "layer": layer,
        "sample_rate": rate,
        "n_channels": ch,
        "n_frames": nf,
        "duration_ms": meta["duration_ms"],
        "stream_bytes": meta["stream_bytes"],
    }


def audio_meta_ext(sf_dir: str):
    """MPEG-2/2.5 + Layer I/II/III metadata walk over the documents
    table (doc_id-only pruned read; payloads synthesized in-stage)."""
    return _map_rows(
        sf_dir, ["doc_id"], audio_meta_ext_row, AUDIO_META_EXT_SCHEMA, 128
    )


GIF_INTERLACED_SCHEMA = pa.schema(
    [("doc_id", I64), ("width", I64), ("height", I64), ("px_wsum", I64)]
)


def gif_interlaced_row(row: dict, cache: dict):
    """Interlaced-GIF decode: each doc's payload is encoded with the
    GIF89a four-pass interlace row order and decoded back through the
    de-interlacer. The output checksum is POSITION-WEIGHTED
    (``sum((p+1) * idx[p])``) so a wrong row-reassembly order changes
    the value — a plain pixel sum would pass regardless of row order."""
    d = row["doc_id"]
    w = 8 + d % 8
    h = 8 + d % 16
    idx = bytes((7 * d + 13 * p) % 256 for p in range(w * h))
    gw, gh, _pal, got = decode_gif(
        encode_gif(idx, w, h, GRAY_PALETTE, interlace=True)
    )
    if (gw, gh) != (w, h):
        raise ValueError(f"gif dims mismatch for doc {d}")
    yield {"doc_id": d, "width": w, "height": h,
           "px_wsum": sum((p + 1) * v for p, v in enumerate(got))}


def gif_interlaced_meta(sf_dir: str):
    """Interlaced-GIF decode + position-weighted checksum over the
    documents table (doc_id-only pruned read)."""
    return _map_rows(
        sf_dir, ["doc_id"], gif_interlaced_row, GIF_INTERLACED_SCHEMA, 128
    )


ENC_MODES = ("rc4-40", "rc4-128", "aesv2")
ENC_VARIANTS = ("tj", "tj_split", "hex", "cmap")
ENC_XREFS = ("classic", "stream", "objstm")
ENC_FILTERS = ("flate", "none", "lzw")
ENCRYPTED_TEXT_SCHEMA = pa.schema(
    [("doc_id", I64), ("text", STR), ("enc_mode", STR)]
)


def encrypted_text_row(row: dict, cache: dict):
    """Encrypted-PDF extraction: each doc's text is packaged as a
    standard-security-handler-encrypted PDF (RC4-40 / RC4-128 / AES-128
    cycling by doc_id, crossed with show-variant, transport-filter and
    xref-kind arms) and extracted back through the full pipeline —
    xref/trailer, /Encrypt handler authentication, per-object-key
    stream decryption, filter chain, content-stream tokenization.
    Output text must be byte-identical to the input (the oracle just
    reads documents.text back).

    ``cache`` is the actor's warm CMap cache, matching the main
    extract stage's shape."""
    d = row["doc_id"]
    mode = ENC_MODES[d % 3]
    pdf = build_text_pdf(
        row["text"].encode("utf-8"),
        show_variant=ENC_VARIANTS[(d // 3) % 4],
        stream_filter=ENC_FILTERS[(d // 12) % 3],
        xref_kind=ENC_XREFS[(d // 36) % 3],
        encrypt=mode,
    )
    got, _spans = extract_text(PdfDocument(pdf), cache)
    yield {"doc_id": d, "text": got.decode("utf-8"), "enc_mode": mode}


def extract_encrypted_text(sf_dir: str):
    """Standard-security-handler roundtrip over the documents table:
    encrypt -> parse -> authenticate -> decrypt -> extract, per doc."""
    return _map_rows(
        sf_dir, ["doc_id", "text"], encrypted_text_row, ENCRYPTED_TEXT_SCHEMA, 64
    )


CCITT_SCHEMA = pa.schema(
    [("doc_id", I64), ("width", I64), ("height", I64), ("ccitt_k", I64),
     ("n_black", I64), ("px_wsum", I64)]
)


def ccitt_image_row(row: dict, cache: dict):
    """CCITT image-XObject decode: each doc carries a PDF with a
    deterministic bilevel image encoded Group 4 (even doc_id) or
    Group 3 one-dimensional (odd), decoded back through the FULL
    document pipeline — xref, XObject collection, CCITTFaxDecode with
    /DecodeParms, 1-bit row unpack, gray->RGB assembly. Black count and
    a position-weighted checksum are doc_id arithmetic the oracle
    restates; the weighting makes a row-order or bit-order bug change
    the value."""
    d = row["doc_id"]
    w = 4 + d % 12
    h = 3 + d % 9
    k = -1 if d % 2 == 0 else 0
    px = bytes(0 if (d * 3 + i * 7) % 5 == 0 else 1 for i in range(w * h))
    pdf = build_text_pdf(
        "x",
        image={"width": w, "height": h, "pixels": px, "filter": "ccitt",
               "ccitt_k": k},
    )
    img = PdfDocument(pdf).extract_images([1])[0][0]
    if (img["width"], img["height"]) != (w, h):
        raise ValueError(f"ccitt dims mismatch for doc {d}")
    rgb = img["rgb"]
    bits = [1 if rgb[3 * i] else 0 for i in range(w * h)]
    yield {
        "doc_id": d,
        "width": w,
        "height": h,
        "ccitt_k": k,
        "n_black": sum(1 for b in bits if b == 0),
        "px_wsum": sum((i + 1) * b for i, b in enumerate(bits)),
    }


def pdf_ccitt_image_stats(sf_dir: str):
    """Group 3/4 CCITT image decode through the PDF pipeline, over the
    documents table (doc_id-only pruned read)."""
    return _map_rows(sf_dir, ["doc_id"], ccitt_image_row, CCITT_SCHEMA, 64)


THUMB = 8
THUMB_WEIGHTS = np.arange(1, THUMB * THUMB + 1).reshape(THUMB, THUMB)
RESIZE_SCHEMA = pa.schema(
    [("doc_id", I64), ("width", I64), ("height", I64), ("thumb_wsum", I64)]
)


def image_resize_row(row: dict, cache: dict):
    """Image RESIZE — the decode -> resize -> feature step of a
    multimodal curation pipeline, run with the repo's real from-spec
    PNG codec (no stubs). Each doc carries a deterministic greyscale
    gradient image (pixel(x, y) = (11*d + 3*x + 7*y) % 256 at
    w = 16 + d % 16, h = 16 + d % 8); the stage PNG-encodes it, decodes
    it back (the real work a crawl corpus would do), nearest-neighbor
    resizes to a fixed 8x8 thumbnail (src = (i*h)//8, (j*w)//8 — pure
    integer math so the oracle restates it), and emits the thumbnail's
    position-weighted checksum. Resize is vectorized numpy per image;
    batch_size is kept small because payloads are binary."""
    d = row["doc_id"]
    w = 16 + d % 16
    h = 16 + d % 8
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    px = ((11 * d + 3 * xs + 7 * ys) % 256).astype(np.uint8)
    gw, gh, ch, raw = decode_png(encode_png(px.tobytes(), w, h, channels=1))
    if (gw, gh, ch) != (w, h, 1):
        raise ValueError(f"png roundtrip mismatch for doc {d}")
    img = np.frombuffer(raw, np.uint8).reshape(h, w)
    sy = (np.arange(THUMB) * h) // THUMB
    sx = (np.arange(THUMB) * w) // THUMB
    thumb = img[np.ix_(sy, sx)].astype(np.int64)
    yield {"doc_id": d, "width": w, "height": h,
           "thumb_wsum": int((thumb * THUMB_WEIGHTS).sum())}


def image_resize_thumbs(sf_dir: str):
    """PNG decode + nearest-neighbor 8x8 thumbnail resize over the
    documents table (doc_id-only pruned read, actor pool)."""
    return _map_rows(sf_dir, ["doc_id"], image_resize_row, RESIZE_SCHEMA, 128)


OUTLINK_SCHEMA = pa.schema([("doc_id", I64), ("link_idx", I64), ("href", STR)])


def outlink_row(row: dict, cache: dict):
    """Outlink (link-graph) extraction: each doc carries a
    deterministic HTML page bearing 1 + d % 5 anchor links in mixed
    quoting styles plus decoy links inside a comment and a script
    block (which the real scanner must skip); the stage runs
    ``pdfcore.htmlextract.extract_outlinks`` and emits one row per
    link in document order — the crawl step that feeds
    ``link_pagerank``-class graph queries."""
    d = row["doc_id"]
    anchors = []
    for k in range(1 + d % 5):
        href = f"https://site{(d + k) % 97}.example/doc/{(d * 31 + k * 17) % 100000}"
        q = (d + k) % 3
        if q == 0:
            a = f'<a href="{href}">l{k}</a>'
        elif q == 1:
            a = f"<a href='{href}'>l{k}</a>"
        else:
            a = f"<a href={href}>l{k}</a>"
        anchors.append(a)
    page = (
        f"<html><head><title>d{d}</title>"
        "<script>var s = '<a href=\"https://decoy/script\">';</script>"
        "</head><body><!-- <a href=\"https://decoy/comment\"> -->"
        f"<nav>{anchors[0]}</nav><p>{''.join(anchors[1:])}</p>"
        "</body></html>"
    ).encode("utf-8")
    links = extract_outlinks(page)
    if len(links) != 1 + d % 5:
        raise ValueError(f"outlink count mismatch for doc {d}")
    for k, href in enumerate(links):
        yield {"doc_id": d, "link_idx": k, "href": href}


def html_outlinks(sf_dir: str):
    """Link-graph extraction over the documents table (doc_id-only
    pruned read, actor pool)."""
    return _map_rows(sf_dir, ["doc_id"], outlink_row, OUTLINK_SCHEMA, 128)


CHARSET_MODES = ("ascii", "utf-8", "utf-8-bom", "utf-16", "latin-1")
CHARSET_SCHEMA = pa.schema(
    [("doc_id", I64), ("charset", STR), ("payload_bytes", I64)]
)


def charset_row(row: dict, cache: dict):
    """Charset detection: each doc's text is packaged in one of five
    deterministic encodings (by doc_id % 5: plain ASCII, UTF-8 with a
    multibyte char appended, UTF-8 with BOM, UTF-16LE with BOM,
    latin-1 with a high byte appended) and sniffed back with
    ``pdfcore.htmlextract.detect_charset`` — the decode-decision step
    ahead of extraction. Emits the detected charset plus the payload
    byte size; both are restatable in SQL from the synthesis rule (the
    corpus text is pure ASCII, so char length == byte length)."""
    d, text = row["doc_id"], row["text"]
    mode = d % 5
    if mode == 0:
        payload = text.encode("ascii")
    elif mode == 1:
        payload = (text + "é").encode("utf-8")
    elif mode == 2:
        payload = b"\xef\xbb\xbf" + text.encode("utf-8")
    elif mode == 3:
        payload = b"\xff\xfe" + text.encode("utf-16-le")
    else:
        payload = text.encode("latin-1") + b"\xe9"
    got = detect_charset(payload)
    if got != CHARSET_MODES[mode]:
        raise ValueError(
            f"charset mismatch for doc {d}: {got} != {CHARSET_MODES[mode]}"
        )
    yield {"doc_id": d, "charset": got, "payload_bytes": len(payload)}


def charset_detect(sf_dir: str):
    """Charset sniffing over the documents table (columns-pruned
    read, actor pool)."""
    return _map_rows(sf_dir, ["doc_id", "text"], charset_row, CHARSET_SCHEMA, 256)
