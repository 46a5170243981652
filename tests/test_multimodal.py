"""Output schemas of the multimodal row stages.

The oracle harness compares values with ``check_dtype=False`` and
casts integer columns, so a width change (int32 -> int64) or a string
type change (string -> large_string) would pass it unseen; these
literals pin names, column order and Arrow types on a small batch and
on an empty one."""

import pyarrow as pa
import pytest

from pdf_parser_ray.pipelines import multimodal as mm
from pdf_parser_ray.sources.synth import synth_batch

# doc 0 is an image-bearing pdf, doc 1 html, docs 2 and 5 junk/GIF
DOCS = pa.table(
    {
        "doc_id": pa.array([0, 1, 2, 3, 5, 15], pa.int64()),
        "text": ["alpha beta gamma delta"] * 6,
        "lang": ["en"] * 6,
    }
)
PAGES = synth_batch(DOCS)

I64, STR = "int64", "string"
CASES = [
    (mm.media_meta_row, mm.MEDIA_META_SCHEMA, ["url", "html"],
     [("url", STR), ("mime", STR), ("payload_bytes", I64), ("sha256", STR),
      ("decoded", "bool"), ("width", "int32"), ("height", "int32")]),
    (mm.pdf_image_stats_row, mm.PDF_IMAGE_STATS_SCHEMA, ["url", "html"],
     [("doc_id", I64), ("n_images", I64), ("img_w", I64), ("img_h", I64),
      ("rgb_ok", "bool")]),
    (mm.gif_frame_row, mm.GIF_FRAME_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("frame_idx", I64), ("n_frames", I64), ("sum_pixels", I64)]),
    (mm.audio_meta_row, mm.AUDIO_META_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("sample_rate", I64), ("n_channels", I64),
      ("n_frames", I64), ("duration_ms", I64), ("sum_abs", I64)]),
    (mm.audio_meta_ext_row, mm.AUDIO_META_EXT_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("mpeg_version", STR), ("layer", I64), ("sample_rate", I64),
      ("n_channels", I64), ("n_frames", I64), ("duration_ms", I64),
      ("stream_bytes", I64)]),
    (mm.gif_interlaced_row, mm.GIF_INTERLACED_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("width", I64), ("height", I64), ("px_wsum", I64)]),
    (mm.encrypted_text_row, mm.ENCRYPTED_TEXT_SCHEMA, ["doc_id", "text"],
     [("doc_id", I64), ("text", STR), ("enc_mode", STR)]),
    (mm.ccitt_image_row, mm.CCITT_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("width", I64), ("height", I64), ("ccitt_k", I64),
      ("n_black", I64), ("px_wsum", I64)]),
    (mm.image_resize_row, mm.RESIZE_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("width", I64), ("height", I64), ("thumb_wsum", I64)]),
    (mm.outlink_row, mm.OUTLINK_SCHEMA, ["doc_id"],
     [("doc_id", I64), ("link_idx", I64), ("href", STR)]),
    (mm.charset_row, mm.CHARSET_SCHEMA, ["doc_id", "text"],
     [("doc_id", I64), ("charset", STR), ("payload_bytes", I64)]),
]


@pytest.mark.parametrize(
    "fn,schema,columns,expected", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_row_stage_output_schema_pinned(fn, schema, columns, expected):
    stage = mm.RowStage(fn, schema)
    batch = (PAGES if "html" in columns else DOCS).select(columns)
    out = stage(batch)
    assert out.num_rows > 0
    for t in (out, stage(batch.slice(0, 0))):
        assert [(f.name, str(f.type)) for f in t.schema] == expected
