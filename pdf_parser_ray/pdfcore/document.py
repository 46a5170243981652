"""Per-document model: resolver, page tree, streams, images.

Covers SURVEY.md §2.2 V9-V15 and §3.2/§3.3:

- ``PdfDocument(buf)`` mirrors PDF::new (/root/reference/src/lib.rs:26-54):
  header check -> trailer -> xref -> catalog -> page-tree DFS.
- ``resolve`` mirrors the adaptive-window resolver
  (src/object.rs:331-374): parse at the xref offset starting from a
  200-byte window, growing by 200 on lexer/unbalanced-obj failures.
  Two deliberate divergences, both contained: results are memoized per
  document (the reference re-reads + re-parses the same object on every
  access — e.g. /Length indirections), and growth is capped at the end
  of the buffer plus one round (the reference loops forever if e.g.
  ``endobj`` never appears).
- ``get_stream`` mirrors PdfStreamObj::get_stream (src/object.rs:527-566).
- Page-tree DFS mirrors src/page_tree.rs:32-133 including the page-number
  contiguity assertion; XObject collection mirrors :147-182 (all indirect
  ref values, no subtype filter at collect time). The text path
  additionally captures /Contents and /Resources per page (new design,
  mandated by BASELINE.json north_star; absent from the reference).
- Image params mirror src/image.rs:42-130 (DeviceRGB/DeviceGray,
  FlateDecode/DCTDecode only; BitsPerComponent/DecodeParms ignored).
"""

from __future__ import annotations

from . import xrefx
from .errors import (
    ObjectError,
    PageTreeError,
    PanicError,
    ParserError,
    TrailerError,
    XrefError,
)
from .filters import decode_stream, flate_decode
from .header import validate_pdf_header
from .objects import (
    OFF,
    TAG,
    VAL,
    assert_natural,
    assert_with_key,
    ensure_array,
    ensure_dict,
    ensure_dict_with_key,
    ensure_int,
    ensure_iobj,
    ensure_name,
    ensure_ref,
    ensure_stream,
    ensure_type,
    type_missmatch_error,
)
from .parser import Parser
from .trailer import parse_startxref, parse_trailer
from .xref import XRef


class Page:
    """src/page.rs:27-32 plus the text-path fields.

    ``inherited_resources``: nearest ancestor Pages node's /Resources
    (PDF 1.7 inheritance, Table 3.27). Used ONLY by the text path when
    the page has no own /Resources; the XObject collection keeps the
    reference's page-level-only behavior (parity)."""

    __slots__ = (
        "page_number",
        "thumbnail",
        "external_objects",
        "node_dict",
        "inherited_resources",
    )

    def __init__(self, page_number, thumbnail, external_objects, node_dict,
                 inherited_resources=None):
        self.page_number = page_number
        self.thumbnail = thumbnail
        self.external_objects = external_objects
        self.node_dict = node_dict
        self.inherited_resources = inherited_resources


class ImageParam:
    """src/image.rs:42-83 ImageDecodeParam."""

    __slots__ = ("width", "height", "colorspace", "filter", "bpc", "decode_parms")

    def __init__(self, width, height, colorspace, filter_, bpc=8,
                 decode_parms=None):
        self.width = width
        self.height = height
        self.colorspace = colorspace
        self.filter = filter_
        self.bpc = bpc
        self.decode_parms = decode_parms or {}


class PdfDocument:
    """One parsed document over an in-memory byte buffer."""

    def __init__(self, buf: bytes):
        if not isinstance(buf, bytes):
            buf = bytes(buf)
        self.buf = buf
        self.size = len(buf)
        self._obj_cache: dict[tuple[int, int], tuple] = {}
        self._objstm_cache: dict[int, object] = {}
        self.xref = None
        self._chain = None
        self.crypt = None
        self._stream_owner: dict[int, tuple[int, int]] = {}

        validate_pdf_header(buf)

        try:
            self.trailer = parse_trailer(buf, self.size)
        except TrailerError as e:
            if "trailer is not found" not in e.message:
                raise
            # no `trailer` keyword: xref-STREAM file (engine extension;
            # the reference fails here — SURVEY.md Q8)
            self.trailer = None
            start = parse_startxref(buf, self.size)
            self._chain = xrefx.XRefChain.load(self, start)
            if self._chain.root_ref is None:
                raise TrailerError("Root not found in xref stream chain") from None
            root_ref = self._chain.root_ref
        if self.trailer is not None:
            # classic: byte-exact reference path for the newest section
            self.xref = XRef(buf, self.trailer.xref_start_offset)
            root_ref = self.trailer.root_catalog_ref
            # /Prev or hybrid /XRefStm present -> build the extended
            # chain as FALLBACK only (reference-subset docs never use it)
            tdict = self.trailer.trailer_dict
            d = tdict[VAL] if tdict is not None else {}
            if "Prev" in d or "XRefStm" in d:
                self._chain = xrefx.XRefChain.load(
                    self, self.trailer.xref_start_offset
                )

        # standard security handler (/Encrypt): built BEFORE the root
        # resolve so every stream fetched from here on (content, CMaps,
        # ObjStm containers, images) decrypts transparently. XRef
        # streams stay plaintext per spec (chain load above ran with
        # crypt unset, and _is_unencrypted_stream guards re-reads).
        enc_obj, file_id0 = self._find_encrypt()
        if enc_obj is not None:
            from . import crypt as _crypt

            self.crypt = _crypt.handler_from_encrypt(
                enc_obj, file_id0, self.resolve
            )

        self.root_ref = root_ref
        root_obj = self.resolve(root_ref)
        root_inner = ensure_iobj(root_obj)[VAL]
        root_dict = ensure_dict_with_key(root_inner, ["Type", "Pages"])
        ensure_type(root_dict, "Catalog")

        pages_ref = ensure_ref(root_dict[VAL]["Pages"])
        self.pages = self._parse_page_list(pages_ref)

        # src/page_tree.rs:39-41 — DFS numbering asserted contiguous 1..N
        for i, page in enumerate(self.pages):
            if i + 1 != page.page_number:
                raise PageTreeError(
                    f"page numbering is not contiguous at position {i + 1}"
                )

    def _find_encrypt(self):
        """Locate /Encrypt + first /ID element across the classic
        trailer and (for xref-stream / incremental files) every chain
        section dict, newest first. Returns (encrypt dict object |
        None, id0 bytes)."""
        candidates = []
        if self.trailer is not None and self.trailer.trailer_dict is not None:
            candidates.append(self.trailer.trailer_dict[VAL])
        if self._chain is not None:
            candidates.extend(
                s.trailer_dict[VAL]
                for s in self._chain.sections
                if s.trailer_dict is not None
            )
        enc = None
        id0 = b""
        for d in candidates:
            if enc is None and "Encrypt" in d:
                enc = d["Encrypt"]
                if enc[TAG] == "ref":
                    enc = ensure_iobj(self.resolve(enc))[VAL]
            if not id0 and "ID" in d and d["ID"][TAG] == "array":
                first = d["ID"][VAL][0] if d["ID"][VAL] else None
                if first is not None and first[TAG] == "string":
                    id0 = first[VAL]
        return enc, id0

    # -- indirect-object resolution (V9) --

    def _lookup_entry(self, indirect_ref: tuple) -> tuple:
        """Unified xref lookup: reference-exact primary section first,
        extended chain (xrefx) as fallback / for modern files."""
        num, gen = indirect_ref[VAL]
        if self.xref is not None:
            try:
                return ("n", self.xref.get_byte_offset(indirect_ref), gen)
            except XrefError as e:
                if self._chain is not None and "not contained" in e.message:
                    return self._chain.lookup(num, gen)
                raise
        return self._chain.lookup(num, gen)

    def _objstm_get(self, stm_num: int, index: int) -> tuple:
        stm = self._objstm_cache.get(stm_num)
        if stm is None:
            container = self.resolve(("ref", (stm_num, 0), 0))
            stream = ensure_stream(container)
            d = ensure_dict_with_key(stream[VAL], ["N", "First"])
            n = ensure_int(d[VAL]["N"])[VAL]
            first = ensure_int(d[VAL]["First"])[VAL]
            stm = xrefx.ObjStm(self.get_stream_decoded(stream), n, first)
            self._objstm_cache[stm_num] = stm
        return stm.get(index)

    def resolve(self, indirect_ref: tuple) -> tuple:
        key = indirect_ref[VAL]
        cached = self._obj_cache.get(key)
        if cached is not None:
            return cached

        entry = self._lookup_entry(indirect_ref)
        if entry[0] == "z":
            # compressed object: bare object wrapped as iobj so callers
            # (page tree, catalog) see the same shape as file objects
            obj = ("iobj", self._objstm_get(entry[1], entry[2]), 0)
            self._obj_cache[key] = obj
            return obj
        offset = entry[1]
        # window start/growth are pure performance knobs: the lexer halts
        # at endobj/stream (Q11) so an over-large window is unobservable,
        # and an under-sized one retries to the same final state. 1024 +
        # doubling replaces the reference's 200+200 linear crawl.
        buf_size = 1024
        max_size = (self.size - offset) + 200
        while True:
            window = self.buf[offset : offset + buf_size]
            try:
                parser = Parser(window, offset)
            except ParserError as e:
                if e.kind in ("IndirectObjMissMatch", "Lexer") and buf_size <= max_size:
                    buf_size *= 2
                    continue
                raise
            obj = parser.parse()
            self._obj_cache[key] = obj
            if self.crypt is not None:
                # remember which object owns this stream's bytes: the
                # per-object decryption key needs (num, gen), which the
                # stream tuple itself does not carry
                inner = obj[VAL] if obj[TAG] == "iobj" else obj
                if inner[TAG] == "stream":
                    self._stream_owner[inner[OFF]] = key
            return obj

    # -- stream-body fetch (V10) --

    def get_stream_raw(self, stream_obj: tuple) -> bytes:
        """Undecoded stream bytes; mirrors src/object.rs:527-566.
        In an encrypted document the bytes are decrypted here — the
        single choke point ahead of every consumer (filter chain,
        image path, ObjStm) — except for XRef streams, which the spec
        keeps plaintext."""
        length = self._stream_length(stream_obj)
        start = stream_obj[OFF]
        data = self.buf[start : start + length]
        if len(data) != length:
            raise PanicError("cannot read all")
        if self.crypt is not None:
            owner = self._stream_owner.get(stream_obj[OFF])
            if owner is not None and not self._is_unencrypted_stream(stream_obj):
                data = self.crypt.decrypt(owner[0], owner[1], data)
        return data

    @staticmethod
    def _is_unencrypted_stream(stream_obj: tuple) -> bool:
        t = stream_obj[VAL][VAL].get("Type")
        return t is not None and t[TAG] == "name" and t[VAL] == "XRef"

    def _stream_length(self, stream_obj: tuple) -> int:
        length_obj = stream_obj[VAL][VAL]["Length"]
        if length_obj[TAG] == "int":
            length = length_obj[VAL]
        elif length_obj[TAG] == "ref":
            iobj = ensure_iobj(self.resolve(length_obj))
            length = ensure_int(iobj[VAL])[VAL]
        else:
            raise type_missmatch_error("int", length_obj[OFF])
        if length < 0:
            raise ObjectError(
                "stream object length is invalid", stream_obj[OFF]
            )
        return length

    def get_stream_decoded(self, stream_obj: tuple) -> bytes:
        """Raw bytes passed through the /Filter chain (text path)."""
        raw = self.get_stream_raw(stream_obj)
        names, parms = self._filter_chain(stream_obj[VAL])
        if not names:
            return raw
        return decode_stream(raw, names, parms)

    def _filter_chain(self, dict_obj: tuple):
        d = dict_obj[VAL]
        filt = d.get("Filter")
        if filt is None:
            return [], []
        if filt[TAG] == "ref":
            filt = ensure_iobj(self.resolve(filt))[VAL]
        if filt[TAG] == "name":
            names = [filt[VAL]]
        else:
            names = [ensure_name(el)[VAL] for el in ensure_array(filt)[VAL]]
        parms_obj = d.get("DecodeParms") or d.get("DP")
        parms: list[dict] = []
        if parms_obj is not None:
            plist = parms_obj[VAL] if parms_obj[TAG] == "array" else [parms_obj]
            for p in plist:
                if p[TAG] == "ref":
                    p = ensure_iobj(self.resolve(p))[VAL]
                if p[TAG] == "dict":
                    parms.append(
                        {k: v[VAL] for k, v in p[VAL].items() if v[TAG] in ("int", "bool")}
                    )
                else:
                    parms.append({})
        return names, parms

    # -- page tree (V11-V13) --

    def _parse_page_list(self, root_page_ref: tuple) -> list[Page]:
        root_obj = ensure_iobj(self.resolve(root_page_ref))[VAL]
        root_dict = ensure_dict_with_key(root_obj, ["Type", "Kids", "Count"])
        ensure_type(root_dict, "Pages")

        kids = ensure_array(root_dict[VAL]["Kids"])
        inherited = root_dict[VAL].get("Resources")
        page_list: list[Page] = []
        for kid in kids[VAL]:
            kid_ref = ensure_ref(kid)
            page_list.extend(
                self._parse_page_tree_node(kid_ref, len(page_list) + 1, inherited)
            )
        return page_list

    def _parse_page_tree_node(
        self, node_ref: tuple, start_page_number: int, inherited=None
    ) -> list[Page]:
        node_obj = ensure_iobj(self.resolve(node_ref))[VAL]
        node_dict = ensure_dict_with_key(node_obj, ["Type"])

        type_name = ensure_name(node_dict[VAL]["Type"])[VAL]
        if type_name == "Page":
            return [self._parse_page_node(node_dict, start_page_number, inherited)]
        if type_name == "Pages":
            node_dict = ensure_dict_with_key(node_obj, ["Kids", "Count"])
            kids = ensure_array(node_dict[VAL]["Kids"])
            inherited = node_dict[VAL].get("Resources") or inherited
            page_list: list[Page] = []
            for kid in kids[VAL]:
                kid_ref = ensure_ref(kid)
                page_list.extend(
                    self._parse_page_tree_node(
                        kid_ref, start_page_number + len(page_list), inherited
                    )
                )
            return page_list
        # src/page_tree.rs:129 panics "page nor pages"
        raise PanicError("page nor pages")

    def _parse_page_node(
        self, node_dict: tuple, page_number: int, inherited=None
    ) -> Page:
        external_objects = self._extract_external_objects(node_dict)
        thumb = node_dict[VAL].get("Thumb")
        thumbnail = ensure_ref(thumb) if thumb is not None else None
        return Page(
            page_number, thumbnail, external_objects, node_dict, inherited
        )

    def _extract_external_objects(self, node_dict: tuple) -> list[tuple]:
        """All indirect-ref values under Resources/XObject (V12)."""
        external: list[tuple] = []
        resources = node_dict[VAL].get("Resources")
        if resources is None:
            return external
        resource_dict = ensure_dict(resources)
        xobj = resource_dict[VAL].get("XObject")
        if xobj is None:
            return external
        if xobj[TAG] == "ref":
            xobj = ensure_iobj(self.resolve(xobj))[VAL]
        xobj_dict = ensure_dict(xobj)
        for value in xobj_dict[VAL].values():
            if value[TAG] == "ref":
                external.append(value)
        return external

    def get_page(self, page_number: int) -> Page:
        """1-based bounds-checked lookup (src/page_tree.rs:48-58)."""
        if page_number == 0 or len(self.pages) < page_number:
            raise PageTreeError(f"page `{page_number}` is not found")
        return self.pages[page_number - 1]

    @property
    def n_objects(self) -> int:
        # trailer /Size (classic; equals the subsection count for
        # reference-subset docs) or the chain /Size (modern files)
        if self.trailer is not None:
            return self.trailer.xref_entry_num
        return self._chain.size

    # -- images (V14-V17 / §3.3) --

    def _xobj_stream(self, xobj_ref: tuple) -> tuple:
        xobj = self.resolve(xobj_ref)
        stream = ensure_stream(xobj)
        self._assert_xobj_is_image(stream[VAL])
        return stream

    @staticmethod
    def _assert_xobj_is_image(xobj_dict: tuple) -> None:
        """src/page.rs:77-86 — panic if Subtype != Image."""
        assert_with_key(xobj_dict, ["Subtype"])
        subtype = ensure_name(xobj_dict[VAL]["Subtype"])
        if subtype[VAL] != "Image":
            raise PanicError("subtype is not image")

    def image_param(self, xobj_dict: tuple) -> ImageParam:
        """src/image.rs:48-130 — width/height/colorspace/filter extraction."""
        assert_with_key(xobj_dict, ["Subtype"])
        subtype = ensure_name(xobj_dict[VAL]["Subtype"])
        if subtype[VAL] != "Image":
            raise PanicError("subtype is not image")

        assert_with_key(xobj_dict, ["Width", "Height", "Filter"])
        width = ensure_int(xobj_dict[VAL]["Width"])
        height = ensure_int(xobj_dict[VAL]["Height"])
        assert_natural(width)
        assert_natural(height)

        assert_with_key(xobj_dict, ["ColorSpace"])
        cs_obj = xobj_dict[VAL]["ColorSpace"]
        if cs_obj[TAG] == "name":
            cs_name = cs_obj[VAL]
        else:
            cs_ref = ensure_ref(cs_obj)
            cs_iobj = ensure_iobj(self.resolve(cs_ref))
            cs_name = ensure_name(cs_iobj[VAL])[VAL]
        if cs_name not in ("DeviceRGB", "DeviceGray"):
            raise ObjectError("colorspace is not supportted", cs_obj[OFF])

        filt_obj = xobj_dict[VAL]["Filter"]
        if filt_obj[TAG] == "array":
            first = ensure_array(filt_obj)[VAL]
            if not first:
                raise ObjectError("filter is not supportted", filt_obj[OFF])
            filt_name = ensure_name(first[0])[VAL]
        else:
            filt_name = ensure_name(filt_obj)[VAL]
        # CCITTFaxDecode is an engine extension past the reference's
        # closed Flate+DCT enum (scanned-document corpora); 1 bit per
        # component, DeviceGray only
        if filt_name not in ("FlateDecode", "DCTDecode", "CCITTFaxDecode"):
            raise ObjectError("filter is not supportted", filt_obj[OFF])
        bpc = 8
        bpc_obj = xobj_dict[VAL].get("BitsPerComponent")
        if bpc_obj is not None and bpc_obj[TAG] == "int":
            bpc = bpc_obj[VAL]
        parms = {}
        if filt_name == "CCITTFaxDecode":
            if bpc != 1 or cs_name != "DeviceGray":
                raise ObjectError(
                    "CCITT images must be 1-bit DeviceGray", filt_obj[OFF]
                )
            _names, plist = self._filter_chain(xobj_dict)
            parms = plist[0] if plist else {}

        return ImageParam(
            width[VAL], height[VAL], cs_name, filt_name, bpc, parms
        )

    def extract_page_images(self, page: Page) -> list[dict]:
        """SMask anti-join then per-XObject decode (src/page.rs:51-74).

        Returns dicts ``{width, height, colorspace, filter, rgb}`` with
        ``rgb`` dense row-major RGB bytes — exact for FlateDecode,
        decoded via the engine's baseline JPEG codec for DCTDecode
        (pdfcore/jpeg.py; lossy by nature of the format).
        """
        smasks: list = []
        for xobj_ref in page.external_objects:
            stream = self._xobj_stream(xobj_ref)
            smask = stream[VAL][VAL].get("SMask")
            if smask is not None:
                smasks.append(ensure_ref(smask)[VAL])

        images = []
        for xobj_ref in page.external_objects:
            if xobj_ref[VAL] in smasks:
                continue
            stream = self._xobj_stream(xobj_ref)
            param = self.image_param(stream[VAL])
            raw = self.get_stream_raw(stream)
            if param.filter == "FlateDecode":
                decoded = flate_decode(raw)
            elif param.filter == "CCITTFaxDecode":
                from .ccitt import ccitt_decode

                p = param.decode_parms
                decoded = ccitt_decode(
                    raw,
                    k=int(p.get("K", 0)),
                    columns=int(p.get("Columns", 1728)),
                    rows=int(p.get("Rows", 0)) or param.height,
                    black_is_1=bool(p.get("BlackIs1", False)),
                )
            else:  # DCTDecode via the engine's baseline JPEG decoder
                from .filters import dct_decode

                decoded = dct_decode(raw)
            rgb = self._assemble_rgb(param, decoded)
            images.append(
                {
                    "width": param.width,
                    "height": param.height,
                    "colorspace": param.colorspace,
                    "filter": param.filter,
                    "rgb": rgb,
                }
            )
        return images

    @staticmethod
    def _assemble_rgb(param: ImageParam, decoded: bytes) -> bytes:
        """src/image.rs:146-161 — gray expands to RGB; size mismatch
        panics. 1-bit rows (CCITT) unpack MSB-first with byte-aligned
        row padding: 0 = black, 1 = white (BlackIs1 already applied by
        the filter)."""
        if param.bpc == 1:
            stride = (param.width + 7) // 8
            if len(decoded) != stride * param.height:
                raise PanicError("image buffer size mismatch")
            out = bytearray()
            for r in range(param.height):
                base = r * stride
                for c in range(param.width):
                    bit = decoded[base + (c >> 3)] & (0x80 >> (c & 7))
                    v = 0xFF if bit else 0x00
                    out += bytes((v, v, v))
            return bytes(out)
        expected = param.width * param.height * (3 if param.colorspace == "DeviceRGB" else 1)
        if len(decoded) != expected:
            raise PanicError("image buffer size mismatch")
        if param.colorspace == "DeviceRGB":
            return decoded
        return bytes(b for px in decoded for b in (px, px, px))

    def extract_images(self, request_pages: list[int]) -> list[list[dict]]:
        """PDF::extract_image equivalent (src/lib.rs:60-72)."""
        return [
            self.extract_page_images(self.get_page(n)) for n in request_pages
        ]
