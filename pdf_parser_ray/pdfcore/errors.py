"""Positioned, per-row-containable errors for the PDF byte core.

The reference (/root/reference) models errors as per-module enums carrying
a byte offset (src/lexer/error.rs, src/parser/error.rs, src/trailer/error.rs,
src/cross_reference.rs:8-49, src/object.rs:10-58) and *panics* on several
"unsupported" paths (e.g. free xref entries, src/cross_reference.rs:162-164).

In this engine no document may kill a job: every error — including each
reference panic site — is an exception below, caught at the row boundary
and emitted as ``ok=false, error="<stage>: <message>"`` columns
(SURVEY.md §1.2). Message text mirrors the reference's Display impls so
behavior stays comparable.
"""

from __future__ import annotations


class PdfError(Exception):
    """Base class; ``stage`` names the pipeline stage for the error column."""

    stage = "pdf"

    def __init__(self, message: str, byte_offset: int | None = None):
        self.byte_offset = byte_offset
        self.message = message
        super().__init__(message)

    def describe(self) -> str:
        if self.byte_offset is None:
            return f"{self.stage}: {self.message}"
        return f"{self.stage}: {self.message} at byte offset `{self.byte_offset}`"


class PanicError(PdfError):
    """A site where the reference panics (process abort); here a row error."""

    stage = "panic"


class LexerError(PdfError):
    """Mirrors src/lexer/error.rs ErrorKind; kind is one of KINDS."""

    stage = "lexer"

    # kind -> reference Display text (src/lexer/error.rs:15-31)
    KINDS = {
        "UnexpectedByte": "encounter unexpected byte",
        "UndefinedKeyword": "encounter undefined keyword",
        "FinishInObject": "buffer terminated in object",
        "ConfirmStream": "buffer terminated without confirming whether stream object",
        "ParseNumber": "cannot parse as number",
        "ParseName": "cannot parse as name",
        "ParseHexString": "cannot parse as hex string",
        "InvalidIndirectRef": "encounter invalid indirect reference",
    }

    def __init__(self, kind: str, byte_offset: int):
        self.kind = kind
        super().__init__(self.KINDS[kind], byte_offset)


class ParserError(PdfError):
    """Mirrors src/parser/error.rs ErrorKind."""

    stage = "parser"

    KINDS = {
        "NoToken": "token is missing",
        "IndirectObjMissMatch": "keyword obj and endobj is not matched",
        "UnexpectedToken": "unexpected token found",
        "InvalidStreamObj": "invalid stream object",
        # engine extension: parser.MAX_NESTING bounds container nesting
        "TooDeep": "objects nested too deep",
    }

    def __init__(self, kind: str, byte_offset: int, inner: LexerError | None = None):
        self.kind = kind
        self.inner = inner
        if kind == "Lexer":
            # src/parser/error.rs Display: "cannot tokenize: <lexer error>"
            super().__init__(f"cannot tokenize: {inner.describe()}", byte_offset)
        else:
            super().__init__(self.KINDS[kind], byte_offset)


class ObjectError(PdfError):
    """Mirrors src/object.rs ErrorKind (type ensures / dict asserts)."""

    stage = "object"


class HeaderError(PdfError):
    """src/header.rs — invalid %PDF-x.y header."""

    stage = "header"


class TrailerError(PdfError):
    """src/trailer/error.rs — EOF / trailer / startxref resolution."""

    stage = "trailer"


class XrefError(PdfError):
    """src/cross_reference.rs:8-49 — xref table load / entry lookup."""

    stage = "xref"


class PageTreeError(PdfError):
    """src/page_tree.rs:7-24 — page-tree walk."""

    stage = "page_tree"


class FilterError(PdfError):
    """Stream filter (FlateDecode / LZWDecode / DCTDecode) failures."""

    stage = "filter"


class TextExtractError(PdfError):
    """Content-stream tokenization / CMap mapping failures (text path)."""

    stage = "text"


class EncryptionError(PdfError):
    """Standard-security-handler failures (ISO 32000-1 §7.6): anything
    outside the supported profile (RC4-40/128, AES-128, empty user
    password) or a failed authentication. The reference has no
    encryption support at all, so its behavior on encrypted files is
    'error somewhere downstream'; this error names the stage."""

    stage = "encrypt"
