"""Lexer for the Mini-C language.

The lexer converts a source string into a flat list of :class:`Token`
objects.  It understands the subset of C used throughout the reproduction:
identifiers, keywords, integer / floating point / character / string
literals, all the multi-character operators and punctuation, and both
``//`` and ``/* ... */`` comments (which are discarded, like ``#`` lines).

Design.  :func:`tokenize` is one pass of a single compiled master regex:
each alternative is a named group (whitespace, comments, identifiers,
numbers, literals, punctuation, and catch-alls for the three unterminated
forms and for a stray character), and the loop only dispatches on the
group that matched.  Line/column positions are tracked from the newlines
inside the whitespace, comment and literal matches.  Character classes
follow ``str.isalpha``/``str.isdigit``/``str.isalnum``, not ``\\w``/``\\d``
(a superscript two is a digit to ``isdigit`` but not to ``\\d``): ASCII
sources use an ASCII pattern; the first non-ASCII source compiles the
Unicode one, whose classes come from one scan of the code points.

Candidate scoring lexes each source several times (the cache digest, the
edit similarity and the parser), so ``tokenize`` keeps a small LRU memo of
its latest results, failures included.  The memo is bounded to a handful of
sources: those callers run back to back on one candidate.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import List, Pattern, Tuple, Union


class TokenKind(enum.Enum):
    """Classification of a lexical token."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int"
    FLOAT_LIT = "float"
    CHAR_LIT = "char"
    STRING_LIT = "string"
    PUNCT = "punct"
    EOF = "eof"


#: Keywords recognised by the Mini-C front end.
KEYWORDS = frozenset(
    {
        "void",
        "char",
        "short",
        "int",
        "long",
        "float",
        "double",
        "signed",
        "unsigned",
        "struct",
        "union",
        "enum",
        "typedef",
        "const",
        "static",
        "extern",
        "restrict",
        "__restrict",
        "volatile",
        "inline",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
        "sizeof",
        "switch",
        "case",
        "default",
        "goto",
    }
)

#: Multi-character punctuation, longest first so maximal munch works.
_PUNCTUATIONS = [
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]


class LexError(Exception):
    """Raised when the input contains a character sequence that is not Mini-C."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class Token:
    """A single lexical token.

    Attributes:
        kind: The token class.
        text: The exact source text of the token (escape sequences in string
            and character literals are *not* resolved here).
        line: 1-based source line.
        column: 1-based source column.

    Tokens compare and hash by their four fields.  They are shared between
    the callers of the :func:`tokenize` memo, so treat them as immutable.
    """

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: TokenKind, text: str, line: int = 0, column: int = 0) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def _fields(self) -> Tuple[TokenKind, str, int, int]:
        return (self.kind, self.text, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r})"


# ---------------------------------------------------------------------------
# The master regex
# ---------------------------------------------------------------------------


def _master(ident: str, digit: str) -> Pattern[str]:
    """The token pattern for one identifier / digit class pair.

    Alternatives sharing a first character keep the old scanner's
    precedence: comments before ``/``, hex before decimal, a number before
    ``.``, a terminated literal before its unterminated catch-all.
    """
    number = (
        rf"(?={digit}|\.{digit}){digit}*(?:\.(?!\.){digit}*)?"
        rf"(?:[eE][+-]?{digit}+)?[uUlLfF]*"
    )
    punct = "|".join(re.escape(p) for p in _PUNCTUATIONS)
    tokens = "|".join(
        [
            r"(?P<ws>[ \t\r\n]+)",
            rf"(?P<ident>{ident})",
            rf"(?P<punct>(?!/[/*]|\.{digit})(?:{punct}))",
            r"(?P<hex>0[xX][0-9a-fA-F]*(?P<suffix>[uUlLfF]*))",
            rf"(?P<number>{number})",
            # ``#`` lines (e.g. ``#include``) are skipped like comments: the
            # generator emits self-contained code, but decompiler output
            # occasionally includes them.
            r"(?P<line_comment>//[^\n]*|#[^\n]*)",
            r"(?P<block_comment>/\*[\s\S]*?\*/)",
            r"(?P<string>\"(?:[^\"\\]|\\[\s\S])*\")",
            r"(?P<char>'(?:[^'\\]|\\[\s\S])*')",
            r"(?P<open_comment>/\*)",
            r"(?P<open_string>\")",
            r"(?P<open_char>')",
            r"(?P<bad>[\s\S])",
        ]
    )
    # Blanks after a token ride along with it, halving the match count;
    # newlines stay in ``ws`` matches, which keep the line count.
    return re.compile(rf"(?:{tokens})[ \t\r]*")


_ASCII_MASTER = _master(r"[A-Za-z_][A-Za-z0-9_]*", "[0-9]")


def _char_class(chars: List[str]) -> str:
    """A regex character class matching exactly ``chars`` (sorted)."""
    ranges: List[List[int]] = []
    for code in map(ord, chars):
        if ranges and ranges[-1][1] == code - 1:
            ranges[-1][1] = code
        else:
            ranges.append([code, code])
    body = "".join(
        re.escape(chr(lo)) if lo == hi else f"{re.escape(chr(lo))}-{re.escape(chr(hi))}"
        for lo, hi in ranges
    )
    return f"[{body}]"


@functools.lru_cache(maxsize=None)
def _unicode_pattern() -> Pattern[str]:
    """The master regex with the ``str`` predicates' Unicode classes.

    ``\\w`` is exactly ``isalnum() or "_"`` and ``\\d`` is ``isdecimal()``,
    so only two exception sets are needed: the ``isdigit`` characters that
    are not decimal (superscripts, circled digits) and the word characters
    that are neither letters nor decimal digits (fractions, numerals).
    """
    digits: List[str] = []
    numerals: List[str] = []
    for char in map(chr, range(0x110000)):
        if char.isnumeric() and not char.isdecimal() and not char.isalpha():
            numerals.append(char)
            if char.isdigit():
                digits.append(char)
    return _master(rf"(?!{_char_class(numerals)})[^\W\d]\w*", rf"(?:\d|{_char_class(digits)})")


#: Groups whose match can span lines, with the token kind they produce.
_MULTILINE = {
    "ws": None,
    "block_comment": None,
    "string": TokenKind.STRING_LIT,
    "char": TokenKind.CHAR_LIT,
}
_WORD_KIND = {word: TokenKind.KEYWORD for word in KEYWORDS}
_FLOAT_MARKS = re.compile(r"[.eEfF]")


def _lex(source: str) -> List[Token]:
    """One pass of the master regex over ``source`` (no memo)."""
    pattern = _ASCII_MASTER if source.isascii() else _unicode_pattern()
    tokens: List[Token] = []
    append = tokens.append
    ident_kind = _WORD_KIND.get
    IDENT, PUNCT = TokenKind.IDENT, TokenKind.PUNCT
    INT_LIT, FLOAT_LIT = TokenKind.INT_LIT, TokenKind.FLOAT_LIT
    float_marks = _FLOAT_MARKS.search
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in pattern.finditer(source):
        group = match.lastgroup
        text = match[match.lastindex]
        start = match.start()
        if group == "ident":
            append(Token(ident_kind(text, IDENT), text, line, start - line_start + 1))
        elif group == "punct":
            append(Token(PUNCT, text, line, start - line_start + 1))
        elif group == "number":
            kind = FLOAT_LIT if float_marks(text) else INT_LIT
            append(Token(kind, text, line, start - line_start + 1))
        elif group in _MULTILINE:
            kind = _MULTILINE[group]
            if kind is not None:
                append(Token(kind, text, line, start - line_start + 1))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif group == "hex":
            suffix = match["suffix"]
            kind = FLOAT_LIT if "f" in suffix or "F" in suffix else INT_LIT
            append(Token(kind, text, line, start - line_start + 1))
        elif group == "line_comment":
            pass
        elif group == "open_comment":
            rest = source[start:]
            if "\n" in rest:
                line += rest.count("\n")
                line_start = start + rest.rindex("\n") + 1
            raise LexError("unterminated block comment", line, len(source) - line_start + 1)
        elif group == "open_string":
            raise LexError("unterminated string literal", line, start - line_start + 1)
        elif group == "open_char":
            raise LexError("unterminated character literal", line, start - line_start + 1)
        else:
            raise LexError(f"unexpected character {text!r}", line, start - line_start + 1)
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens


#: Sources kept by the :func:`tokenize` memo.  Scoring one candidate lexes
#: it three times in a row (parser, cache digest, similarity) next to its
#: reference, so a handful of entries catch every repeat; each entry holds
#: about 14 KB of tokens, so a larger memo only costs memory.
MEMO_SIZE = 8


@functools.lru_cache(maxsize=MEMO_SIZE)
def _lex_memo(source: str) -> Union[List[Token], Tuple[str, int, int]]:
    """:func:`_lex`'s tokens, or its failure as ``LexError`` arguments."""
    try:
        return _lex(source)
    except LexError as exc:
        return (exc.message, exc.line, exc.column)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` and return the full token list including EOF.

    Raises :class:`LexError` for input that is not Mini-C.  Results (and
    failures) of the last :data:`MEMO_SIZE` distinct sources are memoised;
    each call returns a fresh list over the shared tokens.
    """
    result = _lex_memo(source)
    if isinstance(result, tuple):
        raise LexError(*result)
    return list(result)


def parse_int_literal(text: str) -> int:
    """Parse a C integer literal's value (handles hex and suffixes)."""
    cleaned = text.rstrip("uUlL")
    if cleaned.lower().startswith("0x"):
        return int(cleaned, 16)
    if cleaned.startswith("0") and len(cleaned) > 1 and cleaned.isdigit():
        return int(cleaned, 8)
    return int(cleaned)


def parse_float_literal(text: str) -> float:
    """Parse a C floating point literal's value (drops suffixes)."""
    return float(text.rstrip("fFlL"))


_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}


def unescape_string(text: str) -> str:
    """Resolve escape sequences in the body of a string/char literal.

    ``text`` must include the surrounding quotes.
    """
    body = text[1:-1]
    out: List[str] = []
    index = 0
    while index < len(body):
        ch = body[index]
        if ch == "\\" and index + 1 < len(body):
            out.append(_ESCAPES.get(body[index + 1], body[index + 1]))
            index += 2
        else:
            out.append(ch)
            index += 1
    return "".join(out)
