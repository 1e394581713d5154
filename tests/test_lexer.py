"""Conformance tests for the Mini-C lexer (``repro.lang.lexer``).

The lexer is a single master regex, and regex classes differ from the
``str`` predicates the language is defined by (``\\d`` is not
``isdigit``, ``\\w`` is not ``isalpha``).  These tests pin its output —
every token's ``(kind, text, line, column)``, or the ``LexError`` message —
over a seeded corpus, to a digest recorded from the character-by-character
scanner it replaced, and spell out the traps case by case.
"""

import hashlib
import itertools
import json
import random

import pytest

from repro.eval.mutate import repair_neighbors
from repro.lang import lexer
from repro.lang.lexer import LexError, Token, TokenKind, tokenize
from repro.testing.generator import ProgramGenerator

#: sha256 of :func:`_corpus_dump` as produced by the scanner the master
#: regex replaced; any change to what the lexer returns changes it.
CORPUS_DIGEST = "5af1db47d890a5bbbe3d0820a6bd8df2c156550fdeb5e6d44c6037edcb58ff2f"

#: Characters and fragments spliced into generated sources: regex-class
#: traps (non-ASCII digits, letters and numerals), stray ASCII, literal
#: and comment openers, and number edge cases.
ODD = [
    *"\f\v\x00@$`\\#'\"/*.09eExXfuL_ \n\t\r",
    *"²é½Ⅳ五٣ª\xa0\U0001f600",
    *["..", "/*", "*/", "//", "0x", ".5e+3f", "1..2"],
]


def _corpus():
    """Generator cases, a sample of their repair neighbors, and seeded
    splices of :data:`ODD` into both."""
    sources = []
    for seed in range(40):
        case = ProgramGenerator(seed, max_stmts=8).generate()
        sources.append(case.source)
        stream = repair_neighbors(case.source, case.name)
        sources.extend(text for _, text in itertools.islice(stream, 0, 60, 6))
    rng = random.Random(2024)
    clean = list(sources)
    for _ in range(600):
        text = rng.choice(clean)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(ODD) + text[at:]
        sources.append(text)
    return sources


def _dump(source):
    try:
        return [[t.kind.value, t.text, t.line, t.column] for t in tokenize(source)]
    except LexError as exc:
        return str(exc)


def _corpus_dump():
    return json.dumps([_dump(source) for source in _corpus()])


def test_corpus_digest_matches_the_reference_scanner():
    digest = hashlib.sha256(_corpus_dump().encode("utf-8")).hexdigest()
    assert digest == CORPUS_DIGEST


def _tokens(source):
    return [(t.kind.value, t.text, t.line, t.column) for t in tokenize(source)]


@pytest.mark.parametrize(
    "source, expected",
    [
        # isdigit() is wider than \d: a superscript two starts a number.
        ("²", [("int", "²", 1, 1), ("eof", "", 1, 2)]),
        ("1²", [("int", "1²", 1, 1), ("eof", "", 1, 3)]),
        # isalnum() continues an identifier through it, isalpha() starts one.
        ("x²", [("ident", "x²", 1, 1), ("eof", "", 1, 3)]),
        ("五x", [("ident", "五x", 1, 1), ("eof", "", 1, 3)]),
        ("٣", [("int", "٣", 1, 1), ("eof", "", 1, 2)]),
        (
            "1..2",
            [("int", "1", 1, 1), ("punct", ".", 1, 2), ("float", ".2", 1, 3), ("eof", "", 1, 5)],
        ),
        ("...5", [("punct", "...", 1, 1), ("int", "5", 1, 4), ("eof", "", 1, 5)]),
        ("0x", [("int", "0x", 1, 1), ("eof", "", 1, 3)]),
        ("0xffu", [("int", "0xffu", 1, 1), ("eof", "", 1, 6)]),
        ("0x1lf", [("float", "0x1lf", 1, 1), ("eof", "", 1, 6)]),
        (".5e+3f", [("float", ".5e+3f", 1, 1), ("eof", "", 1, 7)]),
        (
            "1e+",
            [("int", "1", 1, 1), ("ident", "e", 1, 2), ("punct", "+", 1, 3), ("eof", "", 1, 4)],
        ),
        ("1.f", [("float", "1.f", 1, 1), ("eof", "", 1, 4)]),
        (
            "#include <stdio.h>\nint x;",
            [
                ("keyword", "int", 2, 1),
                ("ident", "x", 2, 5),
                ("punct", ";", 2, 6),
                ("eof", "", 2, 7),
            ],
        ),
        (
            "a /* x\n y */ b // c\n  #d\nz",
            [("ident", "a", 1, 1), ("ident", "b", 2, 7), ("ident", "z", 4, 1), ("eof", "", 4, 2)],
        ),
        ("'\\n' x", [("char", "'\\n'", 1, 1), ("ident", "x", 1, 6), ("eof", "", 1, 7)]),
        ('"s\\"" x', [("string", '"s\\""', 1, 1), ("ident", "x", 1, 7), ("eof", "", 1, 8)]),
        ('"a\nb" x', [("string", '"a\nb"', 1, 1), ("ident", "x", 2, 4), ("eof", "", 2, 5)]),
        (
            "a->b<<=c",
            [
                ("ident", "a", 1, 1),
                ("punct", "->", 1, 2),
                ("ident", "b", 1, 4),
                ("punct", "<<=", 1, 5),
                ("ident", "c", 1, 8),
                ("eof", "", 1, 9),
            ],
        ),
        ("", [("eof", "", 1, 1)]),
    ],
)
def test_regex_traps(source, expected):
    assert _tokens(source) == expected


@pytest.mark.parametrize(
    "source, message",
    [
        ("int\fx", "unexpected character '\\x0c' (line 1, column 4)"),
        ("½", "unexpected character '½' (line 1, column 1)"),
        ("x\n  @", "unexpected character '@' (line 2, column 3)"),
        # An unterminated comment is reported where the input ends ...
        ("int x; /* abc\n de", "unterminated block comment (line 2, column 4)"),
        ("/*/", "unterminated block comment (line 1, column 4)"),
        # ... an unterminated literal where it starts.
        ('x\n = "abc\ndef', "unterminated string literal (line 2, column 4)"),
        ('x = "ab\\', "unterminated string literal (line 1, column 5)"),
        ("c = 'a", "unterminated character literal (line 1, column 5)"),
    ],
)
def test_error_positions(source, message):
    with pytest.raises(LexError) as caught:
        tokenize(source)
    assert str(caught.value) == message


def test_memo_returns_fresh_lists_and_reraises_failures():
    source = "int f(int a) { return a + 1; }"
    first = tokenize(source)
    first.clear()
    assert tokenize(source) == tokenize(source) != []
    for _ in range(2):
        with pytest.raises(LexError, match="unexpected character '@'"):
            tokenize("int @;")


def test_memo_is_bounded():
    for index in range(3 * lexer.MEMO_SIZE):
        tokenize(f"int v{index};")
    assert lexer._lex_memo.cache_info().currsize == lexer.MEMO_SIZE


def test_token_equality_and_hashing():
    a = Token(TokenKind.IDENT, "x", 1, 2)
    assert a == Token(TokenKind.IDENT, "x", 1, 2)
    assert hash(a) == hash(Token(TokenKind.IDENT, "x", 1, 2))
    assert a != Token(TokenKind.IDENT, "x", 1, 3)
    assert a != (TokenKind.IDENT, "x", 1, 2)
    assert Token(TokenKind.PUNCT, "(").is_punct("(")
    assert Token(TokenKind.KEYWORD, "int").is_keyword("int")
    assert not Token(TokenKind.IDENT, "int").is_keyword("int")
