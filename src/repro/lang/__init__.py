"""Mini-C language substrate.

This package provides the C-language infrastructure every other part of the
reproduction depends on:

* :mod:`repro.lang.lexer` — tokenisation of Mini-C source.
* :mod:`repro.lang.ast_nodes` — the abstract syntax tree.
* :mod:`repro.lang.parser` — a recursive-descent parser.
* :mod:`repro.lang.ctypes` — the C type system used by the checker, the
  compiler and the type-inference engine.
* :mod:`repro.lang.typecheck` — a semantic analyser that annotates the AST.
* :mod:`repro.lang.printer` — a pretty printer (AST → C source).
* :mod:`repro.lang.interpreter` — a behavioural interpreter used for the
  input/output equivalence checks.

The subset of C implemented here ("Mini-C") covers the constructs exercised
by the SLaDe evaluation: integer and floating point scalars, pointers,
arrays, structs, typedefs, global variables, the usual operators, control
flow (``if``/``while``/``for``/``break``/``continue``/``return``) and calls
to other functions including a small builtin libc.
"""

from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.parser import ParseError, Parser, parse_program
from repro.lang.printer import print_program
from repro.lang.typecheck import TypeChecker, TypeCheckError
from repro.lang.interpreter import Interpreter, RuntimeLimitExceeded, CInterpreterError

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "ParseError",
    "parse_program",
    "print_program",
    "TypeChecker",
    "TypeCheckError",
    "Interpreter",
    "RuntimeLimitExceeded",
    "CInterpreterError",
]
