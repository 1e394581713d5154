"""Recursive-descent parser for Mini-C.

The parser is deliberately forgiving: decompiler output (both from the
neural model and from the rule-based baselines) is frequently slightly
malformed, and the evaluation pipeline wants to classify those hypotheses as
"does not compile" rather than crash.  All syntactic problems are reported
by raising :class:`ParseError`.

Typedef names are tracked so that ``my_int x;`` parses as a declaration even
when ``my_int`` has no visible definition — this is what feeds the
type-inference engine.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.lexer import (
    Token,
    TokenKind,
    parse_float_literal,
    parse_int_literal,
    tokenize,
    unescape_string,
)


class ParseError(Exception):
    """Raised when the token stream is not a valid Mini-C program."""


_TYPE_KEYWORDS = {
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
    "const",
    "volatile",
    "restrict",
    "__restrict",
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.typedef_names: Set[str] = set(ct.BUILTIN_TYPEDEFS)
        self.struct_tags: Set[str] = set()

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _check_keyword(self, text: str) -> bool:
        return self._peek().is_keyword(text)

    def _accept_punct(self, text: str) -> bool:
        if self._check_punct(text):
            self._advance()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._check_keyword(text):
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise ParseError(
                f"expected {text!r} but found {token.text!r} at line {token.line}"
            )
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier but found {token.text!r} at line {token.line}"
            )
        return self._advance()

    # -- type parsing -------------------------------------------------------

    def _parse_type_specifier(self) -> ct.CType:
        """Parse a type specifier (no declarator part)."""
        # Skip qualifiers.
        while (
            self._peek().text
            in ("const", "volatile", "restrict", "__restrict", "inline")
            and self._peek().kind is TokenKind.KEYWORD
        ):
            self._advance()

        token = self._peek()
        if token.is_keyword("struct") or token.is_keyword("union"):
            self._advance()
            tag_token = self._peek()
            tag = ""
            if tag_token.kind is TokenKind.IDENT:
                tag = self._advance().text
            fields: List[ct.StructField] = []
            complete = False
            if self._check_punct("{"):
                self._advance()
                complete = True
                while not self._check_punct("}"):
                    ftype = self._parse_type_specifier()
                    while True:
                        fname, fulltype = self._parse_declarator(ftype)
                        fields.append(ct.StructField(fname, fulltype))
                        if not self._accept_punct(","):
                            break
                    self._expect_punct(";")
                self._expect_punct("}")
            if tag:
                self.struct_tags.add(tag)
            struct = ct.StructType(
                tag or f"__anon{id(token)}", fields, complete=complete
            )
            result: ct.CType = struct
        elif token.is_keyword("enum"):
            self._advance()
            if self._peek().kind is TokenKind.IDENT:
                self._advance()
            if self._check_punct("{"):
                self._advance()
                while not self._check_punct("}"):
                    self._advance()
                self._expect_punct("}")
            result = ct.INT
        elif token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            result = self._parse_basic_type()
        elif token.kind is TokenKind.IDENT and token.text in self.typedef_names:
            self._advance()
            builtin = ct.BUILTIN_TYPEDEFS.get(token.text)
            result = builtin if builtin is not None else ct.NamedType(token.text)
        elif token.kind is TokenKind.IDENT:
            # Unknown identifier in a type position: treat as a named type so
            # that hypothesis code with undeclared typedefs still parses.
            self._advance()
            result = ct.NamedType(token.text)
        else:
            raise ParseError(
                f"expected type but found {token.text!r} at line {token.line}"
            )

        while (
            self._peek().text in ("const", "volatile", "restrict", "__restrict")
            and self._peek().kind is TokenKind.KEYWORD
        ):
            self._advance()
        return result

    def _parse_basic_type(self) -> ct.CType:
        unsigned = False
        signed = False
        parts: List[str] = []
        while True:
            token = self._peek()
            if token.is_keyword("unsigned"):
                unsigned = True
                self._advance()
            elif token.is_keyword("signed"):
                signed = True
                self._advance()
            elif token.kind is TokenKind.KEYWORD and token.text in (
                "void",
                "char",
                "short",
                "int",
                "long",
                "float",
                "double",
            ):
                parts.append(token.text)
                self._advance()
            elif token.kind is TokenKind.KEYWORD and token.text in (
                "const", "volatile", "restrict", "__restrict"
            ):
                self._advance()
            else:
                break
        if not parts:
            if unsigned or signed:
                return ct.IntType("int", unsigned=unsigned)
            raise ParseError(f"malformed type near {self._peek().text!r}")
        if parts == ["void"]:
            return ct.VOID
        if "double" in parts:
            return ct.DOUBLE
        if "float" in parts:
            return ct.FLOAT
        if "char" in parts:
            return ct.IntType("char", unsigned=unsigned)
        if "short" in parts:
            return ct.IntType("short", unsigned=unsigned)
        if parts.count("long") >= 2:
            return ct.IntType("long long", unsigned=unsigned)
        if "long" in parts:
            return ct.IntType("long", unsigned=unsigned)
        return ct.IntType("int", unsigned=unsigned)

    def _parse_declarator(self, base: ct.CType) -> Tuple[str, ct.CType]:
        """Parse ``* name [N]...`` style declarators.  Returns (name, type)."""
        t = base
        while self._accept_punct("*"):
            while (
                self._peek().text in ("const", "volatile", "restrict", "__restrict")
                and self._peek().kind is TokenKind.KEYWORD
            ):
                self._advance()
            t = ct.PointerType(t)
        name = ""
        if self._peek().kind is TokenKind.IDENT:
            name = self._advance().text
        # Array suffixes (innermost last).
        lengths: List[Optional[int]] = []
        while self._accept_punct("["):
            if self._check_punct("]"):
                lengths.append(None)
            else:
                expr = self._parse_expression()
                lengths.append(_const_int(expr))
            self._expect_punct("]")
        for length in reversed(lengths):
            t = ct.ArrayType(t, length)
        return name, t

    # -- top level ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        decls: List[ast.Node] = []
        while self._peek().kind is not TokenKind.EOF:
            # Tolerate stray semicolons.
            if self._accept_punct(";"):
                continue
            decls.append(self._parse_top_level())
        return ast.Program(decls)

    def _parse_top_level(self) -> ast.Node:
        if self._check_keyword("typedef"):
            return self._parse_typedef()

        storage = None
        while (
            self._peek().text in ("static", "extern", "inline")
            and self._peek().kind is TokenKind.KEYWORD
        ):
            word = self._advance().text
            if word in ("static", "extern"):
                storage = word

        base = self._parse_type_specifier()

        # Bare "struct tag {...};" definition.
        if isinstance(base, ct.StructType) and self._check_punct(";"):
            self._advance()
            return ast.StructDecl(base.tag, [(f.name, f.type) for f in base.fields])

        name, full_type = self._parse_declarator(base)
        if not name:
            raise ParseError(f"expected declarator name near line {self._peek().line}")

        if self._check_punct("("):
            return self._parse_function_rest(name, full_type, storage)

        # Global variable declaration(s).
        return self._parse_global_var(name, full_type, base, storage)

    def _parse_typedef(self) -> ast.TypedefDecl:
        self._advance()  # typedef
        base = self._parse_type_specifier()
        name, full_type = self._parse_declarator(base)
        self._expect_punct(";")
        if not name:
            raise ParseError("typedef without a name")
        self.typedef_names.add(name)
        return ast.TypedefDecl(name, full_type)

    def _parse_function_rest(
        self, name: str, return_type: ct.CType, storage: Optional[str]
    ) -> ast.FunctionDef:
        self._expect_punct("(")
        params: List[ast.Param] = []
        variadic = False
        if not self._check_punct(")"):
            if self._check_keyword("void") and self._peek(1).is_punct(")"):
                self._advance()
            else:
                while True:
                    if self._check_punct("..."):
                        self._advance()
                        variadic = True
                        break
                    ptype_base = self._parse_type_specifier()
                    pname, ptype = self._parse_declarator(ptype_base)
                    params.append(ast.Param(pname, ptype))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return ast.FunctionDef(name, return_type, params, None, storage, variadic)
        body = self._parse_block()
        return ast.FunctionDef(name, return_type, params, body, storage, variadic)

    def _parse_global_var(
        self,
        first_name: str,
        first_type: ct.CType,
        base: ct.CType,
        storage: Optional[str],
    ) -> ast.Node:
        decls: List[ast.Declaration] = []
        name, full_type = first_name, first_type
        while True:
            init: Optional[ast.Node] = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            decls.append(ast.Declaration(name, full_type, init, storage))
            if not self._accept_punct(","):
                break
            name, full_type = self._parse_declarator(base)
        self._expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        # Represent multi-declarator lines as a block of declarations.
        return ast.Block(list(decls))

    # -- statements ---------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        self._expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not self._check_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block")
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Block(stmts)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_punct(";"):
            self._advance()
            return ast.EmptyStmt()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(value)
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.Break()
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.Continue()
        if self._at_declaration_start():
            return self._parse_local_declaration()
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr)

    def _at_declaration_start(self) -> bool:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS | {
            "static", "extern"
        }:
            return True
        if token.kind is TokenKind.IDENT and token.text in self.typedef_names:
            # Disambiguate "T x;" (decl) from "T = 3;" / "T(x);" (expr).
            nxt = self._peek(1)
            if nxt.kind is TokenKind.IDENT or nxt.is_punct("*"):
                return True
        return False

    def _parse_local_declaration(self) -> ast.Stmt:
        storage = None
        while (
            self._peek().text in ("static", "extern")
            and self._peek().kind is TokenKind.KEYWORD
        ):
            storage = self._advance().text
        base = self._parse_type_specifier()
        decls: List[ast.Stmt] = []
        while True:
            name, full_type = self._parse_declarator(base)
            if not name:
                raise ParseError(f"expected variable name at line {self._peek().line}")
            init: Optional[ast.Node] = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            decls.append(ast.Declaration(name, full_type, init, storage))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(decls)

    def _parse_initializer(self) -> ast.Node:
        if self._check_punct("{"):
            self._advance()
            items: List[ast.Node] = []
            while not self._check_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return ast.InitializerList(items)
        return self._parse_assignment_expr()

    def _parse_if(self) -> ast.If:
        self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self._parse_statement()
        return ast.If(cond, then, otherwise)

    def _parse_while(self) -> ast.While:
        self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.While(cond, body)

    def _parse_do_while(self) -> ast.DoWhile:
        self._advance()
        body = self._parse_statement()
        if not self._accept_keyword("while"):
            raise ParseError("expected 'while' after do-body")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body, cond)

    def _parse_for(self) -> ast.For:
        self._advance()
        self._expect_punct("(")
        init: Optional[ast.Node] = None
        if not self._check_punct(";"):
            if self._at_declaration_start():
                init = self._parse_local_declaration()
            else:
                expr = self._parse_expression()
                self._expect_punct(";")
                init = ast.ExprStmt(expr)
        else:
            self._advance()
        cond = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(init, cond, step, body)

    # -- expressions (precedence climbing) ----------------------------------

    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment_expr()
        while self._accept_punct(","):
            right = self._parse_assignment_expr()
            expr = ast.BinaryOp(",", expr, right)
        return expr

    def _parse_assignment_expr(self) -> ast.Expr:
        left = self._parse_conditional()
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in _ASSIGN_OPS:
            op = self._advance().text
            value = self._parse_assignment_expr()
            return ast.Assignment(op, left, value)
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept_punct("?"):
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_assignment_expr()
            return ast.Conditional(cond, then, otherwise)
        return cond

    _BINARY_LEVELS: List[List[str]] = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while True:
            token = self._peek()
            if token.kind is TokenKind.PUNCT and token.text in ops:
                op = self._advance().text
                right = self._parse_binary(level + 1)
                left = ast.BinaryOp(op, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in (
            "-", "+", "!", "~", "*", "&"
        ):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(token.text, operand)
        if token.is_punct("++") or token.is_punct("--"):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(token.text, operand)
        if token.is_keyword("sizeof"):
            self._advance()
            if self._check_punct("(") and self._is_type_in_parens():
                self._advance()
                base = self._parse_type_specifier()
                _, full = self._parse_declarator(base)
                self._expect_punct(")")
                return ast.SizeOf(target_type=full)
            operand = self._parse_unary()
            return ast.SizeOf(operand=operand)
        if token.is_punct("(") and self._is_type_in_parens():
            self._advance()
            base = self._parse_type_specifier()
            _, full = self._parse_declarator(base)
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(full, operand)
        return self._parse_postfix()

    def _is_type_in_parens(self) -> bool:
        """Heuristically decide if the content after '(' is a type name."""
        token = self._peek(1)
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        if token.kind is TokenKind.IDENT and token.text in self.typedef_names:
            # "(T)" or "(T*)" are casts; "(T + x)" is an expression.
            nxt = self._peek(2)
            return nxt.is_punct(")") or nxt.is_punct("*")
        return False

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("("):
                self._advance()
                args: List[ast.Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(expr, args)
            elif token.is_punct("["):
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(expr, index)
            elif token.is_punct("."):
                self._advance()
                name = self._expect_ident().text
                expr = ast.Member(expr, name, arrow=False)
            elif token.is_punct("->"):
                self._advance()
                name = self._expect_ident().text
                expr = ast.Member(expr, name, arrow=True)
            elif token.is_punct("++") or token.is_punct("--"):
                self._advance()
                expr = ast.PostfixOp(token.text, expr)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLiteral(parse_int_literal(token.text), token.text)
        if token.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLiteral(parse_float_literal(token.text), token.text)
        if token.kind is TokenKind.CHAR_LIT:
            self._advance()
            text = unescape_string(token.text)
            value = ord(text[0]) if text else 0
            return ast.CharLiteral(value, token.text)
        if token.kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StringLiteral(unescape_string(token.text), token.text)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.Identifier(token.text)
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} at line {token.line}")


def _const_int(expr: ast.Expr) -> Optional[int]:
    """Evaluate a constant integer expression used as an array length."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.BinaryOp):
        left = _const_int(expr.left)
        right = _const_int(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": left + right,
                "-": left - right,
                "*": left * right,
                "/": left // right if right else 0,
                "%": left % right if right else 0,
                "<<": left << right,
                ">>": left >> right,
            }.get(expr.op)
        except (ValueError, OverflowError):
            return None
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _const_int(expr.operand)
        return None if inner is None else -inner
    return None


def parse_program(source: str) -> ast.Program:
    """Parse Mini-C ``source`` into an AST (convenience wrapper)."""
    return Parser(tokenize(source)).parse_program()
