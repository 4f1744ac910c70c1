"""Minimal arithmetic-expression grammar for user-supplied profile functions.

Grammar (conventional precedence, ``^`` is right-associative power):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'r' | 'mu' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sqrt' | 'sin' | 'cos' | 'sinh' | 'cosh' | 'exp'

Expressions are compiled to plain Python closures over ``(r, mu)``.  numpy
ufuncs are used for the functions so compiled expressions accept both scalars
and arrays.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidParameterError

_FUNCS = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
          "exp": np.exp}
_VARS = ("r", "mu")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise InvalidParameterError(
                f"bad character in expression at position {pos}: {text[pos:]!r}"
            )
        if match.group("num") is not None:
            tokens.append(("num", match.group("num")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise InvalidParameterError(f"expected {op!r} in expression {self.source!r}")

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise InvalidParameterError(
                f"trailing tokens in expression {self.source!r}: {self.tokens[self.pos:]}"
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = self._binary(op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            node = self._binary(op, node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda r, mu: -inner(r, mu)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.factor()
            return lambda r, mu: base(r, mu) ** exponent(r, mu)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            const = float(val)
            return lambda r, mu: const
        if kind == "name":
            if val in _FUNCS:
                fn = _FUNCS[val]
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return lambda r, mu: fn(inner(r, mu))
            if val == "r":
                return lambda r, mu: r
            if val == "mu":
                return lambda r, mu: mu
            raise InvalidParameterError(
                f"unknown name {val!r} in expression {self.source!r}; "
                f"allowed: {', '.join(_VARS)}, {', '.join(_FUNCS)}"
            )
        if (kind, val) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise InvalidParameterError(f"unexpected token {val!r} in expression {self.source!r}")

    @staticmethod
    def _binary(op, lhs, rhs):
        if op == "+":
            return lambda r, mu: lhs(r, mu) + rhs(r, mu)
        if op == "-":
            return lambda r, mu: lhs(r, mu) - rhs(r, mu)
        if op == "*":
            return lambda r, mu: lhs(r, mu) * rhs(r, mu)
        return lambda r, mu: lhs(r, mu) / rhs(r, mu)


def compile_expression(text: str):
    """Compile an expression string to a callable ``f(r, mu) -> float``."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidParameterError("expression must be a non-empty string")
    return _Parser(_tokenize(text), text).parse()
