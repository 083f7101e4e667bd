"""Coefficient expression grammar for system-definition documents.

Accepted: integers, parameter identifiers, ``+ - * / ^`` with nonnegative
integer exponents, parentheses, and ``sqrt(...)`` of a float.  The parser is
the evaluator: ``evaluate`` returns the value of a string as it reads it, in
any number type; the caller supplies the parameter values and the conversion
of integer literals.  A system document runs it at its bound values, in
Fractions, jets or floats (``polysys.parse_system``); ``eval_exact`` runs it
in the exact fraction field over the parameters.  Sums and products may have
any length; signs, parentheses and ``sqrt`` nest at most ``MAX_DEPTH`` deep.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import RegionUndefined, SchemaError, abridged
from .paramfield import MAX_DIGITS, ParamExpr

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")
# the deepest a coefficient may nest, in signs, parentheses and sqrt, so that
# the recursive parser does not come near the interpreter's recursion limit
MAX_DEPTH = 100


def _tokenize(text, quoted):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not m.group(0).strip():
            break
        pos = m.end()
        if m.group(1) is not None:
            if len(m.group(1)) > MAX_DIGITS:
                raise SchemaError(
                    f"integer literal {abridged(m.group(1))} has more than {MAX_DIGITS} digits"
                )
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            ch = m.group(3)
            if ch.strip() == "":
                continue
            if ch not in "+-*/^()":
                raise SchemaError(f"unexpected character {ch!r} in {quoted}")
            tokens.append((ch, ch))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent whose rules return the value of what they read."""

    def __init__(self, text, scope, literal):
        self.quoted = abridged(repr(text))  # the text as messages quote it
        self.tokens = _tokenize(text, self.quoted)
        self.pos = 0
        self.nesting = 0
        self.scope = scope
        self.literal = literal

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SchemaError(f"expected {kind!r} in {self.quoted}, got {tok[0]!r}")
        return tok

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op, rhs = self.next()[0], self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op, rhs = self.next()[0], self.factor()
            if op == "/" and not rhs:
                raise SchemaError("division by zero in coefficient expression (a pole)")
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise SchemaError(f"coefficient expression nested deeper than {MAX_DEPTH} levels")
        if self.peek() in ("-", "+"):
            value = self.factor() if self.next()[0] == "+" else -self.factor()
        else:
            value = self.atom()
            if self.peek() == "^":
                self.next()
                if self.peek() == "-":
                    raise SchemaError(f"negative exponent in {self.quoted}")
                exponent = self.expect("int")[1]
                try:
                    value = value**exponent
                except OverflowError as exc:
                    raise RegionUndefined("a coefficient does not fit a float") from exc
        self.nesting -= 1
        return value

    def atom(self):
        kind, value = self.next()
        if kind == "int":
            return self.literal(Fraction(value))
        if kind == "name" and value == "sqrt":
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            if not isinstance(arg, float):
                raise SchemaError("sqrt(...) requires the float backend")
            if arg < 0:
                raise SchemaError("sqrt of a negative value in coefficient")
            return math.sqrt(arg)
        if kind == "name":
            if value not in self.scope:
                raise SchemaError(f"unknown parameter {abridged(repr(value))}")
            return self.scope[value]
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise SchemaError(f"unexpected token {kind!r} in {self.quoted}")


def evaluate(text, scope, literal):
    """The value of the grammar string ``text``: ``scope`` maps each
    parameter name to its value and ``literal`` converts the Fraction of an
    integer literal.  ``sqrt`` takes only a float argument, so it is refused
    in exact arithmetic; a float power that overflows is RegionUndefined."""
    parser = _Parser(str(text), scope, literal)
    value = parser.expr()
    if parser.peek() != "end":
        raise SchemaError(f"trailing input in {parser.quoted}")
    return value


def eval_exact(text, params) -> ParamExpr | Fraction:
    """``text`` in the exact fraction field over ``params``; a Fraction
    where it names no parameter."""
    return evaluate(text, {p: ParamExpr.var(params, p) for p in params}, Fraction)
