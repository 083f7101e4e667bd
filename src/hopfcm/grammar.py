"""Coefficient expression grammar for system-definition documents.

Accepted: integers, parameter identifiers, ``+ - * / ^`` with nonnegative
integer exponents, parentheses, and ``sqrt(...)`` of a float.  One
evaluator, ``evaluate``, runs a parsed string in any number type: the
caller supplies the parameter values and the conversion of integer
literals.  A system document runs it at its bound values, in Fractions,
jets or floats (``polysys.parse_system``); ``eval_exact`` runs it in the
exact fraction field over the parameters.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction

from .errors import RegionUndefined, SchemaError, abridged
from .paramfield import ParamExpr

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")
# the deepest a coefficient may nest, in signs, parentheses and sqrt while it
# is parsed and in operations once parsed, so that neither the recursive
# parser nor ``evaluate`` comes near the interpreter's recursion limit
MAX_DEPTH = 100


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not m.group(0).strip():
            break
        pos = m.end()
        if m.group(1) is not None:
            try:
                tokens.append(("int", int(m.group(1))))
            except ValueError:
                raise SchemaError(
                    f"integer literal {abridged(m.group(1))} has more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            ch = m.group(3)
            if ch.strip() == "":
                continue
            if ch not in "+-*/^()":
                raise SchemaError(f"unexpected character {ch!r} in {text!r}")
            tokens.append((ch, ch))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SchemaError(f"expected {kind!r} in {self.text!r}, got {tok[0]!r}")
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() != "end":
            raise SchemaError(f"trailing input in {self.text!r}")
        if _depth(node) > MAX_DEPTH:
            raise SchemaError(f"coefficient expression deeper than {MAX_DEPTH} operations")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = (("add" if op == "+" else "sub"), node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            node = (("mul" if op == "*" else "div"), node, rhs)
        return node

    def factor(self):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise SchemaError(f"coefficient expression nested deeper than {MAX_DEPTH} levels")
        if self.peek() in ("-", "+"):
            sign = self.next()[0]
            node = self.factor()
            if sign == "-":
                node = ("neg", node)
        else:
            node = self.atom()
            if self.peek() == "^":
                self.next()
                if self.peek() == "-":
                    raise SchemaError(f"negative exponent in {self.text!r}")
                node = ("pow", node, self.expect("int")[1])
        self.nesting -= 1
        return node

    def atom(self):
        kind, value = self.next()
        if kind == "int":
            return ("num", Fraction(value))
        if kind == "name":
            if value == "sqrt":
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("sqrt", arg)
            return ("var", value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise SchemaError(f"unexpected token {kind!r} in {self.text!r}")


def parse_expression(text):
    """Parse a grammar string into an AST."""
    return _Parser(str(text)).parse()


def _depth(tree):
    """The number of nodes on the longest path from the root of ``tree``."""
    deepest, stack = 0, [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node[1:] if isinstance(child, tuple))
    return deepest


_OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "neg": operator.neg,
}


def evaluate(node, scope, literal):
    """Evaluate an AST: ``scope`` maps each parameter name to its value and
    ``literal`` converts the Fraction of an integer literal.  ``sqrt`` takes
    only a float argument, so it is refused in exact arithmetic; a float
    power that overflows is RegionUndefined."""
    kind = node[0]
    if kind == "num":
        return literal(node[1])
    if kind == "var":
        if node[1] not in scope:
            raise SchemaError(f"unknown parameter {node[1]!r}")
        return scope[node[1]]
    if kind == "pow":
        try:
            return evaluate(node[1], scope, literal) ** node[2]
        except OverflowError as exc:
            raise RegionUndefined("a coefficient does not fit a float") from exc
    if kind != "sqrt" and kind not in _OPERATORS:
        raise SchemaError(f"bad AST node {kind!r}")
    args = [evaluate(arg, scope, literal) for arg in node[1:]]
    if kind == "sqrt":
        if not isinstance(args[0], float):
            raise SchemaError("sqrt(...) requires the float backend")
        if args[0] < 0:
            raise SchemaError("sqrt of a negative value in coefficient")
        return math.sqrt(args[0])
    if kind == "div" and not args[1]:
        raise SchemaError("division by zero in coefficient expression (a pole)")
    return _OPERATORS[kind](*args)


def eval_exact(node, params) -> ParamExpr | Fraction:
    """``node`` in the exact fraction field over ``params``; a Fraction
    where it names no parameter."""
    return evaluate(node, {p: ParamExpr.var(params, p) for p in params}, Fraction)
