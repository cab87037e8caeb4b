"""Small arithmetic expression grammar for coefficient functions.

Grammar (tightest first): ``^`` right-associative, unary ``-``, then
``* /``, then ``+ -``.  Atoms are numbers, the variables
``t, s, tau, x, u``, parenthesised expressions, and calls to
``exp log tanh sin cos abs`` (one argument) or ``min max pow`` (two).
So ``2^3^2 == 512`` and ``-x^2 == -(x^2)``.

Expressions evaluate on floats or numpy arrays; evaluation is pure.
Syntax errors carry the byte offset of the offending character; runtime
numeric errors (division by zero, log of a non-positive value) name the
offending subexpression.
"""

import numpy as np

from .errors import ExpressionError, NumericError

VARIABLES = ("t", "s", "tau", "x", "u")

_UNARY_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
}
_BINARY_FUNCS = {
    "min": np.minimum,
    "max": np.maximum,
    "pow": None,  # evaluated like '^'
}


class Node:
    """AST node; ``span`` is the (start, end) byte range in the source."""

    __slots__ = ("kind", "value", "children", "span")

    def __init__(self, kind, value, children=(), span=(0, 0)):
        self.kind = kind          # 'num' | 'var' | 'unop' | 'binop' | 'call'
        self.value = value        # number, variable name, operator, func name
        self.children = tuple(children)
        self.span = span

    def __eq__(self, other):
        return (isinstance(other, Node) and self.kind == other.kind
                and self.value == other.value and self.children == other.children)

    def __hash__(self):
        return hash((self.kind, self.value, self.children))

    def __repr__(self):
        return f"Node({self.kind!r}, {self.value!r}, {self.children!r})"


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take_number(self):
        self._skip_ws()
        start = self.pos
        t = self.text
        n = len(t)
        i = start
        while i < n and t[i].isdigit():
            i += 1
        if i < n and t[i] == ".":
            i += 1
            while i < n and t[i].isdigit():
                i += 1
        if i == start or t[start:i] == ".":
            raise ExpressionError("malformed number", t, start)
        if i < n and t[i] in "eE":
            j = i + 1
            if j < n and t[j] in "+-":
                j += 1
            k = j
            while k < n and t[k].isdigit():
                k += 1
            if k > j:
                i = k
        self.pos = i
        return float(t[start:i]), (start, i)

    def take_name(self):
        self._skip_ws()
        start = self.pos
        t = self.text
        i = start
        while i < len(t) and (t[i].isalpha() or t[i] == "_"):
            i += 1
        self.pos = i
        return t[start:i], (start, i)

    def expect(self, ch):
        got, pos = self.peek()
        if got != ch:
            raise ExpressionError(f"expected '{ch}'", self.text, pos)
        self.pos = pos + 1


def parse(text):
    """Parse ``text`` into an AST, or raise ExpressionError with offset."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression", text or "", 0)
    tk = _Tokenizer(text)
    node = _parse_sum(tk)
    ch, pos = tk.peek()
    if ch is not None:
        raise ExpressionError(f"unexpected character '{ch}'", text, pos)
    return node


def _parse_sum(tk):
    node = _parse_term(tk)
    while True:
        ch, pos = tk.peek()
        if ch in ("+", "-"):
            tk.pos = pos + 1
            rhs = _parse_term(tk)
            node = Node("binop", ch, (node, rhs), (node.span[0], rhs.span[1]))
        else:
            return node


def _parse_term(tk):
    node = _parse_unary(tk)
    while True:
        ch, pos = tk.peek()
        if ch in ("*", "/"):
            tk.pos = pos + 1
            rhs = _parse_unary(tk)
            node = Node("binop", ch, (node, rhs), (node.span[0], rhs.span[1]))
        else:
            return node


def _parse_unary(tk):
    ch, pos = tk.peek()
    if ch == "-":
        tk.pos = pos + 1
        child = _parse_unary(tk)
        return Node("unop", "-", (child,), (pos, child.span[1]))
    return _parse_power(tk)


def _parse_power(tk):
    base = _parse_atom(tk)
    ch, pos = tk.peek()
    if ch == "^":
        tk.pos = pos + 1
        # right-associative; exponent may carry its own unary minus
        exponent = _parse_unary(tk)
        return Node("binop", "^", (base, exponent), (base.span[0], exponent.span[1]))
    return base


def _parse_atom(tk):
    ch, pos = tk.peek()
    if ch is None:
        raise ExpressionError("unexpected end of expression", tk.text, pos)
    if ch == "(":
        tk.pos = pos + 1
        node = _parse_sum(tk)
        tk.expect(")")
        return Node(node.kind, node.value, node.children, (pos, tk.pos))
    if ch.isdigit() or ch == ".":
        value, span = tk.take_number()
        return Node("num", value, (), span)
    if ch.isalpha() or ch == "_":
        name, span = tk.take_name()
        nxt, npos = tk.peek()
        if nxt == "(":
            if name not in _UNARY_FUNCS and name not in _BINARY_FUNCS:
                raise ExpressionError(f"unknown function '{name}'", tk.text, span[0])
            tk.pos = npos + 1
            args = [_parse_sum(tk)]
            while True:
                c, p = tk.peek()
                if c == ",":
                    tk.pos = p + 1
                    args.append(_parse_sum(tk))
                else:
                    break
            tk.expect(")")
            want = 1 if name in _UNARY_FUNCS else 2
            if len(args) != want:
                raise ExpressionError(
                    f"function '{name}' takes {want} argument(s), got {len(args)}",
                    tk.text, span[0])
            return Node("call", name, tuple(args), (span[0], tk.pos))
        if name not in VARIABLES:
            raise ExpressionError(
                f"unknown variable '{name}' (allowed: {', '.join(VARIABLES)})",
                tk.text, span[0])
        return Node("var", name, (), span)
    raise ExpressionError(f"unexpected character '{ch}'", tk.text, pos)


def _src(node, text):
    if text:
        return text[node.span[0]:node.span[1]]
    return emit(node)


def evaluate(node, bindings, _text=None):
    """Evaluate an AST with ``bindings`` mapping variable names to values.

    Values may be scalars or numpy arrays (broadcast as usual).  Raises
    NumericError on division by zero / log of non-positive / non-finite
    results, naming the subexpression that produced them.
    """
    if node.kind == "num":
        return node.value
    if node.kind == "var":
        if node.value not in bindings:
            raise NumericError(f"unbound variable '{node.value}'")
        return bindings[node.value]
    if node.kind == "unop":
        return -evaluate(node.children[0], bindings, _text)
    if node.kind == "binop" or node.value == "pow":
        a = evaluate(node.children[0], bindings, _text)
        b = evaluate(node.children[1], bindings, _text)
        if node.value == "+":
            return a + b
        if node.value == "-":
            return a - b
        if node.value == "*":
            return a * b
        if node.value == "/":
            if np.any(b == 0):
                raise NumericError(f"division by zero in '{_src(node, _text)}'")
            return a / b
        # '^' and pow(a, b): real powers on scalars and arrays alike
        with np.errstate(all="ignore"):
            out = np.power(a, b, dtype=float)
        _check_finite(out, node, _text)
        return out
    # call
    if node.value in _BINARY_FUNCS:
        a = evaluate(node.children[0], bindings, _text)
        b = evaluate(node.children[1], bindings, _text)
        return _BINARY_FUNCS[node.value](a, b)
    a = evaluate(node.children[0], bindings, _text)
    if node.value == "log":
        if np.any(np.asarray(a) <= 0):
            raise NumericError(f"log of non-positive value in '{_src(node, _text)}'")
    out = _UNARY_FUNCS[node.value](a)
    _check_finite(out, node, _text)
    return out


def _check_finite(out, node, text):
    arr = np.asarray(out)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite result in '{_src(node, text)}'")


def emit(node):
    """Render an AST back to text; ``parse(emit(n))`` equals ``n``."""
    if node.kind == "num":
        return repr(node.value)
    if node.kind == "var":
        return node.value
    if node.kind == "unop":
        return f"-({emit(node.children[0])})"
    if node.kind == "binop":
        a, b = node.children
        return f"({emit(a)} {node.value} {emit(b)})"
    args = ", ".join(emit(c) for c in node.children)
    return f"{node.value}({args})"


def eval_expression(expr, bindings):
    """Evaluate an expression (text or parsed) under variable bindings."""
    if isinstance(expr, str):
        return evaluate(parse(expr), dict(bindings), expr)
    if isinstance(expr, CoefficientExpression):
        return expr(**dict(bindings))
    return evaluate(expr, dict(bindings))


class CoefficientExpression:
    """A parsed coefficient expression, callable on named bindings.

    >>> CoefficientExpression("0.2 + 0.1*tanh(x)")(x=0.0)
    0.2
    """

    def __init__(self, text):
        if isinstance(text, (int, float)):
            text = repr(float(text))
        self.text = text
        self.ast = parse(text)

    def __call__(self, **bindings):
        return evaluate(self.ast, bindings, self.text)

    def __eq__(self, other):
        return isinstance(other, CoefficientExpression) and self.ast == other.ast

    def __hash__(self):
        return hash(self.ast)

    def __repr__(self):
        return f"CoefficientExpression({self.text!r})"
