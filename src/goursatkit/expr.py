"""Expression trees for defining functions.

Grammar, in decreasing precedence:

    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    unary  := '-' unary | atom
    power  := unary ('^' unary)*            (left associative)
    term   := power (('*' | '/') power)*    (left associative)
    expr   := term (('+' | '-') term)*      (left associative)

Identifiers of the shape ``x<digits>`` are coordinate variables (1-based
index, bounded by the declared arity); every other identifier must appear in
the declared parameter list, except for the reserved function names
``exp``, ``ln``, ``sin``, ``cos``, ``sqrt``, which take one parenthesized
argument.  Exponents of ``^`` must be finite constants (no variables or
parameters); they are folded into the node at parse time, by the rules the
jets apply to a constant, so an exponent such as ``sqrt(0)`` or
``1/1e-301`` that fails in a run fails to parse.  A tree deeper
than ``MAX_DEPTH`` nodes, or one that nests too deeply for the parser's
recursion, is an :class:`ExprSyntaxError`.

Trees are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")
# deepest tree an Expr admits, counted in nodes from the root to a leaf (a flat
# sum of k terms is k deep): the evaluators and printers recurse once per
# level, and every tree this deep runs through them at Python's default
# recursion limit
MAX_DEPTH = 500


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownSymbolError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Raised when evaluation hits ln/sqrt/division outside its domain, or
    overflows."""

    def __init__(self, message: str, node: "Node"):
        super().__init__(f"{message} in '{to_text(node)}'")
        self.node = node


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Param:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"
    offset: int = field(default=-1, compare=False)


Node = Union[Const, Var, Param, BinOp, Call]


@dataclass(frozen=True)
class Expr:
    """A validated expression tree with its variable/parameter signature."""

    root: Node
    arity: int
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be positive")
        if _depth(self.root) > MAX_DEPTH:  # before the recursive walk
            raise ExprSyntaxError(f"expression tree is deeper than {MAX_DEPTH} nodes", 0)
        for node in walk(self.root):
            if isinstance(node, Var) and not (1 <= node.index <= self.arity):
                raise UnknownSymbolError(
                    f"variable x{node.index} exceeds arity {self.arity}", node.offset
                )
            if isinstance(node, Param) and node.name not in self.params:
                raise UnknownSymbolError(
                    f"undeclared parameter '{node.name}'", node.offset
                )

    @property
    def variables_used(self) -> frozenset[int]:
        return frozenset(n.index for n in walk(self.root) if isinstance(n, Var))

    @property
    def parameters_used(self) -> frozenset[str]:
        return frozenset(n.name for n in walk(self.root) if isinstance(n, Param))

    def __str__(self) -> str:
        return to_text(self.root)


def walk(node: Node) -> Iterator[Node]:
    yield node
    if isinstance(node, BinOp):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Call):
        yield from walk(node.arg)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            bad = pos + re.match(r"\s*", text[pos:]).end()
            if bad >= len(text):
                break
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, params: tuple[str, ...]):
        self.params = params
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected '{op}'", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self, ops: str = "+-") -> Node:
        """Terms joined by + and -, or, with ``ops`` '*/', a term: powers
        joined by * and /.  Both chains associate to the left.  The operand
        is read in this frame, not through a helper, so each level of
        parentheses costs the parser one frame per grammar rule."""
        node = None
        while True:
            operand = self.expr("*/") if ops == "+-" else self.power()
            node = operand if node is None else BinOp(op, node, operand, offset=off)
            kind, op, off = self.peek()
            if kind != "op" or op not in ops:
                return node
            self.advance()

    def power(self) -> Node:
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                exponent = self.unary()
                folded = _fold_constant(exponent)  # a domain failure is an EvalDomainError
                if folded is None:
                    raise ExprSyntaxError(
                        "exponent of '^' must be a constant", off
                    )
                if not math.isfinite(folded):
                    raise ExprSyntaxError("exponent of '^' must be finite", off)
                node = BinOp("^", node, Const(folded, offset=off), offset=off)
            else:
                return node

    def unary(self) -> Node:
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            operand = self.unary()
            if isinstance(operand, Const):
                return Const(-operand.value, offset=off)
            return BinOp("-", Const(0.0, offset=off), operand, offset=off)
        return self.atom()

    def atom(self) -> Node:
        kind, val, off = self.advance()
        if kind == "num":
            return Const(float(val), offset=off)
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg, offset=off)
            m = re.fullmatch(r"x(\d+)", val)
            if m:  # Expr checks the index against the arity
                return Var(int(m.group(1)), offset=off)
            if val in self.params:
                return Param(val, offset=off)
            raise UnknownSymbolError(f"unknown identifier '{val}'", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "expected a number, identifier or '('" if kind != "end"
            else "unexpected end of input",
            off,
        )


def _fold_constant(node: Node) -> float | None:
    """Value of a variable/parameter-free subtree, or None, by the jets'
    rules, which a run applies to every constant."""
    if any(isinstance(n, (Var, Param)) for n in walk(node)):
        return None
    from .jets import fold_constant  # jets imports this module
    try:
        return fold_constant(node)
    except ArithmeticError as err:  # the jets' domain failures and overflows
        raise EvalDomainError(str(err), node) from None


def _depth(root: Node) -> int:
    """Nodes on the longest path from ``root`` to a leaf, without recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, BinOp):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, Call):
            stack.append((node.arg, depth + 1))
    return deepest


def parse(text: str, arity: int, params: tuple[str, ...] | list[str] = ()) -> Expr:
    """Parse ``text`` into an :class:`Expr` over x1..x<arity> and ``params``."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    try:
        root = _Parser(text, tuple(params)).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply to parse", 0) from None
    return Expr(root, arity, tuple(params))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _format_number(v: float) -> str:
    # int() raises on inf and nan, which a literal such as 1e999 parses to
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(node: Node | Expr) -> str:
    """Canonical printing: minimal parentheses, ASCII, '.' decimal point."""
    if isinstance(node, Expr):
        node = node.root
    if isinstance(node, Const):
        v = _format_number(node.value)
        return f"({v})" if node.value < 0 else v
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    prec = _PRECEDENCE[node.op]
    left = to_text(node.left)
    right = to_text(node.right)
    # '^' prints fully parenthesized on the left so the text stays unambiguous
    # for readers that associate powers to the right
    if isinstance(node.left, BinOp) and (
            _PRECEDENCE[node.left.op] < prec
            or (node.op == "^" and _PRECEDENCE[node.left.op] == prec)):
        left = f"({left})"
    # left association: parenthesize a right operand of equal precedence
    if isinstance(node.right, BinOp) and _PRECEDENCE[node.right.op] <= prec:
        right = f"({right})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"


def _apply_binary(op: str, a: float, b: float, node: Node) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvalDomainError("division by zero", node)
        return a / b
    # power with constant exponent
    if a < 0 and b != int(b):
        raise EvalDomainError("negative base with non-integer exponent", node)
    if a == 0 and b < 0:
        raise EvalDomainError("zero base with negative exponent", node)
    try:
        return float(a) ** float(b)
    except OverflowError:
        raise EvalDomainError("power overflows", node) from None


def _apply_call(fn: str, v: float, node: Node) -> float:
    if fn == "ln" and v <= 0:
        raise EvalDomainError(f"ln of non-positive value {v!r}", node)
    if fn == "sqrt" and v <= 0:
        if v < 0:
            raise EvalDomainError(f"sqrt of negative value {v!r}", node)
        return 0.0
    try:
        return getattr(math, "log" if fn == "ln" else fn)(v)
    except (OverflowError, ValueError) as err:  # exp overflows; sin, cos of an infinity
        raise EvalDomainError(f"{fn} of {v!r}: {err}", node) from None


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate at an assignment mapping 'x1'.. and parameter names to reals."""
    for i in expr.variables_used:
        if f"x{i}" not in env:
            raise KeyError(f"assignment is missing variable x{i}")
    for name in expr.parameters_used:
        if name not in env:
            raise KeyError(f"assignment is missing parameter '{name}'")
    return _value(expr.root, env)


def _value(node: Node, env: Mapping[str, float]) -> float:
    """Value of ``node`` at ``env``, which maps 'x1'.. and parameter names to reals."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(env[f"x{node.index}"])
    if isinstance(node, Param):
        return float(env[node.name])
    if isinstance(node, BinOp):
        return _apply_binary(node.op, _value(node.left, env), _value(node.right, env), node)
    return _apply_call(node.fn, _value(node.arg, env), node)
