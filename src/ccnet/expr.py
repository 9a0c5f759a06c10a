"""A small expression language for component functions.

Grammar (one scalar expression)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] integer]
    atom   := number | var | func '(' expr ')' | '(' expr ')'
    var    := 'x' '[' integer ']' | 'u' '[' integer ']' '[' integer ']'
    func   := 'sin' | 'cos' | 'exp' | 'tanh'

x[i] is the i-th coordinate of the node's own state (1-based), u[j][i] the
i-th coordinate of its j-th input in standard order.  A component for a
k-dimensional node is a comma-separated list of k scalar expressions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh}


class ExprError(ValueError):
    """Parse or evaluation failure; carries a source position when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class EvaluationError(ArithmeticError):
    """Non-finite value produced; names the offending subexpression."""

    def __init__(self, subexpr: str):
        self.subexpr = subexpr
        super().__init__(f"non-finite value in subexpression {subexpr!r}")


@dataclass(frozen=True)
class Arity:
    """Declared shape of a component's arguments: the node's own dimension
    and one dimension per input slot in standard order."""

    self_dim: int
    input_dims: tuple[int, ...]


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class SelfVar:
    index: int  # 1-based


@dataclass(frozen=True)
class InputVar:
    slot: int   # 1-based input position
    index: int  # 1-based coordinate


@dataclass(frozen=True)
class Unary:
    op: str     # '-'
    operand: "ExprNode"


@dataclass(frozen=True)
class Binary:
    op: str     # + - * /
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Power:
    base: "ExprNode"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    argument: "ExprNode"


ExprNode = Num | SelfVar | InputVar | Unary | Binary | Power | Call

_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()\[\],])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenise(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, arity: Arity):
        self.text = text
        self.tokens = _tokenise(text)
        self.i = 0
        self.arity = arity

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("syntax error at end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise ExprError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> ExprNode:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> ExprNode:
        tok = self.peek()
        if tok and tok[1] in "+-":
            self.next()
            node = self.term()
            if tok[1] == "-":
                node = Unary("-", node)
        else:
            node = self.term()
        while True:
            tok = self.peek()
            if tok and tok[1] in "+-":
                self.next()
                node = Binary(tok[1], node, self.term())
            else:
                return node

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[1] in "*/":
                self.next()
                node = Binary(tok[1], node, self.factor())
            else:
                return node

    def factor(self) -> ExprNode:
        node = self.atom()
        tok = self.peek()
        if tok and tok[1] == "^":
            self.next()
            sign = 1
            tok = self.peek()
            if tok and tok[1] == "-":
                self.next()
                sign = -1
            tok = self.next()
            if tok[0] != "num" or not tok[1].isdigit():
                raise ExprError("exponent must be an integer", tok[2])
            node = Power(node, sign * int(tok[1]))
        return node

    def _index(self) -> tuple[int, int]:
        self.expect("[")
        tok = self.next()
        if tok[0] != "num" or not tok[1].isdigit():
            raise ExprError("index must be a positive integer", tok[2])
        self.expect("]")
        return int(tok[1]), tok[2]

    def atom(self) -> ExprNode:
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            if value == "x":
                idx, ipos = self._index()
                if not 1 <= idx <= self.arity.self_dim:
                    raise ExprError(
                        f"x[{idx}] out of range: node dimension is {self.arity.self_dim}",
                        ipos)
                return SelfVar(idx)
            if value == "u":
                slot, spos = self._index()
                if not 1 <= slot <= len(self.arity.input_dims):
                    raise ExprError(
                        f"u[{slot}] out of range: {len(self.arity.input_dims)} "
                        f"input(s) declared", spos)
                idx, ipos = self._index()
                if not 1 <= idx <= self.arity.input_dims[slot - 1]:
                    raise ExprError(
                        f"u[{slot}][{idx}] out of range: input {slot} has "
                        f"dimension {self.arity.input_dims[slot - 1]}", ipos)
                return InputVar(slot, idx)
            if value in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(value, arg)
            raise ExprError(f"unknown identifier {value!r}", pos)
        if value == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprError(f"unexpected token {value!r}", pos)


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u": 3, "^": 4}


def _print(node: ExprNode, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        v = node.value
        s = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return f"({s})" if v < 0 else s
    if isinstance(node, SelfVar):
        return f"x[{node.index}]"
    if isinstance(node, InputVar):
        return f"u[{node.slot}][{node.index}]"
    if isinstance(node, Unary):
        inner = _print(node.operand, _PREC["u"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["+"] else s
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        left = _print(node.left, prec)
        right = _print(node.right, prec + 1)
        s = f"{left} {node.op} {right}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(node, Power):
        base = _print(node.base, _PREC["^"] + 1)
        s = f"{base}^{node.exponent}"
        return f"({s})" if parent_prec > _PREC["^"] else s
    if isinstance(node, Call):
        return f"{node.func}({_print(node.argument)})"
    raise TypeError(node)


# -- evaluation ----------------------------------------------------------------

def _eval(node: ExprNode, x: Sequence[float], u: Sequence[Sequence[float]]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, SelfVar):
        return x[node.index - 1]
    if isinstance(node, InputVar):
        return u[node.slot - 1][node.index - 1]
    if isinstance(node, Unary):
        return -_eval(node.operand, x, u)
    if isinstance(node, Binary):
        a = _eval(node.left, x, u)
        b = _eval(node.right, x, u)
        try:
            if node.op == "+":
                r = a + b
            elif node.op == "-":
                r = a - b
            elif node.op == "*":
                r = a * b
            else:
                r = a / b
        except (ZeroDivisionError, OverflowError):
            raise EvaluationError(_print(node)) from None
        if not math.isfinite(r):
            raise EvaluationError(_print(node))
        return r
    if isinstance(node, Power):
        base = _eval(node.base, x, u)
        try:
            r = base ** node.exponent
        except (ZeroDivisionError, OverflowError):
            raise EvaluationError(_print(node)) from None
        if not math.isfinite(r):
            raise EvaluationError(_print(node))
        return r
    if isinstance(node, Call):
        a = _eval(node.argument, x, u)
        try:
            r = FUNCTIONS[node.func](a)
        except (ValueError, OverflowError):
            raise EvaluationError(_print(node)) from None
        if not math.isfinite(r):
            raise EvaluationError(_print(node))
        return r
    raise TypeError(node)


# -- slot remapping --------------------------------------------------------------

def _remap(node: ExprNode, slot_map: dict[int, int]) -> ExprNode:
    if isinstance(node, InputVar):
        return InputVar(slot_map[node.slot], node.index)
    if isinstance(node, Unary):
        return Unary(node.op, _remap(node.operand, slot_map))
    if isinstance(node, Binary):
        return Binary(node.op, _remap(node.left, slot_map), _remap(node.right, slot_map))
    if isinstance(node, Power):
        return Power(_remap(node.base, slot_map), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _remap(node.argument, slot_map))
    return node


# -- code generation ---------------------------------------------------------------

def _codegen(node: ExprNode, xref, uref) -> str:
    """Emit a python expression; xref(i)/uref(slot, i) give variable names.

    Functions are emitted as bare names (sin, cos, exp, tanh), so the same
    text runs on floats or on NumPy arrays depending on what the names are
    bound to when it is compiled."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, SelfVar):
        return xref(node.index)
    if isinstance(node, InputVar):
        return uref(node.slot, node.index)
    if isinstance(node, Unary):
        return f"(-{_codegen(node.operand, xref, uref)})"
    if isinstance(node, Binary):
        return (f"({_codegen(node.left, xref, uref)} {node.op} "
                f"{_codegen(node.right, xref, uref)})")
    if isinstance(node, Power):
        base = _codegen(node.base, xref, uref)
        n = node.exponent
        if 2 <= n <= 4:
            return "(" + "*".join([base] * n) + ")"
        return f"({base}**{n})" if n >= 0 else f"({base}**({n}))"
    if isinstance(node, Call):
        return f"{node.func}({_codegen(node.argument, xref, uref)})"
    raise TypeError(node)


# -- public component type -----------------------------------------------------------

@dataclass(frozen=True)
class ComponentExpr:
    """A parsed component: one scalar expression tree per output coordinate."""

    exprs: tuple[ExprNode, ...]
    arity: Arity

    @property
    def out_dim(self) -> int:
        return len(self.exprs)

    def to_source(self) -> str:
        return ", ".join(_print(e) for e in self.exprs)

    def __str__(self):
        return self.to_source()

    def evaluate(self, x: Sequence[float], inputs: Sequence[Sequence[float]]) -> list[float]:
        if len(x) != self.arity.self_dim:
            raise ExprError(f"self state has dimension {len(x)}, "
                            f"declared {self.arity.self_dim}")
        if len(inputs) != len(self.arity.input_dims):
            raise ExprError(f"{len(inputs)} inputs given, "
                            f"declared {len(self.arity.input_dims)}")
        return [_eval(e, x, inputs) for e in self.exprs]

    def remap_slots(self, slot_map: dict[int, int]) -> "ComponentExpr":
        """Renumber input slots (1-based old -> new); dims permute along."""
        new_dims = [0] * len(self.arity.input_dims)
        for old, new in slot_map.items():
            new_dims[new - 1] = self.arity.input_dims[old - 1]
        return ComponentExpr(
            exprs=tuple(_remap(e, slot_map) for e in self.exprs),
            arity=Arity(self.arity.self_dim, tuple(new_dims)))

    def codegen(self, xref, uref) -> list[str]:
        return [_codegen(e, xref, uref) for e in self.exprs]


def parse_component(text: str, arity: Arity) -> ComponentExpr:
    """Parse a comma-separated list of self_dim scalar expressions."""
    pieces = _split_top_level(text)
    if len(pieces) != arity.self_dim:
        raise ExprError(f"component must provide {arity.self_dim} expression(s) "
                        f"(one per output coordinate), found {len(pieces)}")
    exprs = []
    offset = 0
    for piece in pieces:
        try:
            exprs.append(_Parser(piece, arity).parse())
        except ExprError as exc:
            pos = (exc.pos or 0) + offset
            raise ExprError(str(exc).split(" (at position")[0], pos) from None
        offset += len(piece) + 1
    return ComponentExpr(exprs=tuple(exprs), arity=arity)


def _split_top_level(text: str) -> list[str]:
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return [p for p in pieces]
