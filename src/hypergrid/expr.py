"""A small expression language for functions on the grid.

Grammar, lowest precedence first::

    additive        := multiplicative (("+" | "-") multiplicative)*
    multiplicative  := unary (("*" | "/") unary)*
    unary           := "-" unary | power
    power           := atom ("^" unary)?          # right-associative
    atom            := NUMBER | "x" | "(" additive ")"
                     | ("exp" | "log") "(" additive ")"

Binary operators are left-associative; "^" is right-associative and its
exponent must fold to a constant nonnegative integer, which keeps every
compiled function rational-valued.  NUMBER is an integer or a decimal;
decimals convert exactly ("0.37" is the rational 37/100, not a float).
Syntax errors carry the offending position.

Compilation turns a tree into a ``GridFunction`` by folding the grid
function algebra over it, so continuity certificates compose along the
way, and so do lanes: every compiled node is numerators over one shared
denominator.  A polynomial, a logarithm, and their sums and products
have integer numerators; exp and division by a non-constant are lanes
over 1 of their Fraction values.  A power reads its base once per point.
``exp`` applied to a certified argument gets a certificate from the
bound 3**ceil(B) (an integer dominating e**B; see ``functions.exp_of``);
``log`` never gets one and is left to sampling.  Division certifies
only when the divisor folds to a constant.
"""

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import DomainError, EvaluationError, ParseError, ResourceLimitError
from .functions import constant, exp_fn, exp_of, identity, log_of
from .grid import GridSpec
from .gridfun import GridFunction, certificates_of, product_rule
from .rational import brief_rational, parse_rational
from .series import DEFAULT_POLICY, TruncationPolicy

#: The largest exponent "^" may carry.  A power's values grow with its
#: exponent (n**k at tau = 64 has 6k bits), so an exponent like 10**9 would
#: run out of time or memory at its first read rather than fail.
POWER_LIMIT = 2**12


@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Node"


Node = Union[Literal, Var, Neg, BinOp, Pow, Call]
Expression = Node

_TOKEN = re.compile(
    r"(?P<number>\d+\.\d+|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_FUNCTIONS = ("exp", "log")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", position=pos)
        return self.take()

    def parse(self) -> Node:
        node = self.additive()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r} after expression", position=pos)
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = BinOp(value, node, self.multiplicative())
            else:
                return node

    def multiplicative(self) -> Node:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = BinOp(value, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            _, _, exp_pos = self.peek()
            exponent = self.unary()
            folded = fold_constant(exponent)
            if folded is None:
                raise ParseError("exponent must be constant", position=exp_pos)
            if folded.denominator != 1 or folded < 0:
                raise ParseError(
                    f"exponent must be a nonnegative integer, got {brief_rational(folded)}",
                    position=exp_pos,
                )
            return Pow(base, int(folded))
        return base

    def atom(self) -> Node:
        kind, value, pos = self.take()
        if kind == "number":
            return Literal(parse_rational(value))
        if kind == "name":
            if value == "x":
                return Var()
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.additive()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", position=pos)
        if kind == "op" and value == "(":
            node = self.additive()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"expected a value, got {shown}", position=pos)


def parse(text: str) -> Node:
    """Parse an expression; raises ParseError with a 1-based position."""
    if not text.strip():
        raise ParseError("empty expression", position=1)
    return _Parser(text).parse()


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def fold_constant(node: Node) -> Optional[Fraction]:
    """Value of a literal-only subtree, or None if it involves x or a
    function call (calls are excluded: their values depend on tau)."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Neg):
        v = fold_constant(node.child)
        return None if v is None else -v
    if isinstance(node, BinOp):
        a = fold_constant(node.left)
        b = fold_constant(node.right)
        if a is None or b is None:
            return None
        if node.op == "/" and b == 0:
            return None
        return _ARITHMETIC[node.op](a, b)
    if isinstance(node, Pow):
        v = fold_constant(node.base)
        if v is None:
            return None
        # refused before it is computed: k times the bits of v's wider term
        # past the bits of the widest integer read from text (when limited)
        k, width = _exponent(node), max(v.numerator.bit_length(), v.denominator.bit_length())
        digits = sys.get_int_max_str_digits()
        if k * width > (10**digits - 1).bit_length() > 0:
            raise ResourceLimitError(
                f"constant power {brief_rational(v)}^{k} exceeds the {digits}-digit"
                " limit for reading integers"
            )
        return v**k
    return None


_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _render(node: Node, parent: int) -> str:
    if isinstance(node, Literal):
        return _render_literal(node.value, parent)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        text = "-" + _render(node.child, _UNARY)
        return f"({text})" if parent > _UNARY else text
    if isinstance(node, BinOp):
        mine = _ADD if node.op in "+-" else _MUL
        glue = f" {node.op} " if mine == _ADD else node.op
        text = _render(node.left, mine) + glue + _render(node.right, mine + 1)
        return f"({text})" if parent > mine else text
    if isinstance(node, Pow):
        text = _render(node.base, _ATOM) + "^" + str(node.exponent)
        # a power base that is itself a power needs parentheses, or the
        # text re-parses with the second exponent folded into the first
        return f"({text})" if parent > _POW else text
    if isinstance(node, Call):
        return f"{node.name}({_render(node.arg, _ADD)})"
    raise TypeError(f"not an expression node: {node!r}")


def _render_literal(q: Fraction, parent: int) -> str:
    if q < 0:
        return _render(Neg(Literal(-q)), parent)
    if q.denominator == 1:
        return str(q.numerator)
    # exact decimal when the denominator is 2^a 5^b, else a quotient
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = q.numerator * 10**digits // q.denominator
        text = str(scaled).rjust(digits + 1, "0")
        return f"{text[:-digits]}.{text[-digits:]}"
    text = f"{q.numerator}/{q.denominator}"
    return f"({text})" if parent > _MUL else text


def pretty(node: Node) -> str:
    """Canonical text form; pretty followed by parse reproduces the tree
    for any tree that parse itself can produce."""
    return _render(node, 0)


def _exponent(node: Pow) -> int:
    if node.exponent < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {node.exponent}")
    if node.exponent > POWER_LIMIT:
        k = brief_rational(node.exponent)
        raise ResourceLimitError(f"exponent {k} exceeds the limit {POWER_LIMIT}")
    return node.exponent


def _power(base: GridFunction, k: int) -> GridFunction:
    """base**k as one node that reads base once per point and raises its
    numerator to k, over base's ``den`` to the k.  Its certificates are
    the k-fold product's: the product rule folded by repeated squaring, as
    (fold * fold) * base per set bit, with no node built along the way."""
    if k == 0:
        return constant(base.spec, 1)
    own = fold = certificates_of(base)
    for bit in bin(k)[3:]:
        fold = product_rule(fold, fold)
        if bit == "1":
            fold = product_rule(fold, own)
    at = base.at
    return GridFunction(base.spec, lambda n: at(n) ** k, *fold, base.den**k)


def on_domain(node: Node, a: Fraction, b: Fraction) -> Node:
    """The tree of x -> node(a + (b - a) x), which carries an expression
    on [a, b] onto the unit interval the grid covers."""
    if isinstance(node, Var):
        return BinOp("+", Literal(a), BinOp("*", Literal(b - a), Var()))
    if isinstance(node, Neg):
        return Neg(on_domain(node.child, a, b))
    if isinstance(node, BinOp):
        return BinOp(node.op, on_domain(node.left, a, b), on_domain(node.right, a, b))
    if isinstance(node, Pow):
        return Pow(on_domain(node.base, a, b), node.exponent)
    if isinstance(node, Call):
        return Call(node.name, on_domain(node.arg, a, b))
    return node


def compile(
    node: Node, spec: GridSpec, policy: TruncationPolicy = DEFAULT_POLICY
) -> GridFunction:
    """Lower a tree onto a grid by folding the grid-function algebra.

    Certificates survive exactly as far as the algebra can carry them:
    polynomials keep both value and quotient certificates, exp(x) keeps
    the library ones, exp of a certified argument keeps a value
    certificate, log and non-constant division keep none.
    """
    if isinstance(node, Literal):
        return constant(spec, node.value)
    if isinstance(node, Var):
        return identity(spec)
    if isinstance(node, Neg):
        return compile(node.child, spec, policy) * Fraction(-1)
    if isinstance(node, Pow):
        k = _exponent(node)
        return _power(compile(node.base, spec, policy), k)
    if isinstance(node, Call):
        if node.name == "exp" and isinstance(node.arg, Var):
            return exp_fn(spec, policy)
        arg = compile(node.arg, spec, policy)
        if node.name == "exp":
            return exp_of(arg, policy)
        return log_of(arg, policy)
    if isinstance(node, BinOp):
        left = compile(node.left, spec, policy)
        if node.op == "/":
            divisor = fold_constant(node.right)
            if divisor is not None:
                if divisor == 0:
                    raise DomainError("division by constant zero")
                return left * (1 / divisor)
            right = compile(node.right, spec, policy)
            num, den_l, div, den_r = left.at, left.den, right.at, right.den

            def ratio_at(n):
                d = div(n)
                if d == 0:
                    raise EvaluationError("division by zero", point=spec.point(n))
                return Fraction(num(n) * den_r, d * den_l)

            return GridFunction(spec, ratio_at)
        right = compile(node.right, spec, policy)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    raise TypeError(f"not an expression node: {node!r}")
