"""Parser for the polynomial expression grammar shared by the library and CLI.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom ('^' INT)*
    atom   := NUMBER | NAME | '(' expr ')'
    NUMBER := INT | INT '/' INT          (exact rational literal)
    NAME   := 'w1' .. 'wl' | a name of RootDatum.t_classes

Variables ``w1..wl`` are the fundamental-weight variables; the t-classes
``t1..tn`` (and the bare ``t``, where the type defines it) are expanded into
weight variables at parse time through ``RootDatum.t_classes``.  A name is
read as written: ``w01`` and ``t01`` are not variables.

No class has degree above N, the number of positive roots, so a power or a
product whose degree would pass N is rejected before it is computed.

Parentheses nest at most ``MAX_NESTING`` deep; deeper input is a ParseError,
raised long before the interpreter's recursion limit.  Unary minus is read
in a loop, so any run of minus signs is accepted.

Coefficients are bounded too: a literal of more than ``MAX_DIGITS`` digits is
rejected before it is converted, and so is a power whose operand's largest
coefficient, raised to the exponent, would pass that many digits (estimated
from bit lengths, before the power is computed).  Every product and power is
checked again once computed, numerators and denominators alike.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import OutOfRangeError, ParseError
from .polyring import Polynomial
from .rootdata import RootDatum

MAX_DIGITS = 1000
MAX_NESTING = 100
_LIMIT = 10**MAX_DIGITS  # smallest value with more than MAX_DIGITS digits

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(.))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        num, name, sym = m.groups()
        if num is not None:
            if len(num) > MAX_DIGITS:
                raise OutOfRangeError(f"literal longer than {MAX_DIGITS} digits")
            tokens.append(("num", int(num)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            if sym.strip():
                if sym not in "+-*/^()":
                    raise ParseError(f"unexpected character {sym!r}")
                tokens.append((sym, sym))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens: list, datum: RootDatum):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses currently open
        self.datum = datum
        self.nvars = datum.rank
        self.weight_vars = {f"w{i}": i - 1 for i in range(1, datum.rank + 1)}

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            found = "end of expression" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}")
        return tok

    def check_degree(self, degree: int) -> None:
        if degree > self.datum.num_positive_roots:
            raise OutOfRangeError(f"degree {degree} exceeds the number of positive roots")

    @staticmethod
    def check_coefficients(p: Polynomial, exponent: int = 1) -> None:
        """Refuse p**exponent if its coefficients could pass MAX_DIGITS digits.

        With exponent 1 this checks p itself.  For a larger exponent the
        estimate is (bits - 1) * exponent, a lower bound on the bit length of
        the largest coefficient to that power, so nothing is computed.
        """
        height = max(
            (max(abs(c.numerator), c.denominator) for c in p.terms.values()), default=0
        )
        if exponent == 1:
            too_big = height >= _LIMIT
        else:
            too_big = (height.bit_length() - 1) * exponent >= _LIMIT.bit_length()
        if too_big:
            raise OutOfRangeError(f"coefficient longer than {MAX_DIGITS} digits")

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() != "end":
            raise ParseError(f"trailing input at {self.tokens[self.pos][1]!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() == "*":
            self.next()
            q = self.factor()
            self.check_degree(p.degree() + q.degree())
            p = p * q
            self.check_coefficients(p)
        return p

    def factor(self) -> Polynomial:
        negate = False
        while self.peek() == "-":
            self.next()
            negate = not negate
        p = self.atom()
        while self.peek() == "^":
            self.next()
            tok = self.next()
            if tok[0] != "num":
                raise ParseError("exponent must be a nonnegative integer")
            self.check_degree(p.degree() * tok[1])
            self.check_coefficients(p, tok[1])
            p = p**tok[1]
            self.check_coefficients(p)
        return -p if negate else p

    def atom(self) -> Polynomial:
        kind, value = self.next()
        if kind == "num":
            if self.peek() == "/":
                self.next()
                tok = self.next()
                if tok[0] != "num" or tok[1] == 0:
                    raise ParseError("malformed rational literal")
                return Polynomial.constant(self.nvars, Fraction(value, tok[1]))
            return Polynomial.constant(self.nvars, value)
        if kind == "name":
            return self.variable(value)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        what = "end of expression" if kind == "end" else f"token {value!r}"
        raise ParseError(f"unexpected {what}")

    def variable(self, name: str) -> Polynomial:
        """A fundamental-weight variable w1..wl, or a t-class by its name in
        ``RootDatum.t_classes``; any other name is a ParseError."""
        t = self.datum.t_classes.get(name)
        if t is not None:
            return Polynomial.linear_form(t)
        i = self.weight_vars.get(name)
        if i is None:
            raise ParseError(f"unknown variable {name!r} for type {self.datum.cartan_type}")
        return Polynomial.variable(self.nvars, i)


def parse_polynomial(text: str, datum: RootDatum) -> Polynomial:
    """Parse an expression into a polynomial in the weight variables."""
    return _Parser(_tokenize(text), datum).parse()
