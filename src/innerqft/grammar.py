"""Text grammar for operator expressions.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (['*'] factor)*          -- juxtaposition multiplies
    factor := '-' factor | scalar | coeff | operator | '(' expr ')'
    scalar := number | number 'i' | 'i'
    coeff  := 'L' '^' int | '(2pi)' '^' int | 'Vreg' ['^' int]
            | 'w' '(' mom ')' ['^' int] | 'E/m' '(' mom ')' ['^' int]
            | 'd3' '(' (mom '-' mom | '0') ')'
            | 'd4' '(' (inner '-' inner | '0') ')'
            | 'kd' '(' disc ',' disc ')'
            | ('eta'|'ETA') '[' disc ',' disc ']'
    operator := ('a'|'b'|'d'|'A') ["'"] '(' labels ')'
    labels := mom {',' ('s'|'g') '=' disc} ';' inner [',G=' disc]
                                    -- each of s=, g= and G= at most once
    mom    := ident | '[' number ',' number ',' number ']'
    inner  := ident | '[' number{4 comma-separated} ']' | '~' mom
    disc   := ident | int

A term is a list of factors, each a bare monomial or the terms of a
parenthesised sum; `opalg.product` canonicalizes each term of their product
once. The dagger is the apostrophe suffix; numbers are exact rationals
(`2`, `-3/2`, `0.25`); `~k` marks an inner label pinned to the on-shell
four-vector of momentum `k`. An operator's head and the discrete labels
it carries are read from its field's row of `opalg.FIELD_TABLE`, the keys
`s`, `g` and `G` from `opalg.LABEL_TEXT`. `mom`, `inner` and `disc` are the
three label types of `opalg` (MOM, INNER, DISC), read by one rule,
`parse_label`, and checked by one, `opalg.check_label`, where the operator
or atom is built.
Malformed text, a repeated label, a zero denominator, a bound vector of
the wrong size or a bound `kd`/`eta`/`ETA` index outside the range of its
operator label included, raises ParseError at the offending token: a label
at its key, or at its operator when one is missing or out of range.

There is one printer: `str(e)`, defined in `opalg`, which
`print_expression` returns. It emits canonical text, and
parse_expression(str(e)) == e holds for every exact expression. The one
exception is the leg operators that `smatrix.lsz_reduce` builds for
`reduce`: their momentum labels carry float components, which print in
Python's float notation and need not parse back.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .opalg import (ATOMS, DISC, FIELD_TABLE, INNER, LABEL_TEXT, MOM, ONE, Atom,
                    CRat, LadderOperator, Monomial, OnShell, OperatorExpr, product)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<sym>[-+*()\[\],;='^/~])
  | (?P<bad>.)
""", re.VERBOSE)

_HEADS = {row.head: field for field, row in FIELD_TABLE.items()}
# (key, the label it follows) -> the operator slot of a discrete label
_LABEL_KEYS = {text: name for name, text in LABEL_TEXT.items()}


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        if kind != "ws":
            tokens.append((kind, text, pos))
    tokens.append(("eof", "", len(src)))
    return tokens


def _atom_heads() -> dict:
    """Atom kinds that take arguments, by the identifier that starts their
    printed head, with the tokens that complete it ("E/m": "/", "m")."""
    heads = {}
    for kind, spec in ATOMS.items():
        if spec.arity:
            first, *rest, _eof = _tokenize(kind)
            heads[first[1]] = (kind, [tok[:2] for tok in rest])
    return heads


_ATOM_HEADS = _atom_heads()
_COEFF_IDENTS = {"L", "Vreg"} | set(_ATOM_HEADS)


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None):
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    # -- grammar rules ------------------------------------------------------

    def parse_expr(self) -> OperatorExpr:
        # the terms are merged once at the end, so a sum parses in linear time
        monos = []
        op = self.next()[1] if self.peek()[:2] == ("sym", "-") else "+"
        while True:
            term = self.parse_term().terms
            monos.extend([-m for m in term] if op == "-" else term)
            if self.peek()[0] != "sym" or self.peek()[1] not in ("+", "-"):
                return OperatorExpr.from_monomials(monos)
            op = self.next()[1]

    def _starts_factor(self) -> bool:
        kind, text, _ = self.peek()
        if kind == "number":
            return True
        if kind == "ident":
            return text == "i" or text in _HEADS or text in _COEFF_IDENTS
        return kind == "sym" and text == "("

    def parse_term(self) -> OperatorExpr:
        factors = [self.parse_factor()]
        while True:
            if self.peek()[:2] == ("sym", "*"):
                self.next()
            elif not self._starts_factor():
                return product(factors)
            # juxtaposition is multiplication: a(k;K) a'(h;H)
            factors.append(self.parse_factor())

    def parse_factor(self) -> tuple:
        """The terms of one factor: a bare monomial or a parenthesised sum."""
        kind, text, pos = self.peek()
        if kind == "sym" and text == "-":
            self.next()
            return tuple(-m for m in self.parse_factor())
        if kind == "sym" and text == "(":
            if (self.tokens[self.i + 1][:2] == ("number", "2")
                    and self.tokens[self.i + 2][:2] == ("ident", "pi")
                    and self.tokens[self.i + 3][:2] == ("sym", ")")):
                self.i += 4
                self.expect("sym", "^")
                return (Monomial(ONE, twopi=self.parse_int()),)
            self.next()
            inner = self.parse_expr()
            self.expect("sym", ")")
            return inner.terms
        if kind == "ident" and text in _COEFF_IDENTS:
            return (self.parse_coeff(),)
        if kind == "number":
            value = self.parse_literal()
            if self.peek()[:2] == ("ident", "i"):
                self.next()
                return (Monomial(CRat(Fraction(0), value)),)
            return (Monomial(CRat(value)),)
        if kind == "ident" and text == "i":
            self.next()
            return (Monomial(CRat(Fraction(0), Fraction(1))),)
        if kind == "ident" and text in _HEADS:
            return (Monomial(ONE, ops=(self.parse_operator(),)),)
        raise ParseError(f"expected a scalar, operator or '(', found {text!r}", pos)

    def parse_literal(self) -> Fraction:
        """The next number token, exactly; every number literal is read here."""
        _, text, pos = self.expect("number")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad number {text!r}", pos) from None

    def parse_number(self) -> Fraction:
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            return -self.parse_literal()
        return self.parse_literal()

    def parse_int(self, what: str = "an integer exponent") -> int:
        value = self.parse_number()
        if value.denominator != 1:
            raise ParseError(f"expected {what}", self.tokens[self.i - 1][2])
        return int(value)

    def _opt_power(self) -> int:
        if self.peek()[:2] == ("sym", "^"):
            self.next()
            return self.parse_int()
        return 1

    def parse_coeff(self) -> Monomial:
        _, name, pos = self.next()
        if name == "L":
            self.expect("sym", "^")
            return Monomial(ONE, lam=self.parse_int())
        if name == "Vreg":
            return Monomial(ONE, vreg=self._opt_power())
        kind, rest = _ATOM_HEADS[name]
        for tok in rest:
            self.expect(*tok)
        spec = ATOMS[kind]
        self.expect("sym", spec.brackets[0])
        if spec.collapse and self.peek()[:2] == ("number", "0"):
            self.next()
            kind, args = spec.collapse, ()
        else:
            args = (self.parse_label(spec.arg),)
            while len(args) < spec.arity:
                self.expect("sym", spec.sep)
                args += (self.parse_label(spec.arg),)
        self.expect("sym", spec.brackets[1])
        power = self._opt_power() if ATOMS[kind].merges else 1
        try:
            atom = Atom(kind, args, power)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        return Monomial(ONE, atoms=(atom,))

    def parse_operator(self) -> LadderOperator:
        kind, head, pos = self.next()
        field = _HEADS[head]
        dagger = False
        if self.peek()[:2] == ("sym", "'"):
            self.next()
            dagger = True
        self.expect("sym", "(")
        labels: dict = {}
        row = FIELD_TABLE[field]
        for follows, where, end in ((MOM, "before", ";"), (INNER, "after", ")")):
            labels[follows] = self.parse_label(follows)
            while self.peek()[:2] == ("sym", ","):
                self.next()
                _, key, key_pos = self.expect("ident")
                name = _LABEL_KEYS.get((key, follows))
                if name is None:
                    raise ParseError(f"unknown label {key!r} {where} ';'", key_pos)
                if name in labels:
                    raise ParseError(f"repeated label {key!r}", key_pos)
                if name not in row.labels:
                    raise ParseError(row.message, key_pos)
                self.expect("sym", "=")
                labels[name] = self.parse_label(DISC)
            self.expect("sym", end)
        try:
            return LadderOperator(field, dagger, labels.pop(MOM),
                                  labels.pop(INNER), **labels)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def parse_label(self, arg: str):
        """One label of the given ATOMS argument type (MOM, INNER or DISC);
        it is checked where its operator or atom is built."""
        kind, text, pos = self.peek()
        if kind == "ident":
            self.next()
            return text
        if arg == DISC:
            if kind == "number":
                return self.parse_int("an integer discrete label")
            raise ParseError("expected a discrete label", pos)
        if kind == "sym" and text == "~" and arg == INNER:
            self.next()
            return OnShell(self.parse_label(MOM))
        if kind == "sym" and text == "[":
            self.next()
            comps = [self.parse_number()]
            while self.peek()[:2] == ("sym", ","):
                self.next()
                comps.append(self.parse_number())
            self.expect("sym", "]")
            return tuple(comps)
        raise ParseError("expected a label symbol or bound vector", pos)


def parse_expression(src: str) -> OperatorExpr:
    """Parse an operator expression in the grammar above."""
    p = _Parser(src)
    try:
        expr = p.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", p.peek()[2]) from None
    p.expect("eof")
    return expr


def print_expression(e: OperatorExpr) -> str:
    """Canonical text, `str(e)`; parse_expression(print_expression(e)) == e."""
    return str(e)
