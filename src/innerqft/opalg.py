"""Canonical-form noncommutative algebra of ladder operators.

Expressions are formal sums of monomials: an exact complex-rational scalar,
explicit powers of the length scale L, of 2*pi and of the regularized inner
volume Vreg, a multiset of symbolic coefficient atoms (energies, deltas,
metric factors), and an ordered product of ladder operators.

All arithmetic in this layer is exact; identity checks never see floats.
`str()` of a scalar, label, operator, atom, monomial or expression is its
canonical text in the grammar of `innerqft.grammar`; this is the library's
one printer.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from operator import attrgetter

from .record import Record

# ---------------------------------------------------------------------------
# Exact complex-rational scalars


_ZERO = Fraction(0)


class CRat(Record):
    """Exact complex rational re + i*im, parts kept as Fractions.

    Sums and products of two real scalars take a real fast path: one
    Fraction operation, no imaginary arithmetic.
    """

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    @classmethod
    def of(cls, x) -> "CRat":
        if isinstance(x, CRat):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(Fraction(x))
        if isinstance(x, tuple) and len(x) == 2:
            return cls(Fraction(x[0]), Fraction(x[1]))
        raise TypeError(f"cannot coerce {x!r} to an exact complex rational")

    def __add__(self, o: "CRat") -> "CRat":
        if self.im or o.im:
            return CRat(self.re + o.re, self.im + o.im)
        return CRat(self.re + o.re)

    def __mul__(self, o: "CRat") -> "CRat":
        if self.im or o.im:
            return CRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)
        return CRat(self.re * o.re)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im) if self.im else CRat(-self.re)

    def conj(self) -> "CRat":
        return CRat(self.re, -self.im) if self.im else self

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        """Canonical text: `3/2`, `i`, `-2i`, `(1-i)`."""
        if not self.im:
            return str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        sign = "-" if self.im < 0 else "+"
        if not self.re:
            return imag if sign == "+" else sign + imag
        return f"({self.re}{sign}{imag})"


ONE = CRat(Fraction(1))
I = CRat(Fraction(0), Fraction(1))

# ---------------------------------------------------------------------------
# Labels
#
# A momentum label is a symbol (str) or a bound 3-tuple of numbers.
# An inner label is a symbol, a bound 4-tuple, or OnShell(mom): the barred
# operators of the gravitational limit carry OnShell inner labels, meaning
# "the on-shell four-vector of this operator's own momentum"; its energy is
# evaluated only where a number is needed (fock.momentum_action). Bound
# components compare by exact value (int, Fraction and float alike), so two
# bound labels are equal exactly when their tuples are.


class OnShell(Record):
    mom: str | tuple


# the type of a label, for annotations
Label = "str | tuple | OnShell"


def label_key(l: Label):
    if isinstance(l, str):
        return (0, l)
    if isinstance(l, OnShell):
        return (1,) + label_key(l.mom)
    return (2, l)


def label_str(l: Label) -> str:
    if isinstance(l, str):
        return l
    if isinstance(l, OnShell):
        return f"~{label_str(l.mom)}"
    return "[" + ",".join(str(c) for c in l) + "]"


def substitute_label(l: Label, mapping: Mapping[str, Label]) -> Label:
    if isinstance(l, str):
        return mapping.get(l, l)
    if isinstance(l, OnShell):
        return OnShell(substitute_label(l.mom, mapping))
    return l


# ---------------------------------------------------------------------------
# Ladder operators

SCALAR = "scalar"
DIRAC_PARTICLE = "dirac_particle"
DIRAC_ANTIPARTICLE = "dirac_antiparticle"
GAUGE = "gauge"

FIELDS = (SCALAR, DIRAC_PARTICLE, DIRAC_ANTIPARTICLE, GAUGE)
_FIELD_ORDER = {f: i for i, f in enumerate(FIELDS)}
FIELD_HEAD = {SCALAR: "a", DIRAC_PARTICLE: "b", DIRAC_ANTIPARTICLE: "d", GAUGE: "A"}


class LadderOperator(Record):
    field: str
    dagger: bool
    mom: Label
    inner: Label
    spin: int | str | None = None
    pol: int | str | None = None  # spacetime polarization, gauge only
    ipol: int | str | None = None  # inner polarization, gauge only

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field kind {self.field!r}")
        if self.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE):
            if self.spin is None or self.pol is not None or self.ipol is not None:
                raise ValueError("Dirac operators carry a spin label only")
            if isinstance(self.spin, int) and self.spin not in (1, 2):
                raise ValueError("spin must be 1 or 2")
        elif self.field == GAUGE:
            if self.spin is not None or self.pol is None or self.ipol is None:
                raise ValueError("gauge operators carry both polarization labels")
            if isinstance(self.pol, int) and self.pol not in (0, 1, 2, 3):
                raise ValueError("spacetime polarization must be in 0..3")
            if isinstance(self.ipol, int) and self.ipol not in (1, 2, 3):
                raise ValueError("inner polarization must be in 1..3 "
                                 "(no inner-longitudinal gauge quanta)")
        else:
            if self.spin is not None or self.pol is not None or self.ipol is not None:
                raise ValueError("scalar operators carry no discrete labels")
        if isinstance(self.mom, tuple) and len(self.mom) != 3:
            raise ValueError("bound momentum labels are 3-vectors")
        if isinstance(self.inner, tuple) and len(self.inner) != 4:
            raise ValueError("bound inner labels are 4-vectors")

    @property
    def fermionic(self) -> bool:
        return self.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE)

    def adjoint(self) -> "LadderOperator":
        return LadderOperator(self.field, not self.dagger, self.mom, self.inner,
                              self.spin, self.pol, self.ipol)

    def _discrete_key(self):
        def k(v):
            if v is None:
                return (0,)
            if isinstance(v, str):
                return (1, v)
            return (2, v)
        return (k(self.spin), k(self.pol), k(self.ipol))

    def sort_key(self):
        # daggers first, then field kind, then labels; total on operators
        return (0 if self.dagger else 1, _FIELD_ORDER[self.field],
                label_key(self.mom), label_key(self.inner), self._discrete_key())

    def substitute(self, mapping: Mapping[str, Label]) -> "LadderOperator":
        def sub_disc(v):
            if isinstance(v, str) and v in mapping:
                b = mapping[v]
                if not isinstance(b, (int, str)):
                    raise ValueError("discrete labels bind to ints or symbols")
                return b
            return v
        return LadderOperator(self.field, self.dagger,
                              substitute_label(self.mom, mapping),
                              substitute_label(self.inner, mapping),
                              sub_disc(self.spin), sub_disc(self.pol),
                              sub_disc(self.ipol))

    def __str__(self) -> str:
        head = FIELD_HEAD[self.field] + ("'" if self.dagger else "")
        parts = [label_str(self.mom)]
        if self.spin is not None:
            parts.append(f"s={self.spin}")
        if self.pol is not None:
            parts.append(f"g={self.pol}")
        inner = label_str(self.inner)
        if self.ipol is not None:
            inner += f",G={self.ipol}"
        return f"{head}({','.join(parts)};{inner})"


# ---------------------------------------------------------------------------
# Coefficient atoms
#
# Every coefficient factor of the (anti)commutation relations is one Atom:
# a kind, a tuple of arguments and an integer power. A kind's row in ATOMS
# decides everything that depends on the kind:
#   rank       position in the canonical order of a monomial's atoms;
#   arg        what each argument is: a momentum label (MOM), an inner
#              label (INNER), a discrete spin/polarization index (DISC), or
#              nothing (NONE);
#   arity      how many arguments the atom takes;
#   symmetric  whether the two arguments are unordered (stored by key);
#   merges     whether atoms with equal arguments multiply by adding powers
#              (all other kinds take power 1 and repeat instead);
#   sign       for a Kronecker/metric pair: the factor left by two equal
#              bound indices (two distinct ones kill the monomial);
#   collapse   for a delta over labels: the argument-free kind that two
#              equal bound labels become (two distinct ones kill it);
#   sifted     whether delta_resolve consumes the atom by unification;
#   brackets, sep  how the arguments print after the kind's name.
# The kind's name is its printed head, and the grammar parses atoms from
# the same rows.

MOM, INNER, DISC, NONE = "mom", "inner", "disc", "none"


class AtomSpec(Record):
    rank: int
    arg: str = NONE
    arity: int = 0
    symmetric: bool = False
    merges: bool = False
    sign: Callable[[int], int] | None = None
    collapse: str | None = None
    sifted: bool = False
    brackets: str = "()"
    sep: str = ","


ATOMS = {
    "w": AtomSpec(0, MOM, 1, merges=True),
    "E/m": AtomSpec(1, MOM, 1, merges=True),
    "kd": AtomSpec(2, DISC, 2, symmetric=True, sign=lambda idx: 1, sifted=True),
    "eta": AtomSpec(3, DISC, 2, symmetric=True,
                    sign=lambda idx: 1 if idx == 0 else -1, brackets="[]"),
    # inner polarization indices run over 1..3 only
    "ETA": AtomSpec(4, DISC, 2, symmetric=True, sign=lambda idx: -1,
                    brackets="[]"),
    "d3": AtomSpec(5, MOM, 2, symmetric=True, collapse="d3(0)", sifted=True,
                   sep="-"),
    "d4": AtomSpec(6, INNER, 2, symmetric=True, collapse="d4(0)", sifted=True,
                   sep="-"),
    "d3(0)": AtomSpec(7),
    "d4(0)": AtomSpec(8),
}


def _disc_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


class Atom(Record):
    """One coefficient factor; `key`, derived when it is built, is its place
    in the canonical order."""

    __slots__ = ("key",)
    kind: str
    args: tuple = ()
    power: int = 1

    def __post_init__(self):
        spec = ATOMS[self.kind]
        if len(self.args) != spec.arity:
            raise ValueError(f"{self.kind} takes {spec.arity} arguments")
        arg_key = _disc_key if spec.arg == DISC else label_key
        keys = [arg_key(x) for x in self.args]
        if spec.symmetric and keys[0] > keys[1]:
            object.__setattr__(self, "args", self.args[::-1])
            keys.reverse()
        object.__setattr__(self, "key", (spec.rank, *keys, self.power))

    def substitute(self, mapping: Mapping[str, Label]) -> "Atom":
        if ATOMS[self.kind].arg == DISC:
            args = tuple(mapping.get(x, x) if isinstance(x, str) else x
                         for x in self.args)
        else:
            args = tuple(substitute_label(x, mapping) for x in self.args)
        return Atom(self.kind, args, self.power)

    def __str__(self) -> str:
        spec = ATOMS[self.kind]
        s = self.kind
        if self.args:
            text = str if spec.arg == DISC else label_str
            s += (spec.brackets[0] + spec.sep.join(text(x) for x in self.args)
                  + spec.brackets[1])
        return s if self.power == 1 else f"{s}^{self.power}"


_ATOM_KEY = attrgetter("key")


def OmegaPow(mom: Label, power: int = 1) -> Atom:
    """omega_k to an integer power, for a momentum label."""
    return Atom("w", (mom,), power)


def ERatioPow(mom: Label, power: int = 1) -> Atom:
    """(k0/m) to an integer power, for a momentum label."""
    return Atom("E/m", (mom,), power)


def Delta3(a: Label, b: Label) -> Atom:
    """(2pi)-free spatial delta over two momentum labels, symmetric."""
    return Atom("d3", (a, b))


def Delta4(a: Label, b: Label) -> Atom:
    """Inner-space delta over two inner labels, symmetric."""
    return Atom("d4", (a, b))


def Delta3Zero() -> Atom:
    return Atom("d3(0)")


def Delta4Zero() -> Atom:
    return Atom("d4(0)")


def SpinDelta(a: int | str, b: int | str) -> Atom:
    """Kronecker delta over two spin labels, symmetric."""
    return Atom("kd", (a, b))


def Metric(space: bool, a: int | str, b: int | str) -> Atom:
    """eta^{gg'} factor; space=True for spacetime, False for inner indices."""
    return Atom("eta" if space else "ETA", (a, b))


def _bound_equal(spec: AtomSpec, a, b):
    """Tri-state equality of a pair's arguments: True/False if decidable."""
    if spec.arg == DISC:
        return a == b if isinstance(a, int) and isinstance(b, int) else None
    return _labels_bound_equal(a, b)


def _labels_bound_equal(a: Label, b: Label):
    """Tri-state equality for delta arguments: True/False if decidable.

    Two on-shell labels are equal exactly when their momenta are.
    """
    if isinstance(a, OnShell) and isinstance(b, OnShell):
        a, b = a.mom, b.mom
    if a == b:
        return True
    if isinstance(a, tuple) and isinstance(b, tuple):
        return False
    return None


# ---------------------------------------------------------------------------
# Monomials and expressions


class Monomial(Record):
    scalar: CRat
    lam: int = 0      # power of the length scale L
    twopi: int = 0    # power of 2*pi
    vreg: int = 0     # power of Vreg
    atoms: tuple = ()
    ops: tuple = ()

    def sort_key(self):
        return (tuple(op.sort_key() for op in self.ops),
                tuple(a.key for a in self.atoms),
                self.lam, self.twopi, self.vreg)

    def structure_key(self):
        """Everything but the scalar; monomials merge on this key."""
        return (self.ops, self.atoms, self.lam, self.twopi, self.vreg)

    def __str__(self) -> str:
        """Canonical text: the scalar, the coefficient factors, the
        operators, joined by `*`; a unit scalar is left out only before a
        bare operator product."""
        parts = []
        if self.lam:
            parts.append(f"L^{self.lam}")
        if self.twopi:
            parts.append(f"(2pi)^{self.twopi}")
        if self.vreg:
            parts.append("Vreg" if self.vreg == 1 else f"Vreg^{self.vreg}")
        parts.extend(str(a) for a in self.atoms)
        if parts or not self.ops or self.scalar != ONE:
            parts.insert(0, str(self.scalar))
        parts.extend(str(op) for op in self.ops)
        return "*".join(parts)


def make_monomial(scalar, lam=0, twopi=0, vreg=0,
                  atoms: Iterable[Atom] = (), ops: Iterable[LadderOperator] = ()):
    """Canonicalize one monomial; returns None when it is identically zero.

    Evaluates fully-bound Kronecker/metric atoms, collapses bound deltas to
    zero markers or zero, and merges energy-atom powers.
    """
    scalar = CRat.of(scalar)
    if not scalar:
        return None
    kept: list[Atom] = []
    merged: dict = {}
    for a in atoms:
        spec = ATOMS[a.kind]
        if spec.merges:
            k = (a.kind, a.args)
            prev = merged.get(k)
            merged[k] = a if prev is None else Atom(a.kind, prev.args,
                                                     prev.power + a.power)
            continue
        if spec.sign or spec.collapse:
            eq = _bound_equal(spec, *a.args)
            if eq is False:
                return None
            if eq is True:
                if spec.collapse:
                    kept.append(Atom(spec.collapse))
                elif spec.sign(a.args[0]) < 0:
                    scalar = -scalar
                continue
        kept.append(a)
    kept.extend(a for a in merged.values() if a.power)
    kept.sort(key=_ATOM_KEY)
    return Monomial(scalar, lam, twopi, vreg, tuple(kept), tuple(ops))


class OperatorExpr(Record):
    """Canonical formal sum of monomials."""

    terms: tuple = ()

    @classmethod
    def from_monomials(cls, monos: Iterable) -> "OperatorExpr":
        merged: dict = {}
        for m in monos:
            if m is None:
                continue
            key = m.structure_key()
            if key in merged:
                merged[key] = Monomial(merged[key].scalar + m.scalar, m.lam,
                                       m.twopi, m.vreg, m.atoms, m.ops)
            else:
                merged[key] = m
        terms = tuple(sorted((m for m in merged.values() if m.scalar),
                             key=Monomial.sort_key))
        return cls(terms)

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @classmethod
    def number(cls, scalar) -> "OperatorExpr":
        return cls.from_monomials([make_monomial(scalar)])

    @classmethod
    def from_op(cls, op: LadderOperator, scalar=1) -> "OperatorExpr":
        return cls.from_monomials([make_monomial(scalar, ops=(op,))])

    def is_zero(self) -> bool:
        return not self.terms

    def is_number(self) -> bool:
        return all(not m.ops for m in self.terms)

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr.from_monomials(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr.from_monomials(
            [Monomial(-m.scalar, m.lam, m.twopi, m.vreg, m.atoms, m.ops)
             for m in self.terms])

    def scale(self, scalar) -> "OperatorExpr":
        c = CRat.of(scalar)
        return OperatorExpr.from_monomials(
            [Monomial(m.scalar * c, m.lam, m.twopi, m.vreg, m.atoms, m.ops)
             for m in self.terms])

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        monos = []
        for x, y in itertools.product(self.terms, other.terms):
            monos.append(make_monomial(x.scalar * y.scalar, x.lam + y.lam,
                                       x.twopi + y.twopi, x.vreg + y.vreg,
                                       x.atoms + y.atoms, x.ops + y.ops))
        return OperatorExpr.from_monomials(monos)

    def dagger(self) -> "OperatorExpr":
        monos = []
        for m in self.terms:
            ops = tuple(op.adjoint() for op in reversed(m.ops))
            monos.append(make_monomial(m.scalar.conj(), m.lam, m.twopi,
                                       m.vreg, m.atoms, ops))
        return OperatorExpr.from_monomials(monos)

    def substitute(self, mapping: Mapping[str, Label]) -> "OperatorExpr":
        monos = []
        for m in self.terms:
            monos.append(make_monomial(
                m.scalar, m.lam, m.twopi, m.vreg,
                tuple(a.substitute(mapping) for a in m.atoms),
                tuple(op.substitute(mapping) for op in m.ops)))
        return OperatorExpr.from_monomials(monos)

    def __str__(self) -> str:
        """Canonical text; grammar.parse_expression(str(e)) == e."""
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.terms)


# ---------------------------------------------------------------------------
# Normal-form reduction


def _contact_factors(lo: LadderOperator, hi: LadderOperator):
    """Contact term of annihilator*creator for one species.

    Returns (scalar, lam, twopi, atoms); the energy atom uses the
    annihilator's momentum label, as printed.
    """
    deltas = (Delta4(lo.inner, hi.inner), Delta3(lo.mom, hi.mom))
    if lo.field == SCALAR:
        return CRat.of(2), -4, 7, (OmegaPow(lo.mom),) + deltas
    if lo.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE):
        return ONE, -4, 7, (ERatioPow(lo.mom), SpinDelta(lo.spin, hi.spin)) + deltas
    return (CRat.of(2), -2, 7,
            (OmegaPow(lo.mom), Metric(True, lo.pol, hi.pol),
             Metric(False, lo.ipol, hi.ipol)) + deltas)


def _first_violation(ops: tuple) -> int | None:
    for i in range(len(ops) - 1):
        if ops[i].sort_key() > ops[i + 1].sort_key():
            return i
    return None


def reduce_to_normal_form(e: OperatorExpr, keep_contact: bool = True) -> OperatorExpr:
    """Rewrite so creators stand left of annihilators in every monomial.

    Each annihilator/creator swap within one species emits the contact term
    of the governing (anti)commutation relation; operators of distinct
    species (anti)commute freely. With keep_contact=False this is normal
    ordering: contact terms are discarded, signs are kept.
    """
    done: list[Monomial] = []
    stack = list(e.terms)
    while stack:
        m = stack.pop()
        if m is None:
            continue
        i = _first_violation(m.ops)
        if i is None:
            # identical adjacent fermionic operators square to zero
            if any(a == b and a.fermionic
                   for a, b in zip(m.ops, m.ops[1:])):
                continue
            done.append(m)
            continue
        x, y = m.ops[i], m.ops[i + 1]
        sign = -1 if (x.fermionic and y.fermionic) else 1
        swapped = m.ops[:i] + (y, x) + m.ops[i + 2:]
        stack.append(make_monomial(m.scalar * CRat.of(sign), m.lam, m.twopi,
                                   m.vreg, m.atoms, swapped))
        if (keep_contact and not x.dagger and y.dagger and x.field == y.field):
            cs, clam, ctp, catoms = _contact_factors(x, y)
            stack.append(make_monomial(m.scalar * cs, m.lam + clam,
                                       m.twopi + ctp, m.vreg,
                                       m.atoms + catoms,
                                       m.ops[:i] + m.ops[i + 2:]))
    return OperatorExpr.from_monomials(done)


def normal_order(e: OperatorExpr) -> OperatorExpr:
    return reduce_to_normal_form(e, keep_contact=False)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return reduce_to_normal_form(a * b - b * a)


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return reduce_to_normal_form(a * b + b * a)


# Wick contraction. The operator-free value of a product is a list of
# canonical (scalar, lam, twopi, atoms) terms: no operators, no Vreg.

_MERGING = frozenset(k for k, spec in ATOMS.items() if spec.merges)


def _join_atoms(xs: tuple, ys: tuple) -> tuple:
    """The canonical atoms of a product of two canonical atom tuples.

    Both sides are already evaluated, collapsed and sorted, as make_monomial
    leaves them, so only energy atoms with equal arguments can meet: their
    powers add, and a power that cancels drops the atom.
    """
    if not xs or not ys:
        return xs or ys
    out: list[Atom] = []
    for a in sorted(xs + ys, key=_ATOM_KEY):
        if (out and a.kind in _MERGING and out[-1].kind == a.kind
                and out[-1].args == a.args):
            prev = out.pop()
            if prev.power + a.power:
                out.append(Atom(a.kind, prev.args, prev.power + a.power))
        else:
            out.append(a)
    return tuple(out)


def _join(c: Monomial, value: list):
    """The terms of canonical monomial `c` times an operator-free value."""
    unit = c.scalar == ONE
    for s, lam, tp, atoms in value:
        yield ((s if unit else c.scalar if s is ONE else c.scalar * s),
               c.lam + lam, c.twopi + tp, _join_atoms(c.atoms, atoms))


def _contractions(key: tuple, ops: list) -> list:
    """(canonical contact monomial, key left) for each contraction of the
    leftmost operator that can survive; `key` numbers operators in `ops`."""
    x = ops[key[0]]
    out = []
    if x.dagger:
        return out
    crossed = 0
    for j in range(1, len(key)):
        y = ops[key[j]]
        if y.dagger and y.field == x.field:
            rest = key[1:j] + key[j + 1:]
            # a remainder that starts with a creator has zero vev
            if not rest or not ops[rest[0]].dagger:
                cs, clam, ctp, catoms = _contact_factors(x, y)
                if x.fermionic and crossed % 2:
                    cs = -cs
                c = make_monomial(cs, clam, ctp, 0, catoms)
                if c is not None:
                    out.append((c, rest))
        crossed += y.fermionic
    return out


def vev(e: OperatorExpr) -> OperatorExpr:
    """Vacuum expectation value by direct Wick contraction.

    Equals the operator-free part of the normal form, without building it.
    A product whose leftmost operator is a creator has zero vev; otherwise
    its leftmost annihilator is contracted with each creator of the same
    field to its right (the contact factor of `_contact_factors`, one sign
    flip per fermionic operator a fermionic annihilator crosses), and the
    remaining operators are contracted in turn.

    The value of the operators still to contract depends on them alone (a
    fermionic sign counts crossings inside them), so it is computed once
    per distinct suffix and kept for the length of the call: the sum over
    perfect matchings becomes a dynamic program over suffixes. Each contact
    factor is canonicalized on its own, so a false delta prunes before its
    suffix is visited, and is then joined with every term of the suffix's
    value; terms merge, and cancel, within each suffix. The cost follows
    the number of distinct suffixes times the size of their operator-free
    values: polynomial when the operators are copies of a few coincident
    ones, and the number of partial pairings when all are distinct.
    """
    # a suffix is keyed by the numbers of its operators, equal operators
    # sharing one, so that a key hashes as fast as a tuple of ints
    index: dict = {}
    keys = [tuple(index.setdefault(op, len(index)) for op in m.ops)
            for m in e.terms]
    ops = list(index)
    memo: dict = {(): [(ONE, 0, 0, ())]}
    # contractions of the suffixes visited but not yet valued
    branches: dict = {}
    for top in keys:
        stack = [top]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            todo = branches.pop(key, None)
            if todo is None:
                branches[key] = todo = _contractions(key, ops)
                stack.extend(rest for _, rest in todo if rest not in memo)
                continue
            stack.pop()
            if len(todo) == 1:
                # one factor times distinct terms: nothing merges
                ((c, rest),) = todo
                memo[key] = list(_join(c, memo[rest]))
                continue
            merged: dict = {}
            for c, rest in todo:
                for s, lam, tp, atoms in _join(c, memo[rest]):
                    k = (atoms, lam, tp)
                    prev = merged.get(k)
                    merged[k] = s if prev is None else prev + s
            memo[key] = [(s, lam, tp, atoms)
                         for (atoms, lam, tp), s in merged.items() if s]
    monos = []
    for m, key in zip(e.terms, keys):
        c = make_monomial(m.scalar, m.lam, m.twopi, m.vreg, m.atoms)
        if c is not None:
            monos.extend(Monomial(s, lam, tp, c.vreg, atoms)
                         for s, lam, tp, atoms in _join(c, memo[key]))
    return OperatorExpr.from_monomials(monos)


# ---------------------------------------------------------------------------
# Delta resolution (sifting semantics)


class InconsistentBinding(ValueError):
    pass


def delta_resolve(e: OperatorExpr, bindings: Mapping[str, Label] | None = None
                  ) -> OperatorExpr:
    """Consume delta atoms by unifying their labels.

    A delta over a symbol and anything substitutes the symbol and drops the
    atom; a delta over two equal bound labels becomes a zero marker, over
    two distinct bound labels it kills the monomial. Explicit `bindings`
    are applied first and checked for consistency.
    """
    if bindings:
        for sym, val in bindings.items():
            if not isinstance(sym, str):
                raise InconsistentBinding("bindings map symbols to values")
        e = e.substitute(dict(bindings))
    out = []
    for m in e.terms:
        cur = OperatorExpr.from_monomials([m])
        while True:
            if cur.is_zero():
                break
            (mm,) = cur.terms
            delta = next((a for a in mm.atoms if ATOMS[a.kind].sifted
                          and any(isinstance(x, str) for x in a.args)), None)
            if delta is None:
                break
            rest = tuple(at for at in mm.atoms if at is not delta)
            sym, val = delta.args
            if not isinstance(sym, str):
                sym, val = val, sym
            base = OperatorExpr.from_monomials(
                [make_monomial(mm.scalar, mm.lam, mm.twopi, mm.vreg, rest, mm.ops)])
            cur = base.substitute({sym: val}) if sym != val else base
        out.extend(cur.terms)
    return OperatorExpr.from_monomials(out)


# ---------------------------------------------------------------------------
# Convenience constructors


def a(mom, inner, dagger=False) -> OperatorExpr:
    return OperatorExpr.from_op(LadderOperator(SCALAR, dagger, mom, inner))


def b(mom, spin, inner, dagger=False) -> OperatorExpr:
    return OperatorExpr.from_op(LadderOperator(DIRAC_PARTICLE, dagger, mom, inner, spin=spin))


def d(mom, spin, inner, dagger=False) -> OperatorExpr:
    return OperatorExpr.from_op(LadderOperator(DIRAC_ANTIPARTICLE, dagger, mom, inner, spin=spin))


def gauge(mom, pol, inner, ipol, dagger=False) -> OperatorExpr:
    return OperatorExpr.from_op(LadderOperator(GAUGE, dagger, mom, inner,
                                               pol=pol, ipol=ipol))
