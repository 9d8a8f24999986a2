"""Canonical-form noncommutative algebra of ladder operators.

Expressions are formal sums of monomials: an exact complex-rational scalar,
explicit powers of the length scale L, of 2*pi and of the regularized inner
volume Vreg, a multiset of symbolic coefficient atoms (energies, deltas,
metric factors), and an ordered product of ladder operators.

All arithmetic in this layer is exact; identity checks never see floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

# ---------------------------------------------------------------------------
# Exact complex-rational scalars


@dataclass(frozen=True)
class CRat:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

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
        return CRat(self.re + o.re, self.im + o.im)

    def __mul__(self, o: "CRat") -> "CRat":
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def conj(self) -> "CRat":
        return CRat(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


ONE = CRat(Fraction(1))
I = CRat(Fraction(0), Fraction(1))

# ---------------------------------------------------------------------------
# Labels
#
# A momentum label is a symbol (str) or a bound 3-tuple of Fractions/floats.
# An inner label is a symbol, a bound 4-tuple, or OnShell(mom): the barred
# operators of the gravitational limit carry OnShell inner labels, meaning
# "the on-shell four-vector of this operator's own momentum".


@dataclass(frozen=True)
class OnShell:
    mom: Union[str, tuple]


Label = Union[str, tuple, OnShell]


def label_key(l: Label):
    if isinstance(l, str):
        return (0, l)
    if isinstance(l, OnShell):
        return (1,) + label_key(l.mom)
    return (2, tuple(float(c) for c in l))


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
_FIELD_HEAD = {SCALAR: "a", DIRAC_PARTICLE: "b", DIRAC_ANTIPARTICLE: "d", GAUGE: "A"}


@dataclass(frozen=True)
class LadderOperator:
    field: str
    dagger: bool
    mom: Label
    inner: Label
    spin: Union[int, str, None] = None
    pol: Union[int, str, None] = None  # spacetime polarization, gauge only
    ipol: Union[int, str, None] = None  # inner polarization, gauge only

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
        head = _FIELD_HEAD[self.field] + ("'" if self.dagger else "")
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


@dataclass(frozen=True)
class OmegaPow:
    """omega_k to an integer power, for a momentum label."""
    mom: Label
    power: int = 1


@dataclass(frozen=True)
class ERatioPow:
    """(k0/m) to an integer power, for a momentum label."""
    mom: Label
    power: int = 1


@dataclass(frozen=True)
class Delta3:
    """(2pi)-free spatial delta over two momentum labels, symmetric."""
    a: Label
    b: Label

    def __post_init__(self):
        if label_key(self.a) > label_key(self.b):
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True)
class Delta4:
    """Inner-space delta over two inner labels, symmetric."""
    a: Label
    b: Label

    def __post_init__(self):
        if label_key(self.a) > label_key(self.b):
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True)
class Delta3Zero:
    pass


@dataclass(frozen=True)
class Delta4Zero:
    pass


@dataclass(frozen=True)
class SpinDelta:
    """Kronecker delta over two spin labels, symmetric."""
    a: Union[int, str]
    b: Union[int, str]

    def __post_init__(self):
        if _disc_key(self.a) > _disc_key(self.b):
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True)
class Metric:
    """eta^{gg'} factor; space=True for spacetime, False for inner indices."""
    space: bool
    a: Union[int, str]
    b: Union[int, str]

    def __post_init__(self):
        if _disc_key(self.a) > _disc_key(self.b):
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


Atom = Union[OmegaPow, ERatioPow, Delta3, Delta4, Delta3Zero, Delta4Zero,
             SpinDelta, Metric]

_ATOM_RANK = {OmegaPow: 0, ERatioPow: 1, SpinDelta: 2, Metric: 3,
              Delta3: 4, Delta4: 5, Delta3Zero: 6, Delta4Zero: 7}


def _disc_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def atom_key(a: Atom):
    r = _ATOM_RANK[type(a)]
    if isinstance(a, (OmegaPow, ERatioPow)):
        return (r, label_key(a.mom), a.power)
    if isinstance(a, (Delta3, Delta4)):
        return (r, label_key(a.a), label_key(a.b))
    if isinstance(a, (SpinDelta,)):
        return (r, _disc_key(a.a), _disc_key(a.b))
    if isinstance(a, Metric):
        return (r, not a.space, _disc_key(a.a), _disc_key(a.b))
    return (r,)


def _atom_substitute(a: Atom, mapping: Mapping[str, Label]) -> Atom:
    if isinstance(a, OmegaPow):
        return OmegaPow(substitute_label(a.mom, mapping), a.power)
    if isinstance(a, ERatioPow):
        return ERatioPow(substitute_label(a.mom, mapping), a.power)
    if isinstance(a, Delta3):
        return Delta3(substitute_label(a.a, mapping), substitute_label(a.b, mapping))
    if isinstance(a, Delta4):
        return Delta4(substitute_label(a.a, mapping), substitute_label(a.b, mapping))
    if isinstance(a, SpinDelta):
        sub = lambda v: mapping.get(v, v) if isinstance(v, str) else v
        return SpinDelta(sub(a.a), sub(a.b))
    if isinstance(a, Metric):
        sub = lambda v: mapping.get(v, v) if isinstance(v, str) else v
        return Metric(a.space, sub(a.a), sub(a.b))
    return a


def atom_str(a: Atom) -> str:
    if isinstance(a, OmegaPow):
        base = f"w({label_str(a.mom)})"
        return base if a.power == 1 else f"{base}^{a.power}"
    if isinstance(a, ERatioPow):
        base = f"E/m({label_str(a.mom)})"
        return base if a.power == 1 else f"{base}^{a.power}"
    if isinstance(a, Delta3):
        return f"d3({label_str(a.a)}-{label_str(a.b)})"
    if isinstance(a, Delta4):
        return f"d4({label_str(a.a)}-{label_str(a.b)})"
    if isinstance(a, Delta3Zero):
        return "d3(0)"
    if isinstance(a, Delta4Zero):
        return "d4(0)"
    if isinstance(a, SpinDelta):
        return f"kd({a.a},{a.b})"
    if isinstance(a, Metric):
        return f"eta[{a.a},{a.b}]" if a.space else f"ETA[{a.a},{a.b}]"
    raise TypeError(a)  # pragma: no cover


def _metric_sign(space: bool, idx: int) -> int:
    if space:
        return 1 if idx == 0 else -1
    return -1  # inner indices run over 1..3 only


def _labels_bound_equal(a: Label, b: Label):
    """Tri-state equality for delta arguments: True/False if decidable."""
    if a == b:
        return True
    ab = isinstance(a, tuple)
    bb = isinstance(b, tuple)
    if ab and bb:
        return all(float(x) == float(y) for x, y in zip(a, b))
    if isinstance(a, OnShell) and isinstance(b, OnShell):
        return None if a.mom != b.mom else True
    return None


# ---------------------------------------------------------------------------
# Monomials and expressions


@dataclass(frozen=True)
class Monomial:
    scalar: CRat
    lam: int = 0      # power of the length scale L
    twopi: int = 0    # power of 2*pi
    vreg: int = 0     # power of Vreg
    atoms: tuple = ()
    ops: tuple = ()

    def sort_key(self):
        return (tuple(op.sort_key() for op in self.ops),
                tuple(atom_key(a) for a in self.atoms),
                self.lam, self.twopi, self.vreg)

    def structure_key(self):
        """Everything but the scalar; monomials merge on this key."""
        return (self.ops, self.atoms, self.lam, self.twopi, self.vreg)

    def coeff_str(self) -> str:
        parts = [str(self.scalar)]
        if self.lam:
            parts.append(f"L^{self.lam}")
        if self.twopi:
            parts.append(f"(2pi)^{self.twopi}")
        if self.vreg:
            parts.append("Vreg" if self.vreg == 1 else f"Vreg^{self.vreg}")
        parts.extend(atom_str(a) for a in self.atoms)
        return "*".join(parts)

    def __str__(self) -> str:
        s = self.coeff_str()
        if self.ops:
            s += "*" + "*".join(str(op) for op in self.ops)
        return s


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
    omega: dict[Label, int] = {}
    eratio: dict[Label, int] = {}
    for a in atoms:
        if isinstance(a, OmegaPow):
            omega[a.mom] = omega.get(a.mom, 0) + a.power
        elif isinstance(a, ERatioPow):
            eratio[a.mom] = eratio.get(a.mom, 0) + a.power
        elif isinstance(a, SpinDelta):
            if isinstance(a.a, int) and isinstance(a.b, int):
                if a.a != a.b:
                    return None
            else:
                kept.append(a)
        elif isinstance(a, Metric):
            if isinstance(a.a, int) and isinstance(a.b, int):
                if a.a != a.b:
                    return None
                scalar = scalar * CRat.of(_metric_sign(a.space, a.a))
            else:
                kept.append(a)
        elif isinstance(a, (Delta3, Delta4)):
            eq = _labels_bound_equal(a.a, a.b)
            if eq is True:
                kept.append(Delta3Zero() if isinstance(a, Delta3) else Delta4Zero())
            elif eq is False:
                return None
            else:
                kept.append(a)
        else:
            kept.append(a)
    if not scalar:
        return None
    for mom, p in omega.items():
        if p:
            kept.append(OmegaPow(mom, p))
    for mom, p in eratio.items():
        if p:
            kept.append(ERatioPow(mom, p))
    kept.sort(key=atom_key)
    return Monomial(scalar, lam, twopi, vreg, tuple(kept), tuple(ops))


@dataclass(frozen=True)
class OperatorExpr:
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
                tuple(_atom_substitute(a, mapping) for a in m.atoms),
                tuple(op.substitute(mapping) for op in m.ops)))
        return OperatorExpr.from_monomials(monos)

    def __str__(self) -> str:
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


def vev(e: OperatorExpr) -> OperatorExpr:
    """Vacuum expectation value by direct Wick contraction.

    Equals the operator-free part of the normal form, without building it.
    A product whose leftmost operator is a creator has zero vev; otherwise
    its leftmost annihilator is contracted with each creator of the same
    field to its right (the contact factor of `_contact_factors`, one sign
    flip per fermionic operator a fermionic annihilator crosses), and the
    remaining operators are contracted in turn. Each partial coefficient is
    canonicalized as it is built, so a false delta prunes every pairing
    below it. The cost is the number of surviving partial pairings, not
    the size of the normal form.
    """
    done: list[Monomial] = []
    # (coefficient, operators still to contract); the coefficient's own
    # operators are ignored
    stack = [(m, m.ops) for m in e.terms]
    while stack:
        m, ops = stack.pop()
        if not ops:
            done.append(m)
            continue
        x = ops[0]
        if x.dagger:
            continue
        crossed = 0
        for j in range(1, len(ops)):
            y = ops[j]
            if y.dagger and y.field == x.field:
                rest = ops[1:j] + ops[j + 1:]
                # a remainder that starts with a creator has zero vev
                if not rest or not rest[0].dagger:
                    cs, clam, ctp, catoms = _contact_factors(x, y)
                    if x.fermionic and crossed % 2:
                        cs = -cs
                    c = make_monomial(m.scalar * cs, m.lam + clam,
                                      m.twopi + ctp, m.vreg, m.atoms + catoms)
                    if c is not None:
                        stack.append((c, rest))
            crossed += y.fermionic
    return OperatorExpr.from_monomials(done)


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
            delta = next((a for a in mm.atoms
                          if isinstance(a, (Delta3, Delta4, SpinDelta))
                          and (isinstance(a.a, str) or isinstance(a.b, str))),
                         None)
            if delta is None:
                break
            rest = tuple(at for at in mm.atoms if at is not delta)
            sym, val = ((delta.a, delta.b) if isinstance(delta.a, str)
                        else (delta.b, delta.a))
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
