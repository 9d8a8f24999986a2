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
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
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
# Every operator slot and every coefficient-atom argument holds a label of
# one of three types, the `arg` of its ATOMS row below:
#   MOM    a momentum: a symbol (str) or a bound 3-tuple of numbers;
#   INNER  an inner label: a symbol, a bound 4-tuple, or OnShell(mom). The
#          barred operators of the gravitational limit carry OnShell inner
#          labels, meaning "the on-shell four-vector of this operator's own
#          momentum"; its energy is evaluated only where a number is needed
#          (fock.momentum_action);
#   DISC   a spin or polarization index: a symbol or a bound int in its
#          INDEX_RANGES row.
# A bound vector's components are ints, Fractions or finite floats (a bool
# is none of these, as for DISC labels).
# One rule keys (symbols < on-shell labels < bound values), checks,
# substitutes, compares and prints them all. Bound components compare by
# exact value (int, Fraction and float alike), so two bound labels are equal
# exactly when their values are.

MOM, INNER, DISC, NONE = "mom", "inner", "disc", "none"

# The bound values of each discrete index, and the message that rejects any
# other integer; operators and the kd/eta/ETA atoms both check against it.
INDEX_RANGES = {
    "spin": ((1, 2), "spin must be 1 or 2"),
    "pol": ((0, 1, 2, 3), "spacetime polarization must be in 0..3"),
    "ipol": ((1, 2, 3), "inner polarization must be in 1..3 "
                        "(no inner-longitudinal gauge quanta)"),
}

# the size of a bound vector label, and the message that rejects any other
_VECTORS = {MOM: (3, "bound momentum labels are 3-vectors"),
            INNER: (4, "bound inner labels are 4-vectors")}


class OnShell(Record):
    mom: str | tuple


# the type of a label, for annotations
Label = "str | int | tuple | OnShell"


def label_key(l: Label):
    if isinstance(l, str):
        return (0, l)
    if isinstance(l, OnShell):
        return (1,) + label_key(l.mom)
    return (2, l)


def check_label(l: Label, arg: str, index: str | None = None) -> None:
    """Raise ValueError unless `l` is a label of ATOMS argument type `arg`;
    `index` names the INDEX_RANGES row of a DISC label."""
    if isinstance(l, str):
        return
    if arg == DISC:
        if type(l) is not int:
            raise ValueError("discrete labels bind to ints or symbols")
        allowed, message = INDEX_RANGES[index]
        if l not in allowed:
            raise ValueError(message)
    elif arg == INNER and isinstance(l, OnShell):
        check_label(l.mom, MOM)
    elif not isinstance(l, tuple) or len(l) != _VECTORS[arg][0]:
        raise ValueError(_VECTORS[arg][1])
    elif not all(type(c) in (int, Fraction) or isinstance(c, float) and math.isfinite(c)
                 for c in l):
        raise ValueError("bound label components are ints, fractions or finite floats")


def label_str(l: Label) -> str:
    if isinstance(l, OnShell):
        return f"~{label_str(l.mom)}"
    if isinstance(l, tuple):
        return "[" + ",".join(str(c) for c in l) + "]"
    return str(l)


def substitute_label(l: Label, mapping: Mapping[str, Label]) -> Label:
    if isinstance(l, str):
        return mapping.get(l, l)
    if isinstance(l, OnShell):
        return OnShell(substitute_label(l.mom, mapping))
    return l


def _labels_bound_equal(a: Label, b: Label):
    """Tri-state equality of two labels: True/False if decidable.

    Equal labels, two equal symbols included, are equal; two unequal bound
    values are not. Two on-shell labels are equal exactly when their momenta
    are.
    """
    if isinstance(a, OnShell) and isinstance(b, OnShell):
        a, b = a.mom, b.mom
    if a == b:
        return True
    if isinstance(a, (tuple, int)) and isinstance(b, (tuple, int)):
        return False
    return None


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
    """One creation (dagger) or annihilation operator.

    `key`, derived when the operator is built, is its place in normal
    order: creators first, then field kind, then the labels. It is total
    on operators, and two operators are equal exactly when their keys are.
    """

    __slots__ = ("key",)
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
        elif self.field == GAUGE:
            if self.spin is not None or self.pol is None or self.ipol is None:
                raise ValueError("gauge operators carry both polarization labels")
        else:
            if self.spin is not None or self.pol is not None or self.ipol is not None:
                raise ValueError("scalar operators carry no discrete labels")
        check_label(self.mom, MOM)
        check_label(self.inner, INNER)
        for name in INDEX_RANGES:
            value = getattr(self, name)
            if value is not None:
                check_label(value, DISC, name)
        # a None slot is None on every operator of the field, so it never
        # decides an order
        object.__setattr__(self, "key", (
            0 if self.dagger else 1, _FIELD_ORDER[self.field],
            label_key(self.mom), label_key(self.inner), label_key(self.spin),
            label_key(self.pol), label_key(self.ipol)))

    @property
    def fermionic(self) -> bool:
        return self.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE)

    def adjoint(self) -> "LadderOperator":
        return LadderOperator(self.field, not self.dagger, self.mom, self.inner,
                              self.spin, self.pol, self.ipol)

    def substitute(self, mapping: Mapping[str, Label]) -> "LadderOperator":
        return LadderOperator(self.field, self.dagger, *(
            substitute_label(l, mapping)
            for l in (self.mom, self.inner, self.spin, self.pol, self.ipol)))

    def __str__(self) -> str:
        head = FIELD_HEAD[self.field] + ("'" if self.dagger else "")
        parts = [label_str(self.mom)]
        if self.spin is not None:
            parts.append(f"s={label_str(self.spin)}")
        if self.pol is not None:
            parts.append(f"g={label_str(self.pol)}")
        inner = label_str(self.inner)
        if self.ipol is not None:
            inner += f",G={label_str(self.ipol)}"
        return f"{head}({','.join(parts)};{inner})"


# ---------------------------------------------------------------------------
# Coefficient atoms
#
# Every coefficient factor of the (anti)commutation relations is one Atom:
# a kind, a tuple of arguments and an integer power. A kind's row in ATOMS
# decides everything that depends on the kind:
#   rank       position in the canonical order of a monomial's atoms;
#   arg        the label type of every argument (MOM, INNER or DISC, see
#              Labels), or NONE for an atom without arguments;
#   arity      how many arguments the atom takes;
#   symmetric  whether the two arguments are unordered (stored in
#              label_key order, so a symbol comes first);
#   merges     whether atoms with equal arguments multiply by adding powers
#              (all other kinds take power 1 and repeat instead);
#   sign       for a Kronecker/metric pair: the factor left by two equal
#              indices of a given value; a pair over one symbol leaves it
#              when it is the same over the whole index range, and two
#              distinct bound indices kill the monomial;
#   collapse   for a delta over labels: the argument-free kind that two
#              equal labels become (two distinct bound ones kill it);
#   sifted     whether `unify` consumes the atom (for delta_resolve);
#   index      for a Kronecker/metric pair: the INDEX_RANGES row that bounds
#              its integer arguments;
#   brackets, sep  how the arguments print after the kind's name.
# The kind's name is its printed head, and the grammar parses atoms from
# the same rows.


class AtomSpec(Record):
    rank: int
    arg: str = NONE
    arity: int = 0
    symmetric: bool = False
    merges: bool = False
    sign: Callable[[int], int] | None = None
    collapse: str | None = None
    sifted: bool = False
    index: str | None = None
    brackets: str = "()"
    sep: str = ","


ATOMS = {
    "w": AtomSpec(0, MOM, 1, merges=True),
    "E/m": AtomSpec(1, MOM, 1, merges=True),
    "kd": AtomSpec(2, DISC, 2, symmetric=True, sign=lambda idx: 1, sifted=True,
                   index="spin"),
    "eta": AtomSpec(3, DISC, 2, symmetric=True,
                    sign=lambda idx: 1 if idx == 0 else -1, index="pol",
                    brackets="[]"),
    "ETA": AtomSpec(4, DISC, 2, symmetric=True, sign=lambda idx: -1,
                    index="ipol", brackets="[]"),
    "d3": AtomSpec(5, MOM, 2, symmetric=True, collapse="d3(0)", sifted=True,
                   sep="-"),
    "d4": AtomSpec(6, INNER, 2, symmetric=True, collapse="d4(0)", sifted=True,
                   sep="-"),
    "d3(0)": AtomSpec(7),
    "d4(0)": AtomSpec(8),
}


class Atom(Record):
    """One coefficient factor; `key`, derived when it is built, is its place
    in the canonical order. Its text is built once, by the first `str()`,
    and kept in `_text`; like `key`, it is not a field."""

    __slots__ = ("key", "_text")
    kind: str
    args: tuple = ()
    power: int = 1

    def __post_init__(self):
        spec = ATOMS[self.kind]
        if len(self.args) != spec.arity:
            raise ValueError(f"{self.kind} takes {spec.arity} arguments")
        try:
            for x in self.args:
                check_label(x, spec.arg, spec.index)
        except ValueError as exc:
            raise ValueError(f"{self.kind}: {exc}") from None
        keys = [label_key(x) for x in self.args]
        if spec.symmetric and keys[0] > keys[1]:
            object.__setattr__(self, "args", self.args[::-1])
            keys.reverse()
        object.__setattr__(self, "key", (spec.rank, *keys, self.power))
        object.__setattr__(self, "_text", None)

    def substitute(self, mapping: Mapping[str, Label]) -> "Atom":
        return Atom(self.kind, tuple(substitute_label(x, mapping)
                                     for x in self.args), self.power)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = _atom_text(self)
            object.__setattr__(self, "_text", text)
        return text


def _atom_text(atom: Atom) -> str:
    spec = ATOMS[atom.kind]
    s = atom.kind
    if atom.args:
        s += (spec.brackets[0] + spec.sep.join(label_str(x) for x in atom.args)
              + spec.brackets[1])
    return s if atom.power == 1 else f"{s}^{atom.power}"


_KEY = attrgetter("key")


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
        return (tuple(map(_KEY, self.ops)), tuple(map(_KEY, self.atoms)),
                self.lam, self.twopi, self.vreg)

    def structure_key(self):
        """Everything but the scalar; monomials merge on this key."""
        return (self.ops, self.atoms, self.lam, self.twopi, self.vreg)

    def __neg__(self) -> "Monomial":
        return Monomial(-self.scalar, self.lam, self.twopi, self.vreg,
                        self.atoms, self.ops)

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
            eq = _labels_bound_equal(*a.args)
            if eq is False:
                return None
            if eq is True:
                if spec.collapse:
                    kept.append(Atom(spec.collapse))
                    continue
                # over a symbol, the sign its whole index range agrees on
                x = a.args[0]
                signs = {spec.sign(i) for i in (
                    INDEX_RANGES[spec.index][0] if isinstance(x, str) else (x,))}
                if len(signs) == 1:
                    if signs.pop() < 0:
                        scalar = -scalar
                    continue
        kept.append(a)
    kept.extend(a for a in merged.values() if a.power)
    kept.sort(key=_KEY)
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
            key, n = m.structure_key(), len(merged)
            prev = merged.setdefault(key, m)  # hashes the key once
            if len(merged) == n:
                merged[key] = Monomial(prev.scalar + m.scalar, m.lam,
                                       m.twopi, m.vreg, m.atoms, m.ops)
        terms = [m for m in merged.values() if m.scalar]
        return cls(tuple(sorted(terms, key=Monomial.sort_key) if len(terms) > 1 else terms))

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

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr.from_monomials(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr(tuple(-m for m in self.terms))

    def scale(self, scalar) -> "OperatorExpr":
        c = CRat.of(scalar)
        return OperatorExpr.from_monomials(
            [Monomial(m.scalar * c, m.lam, m.twopi, m.vreg, m.atoms, m.ops)
             for m in self.terms])

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        return product((self.terms, other.terms))

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


def product(factors: Iterable[Iterable[Monomial]]) -> OperatorExpr:
    """The product of sums, each given by its terms, in order: one
    `make_monomial` call per term of the product, so the factors' terms
    need not be canonical (the grammar passes bare monomials)."""
    monos = []
    for ms in itertools.product(*factors):
        scalar, lam, twopi, vreg, atoms, ops = ONE, 0, 0, 0, [], []
        for m in ms:
            if m.scalar is not ONE and m.scalar != ONE:
                scalar = m.scalar if scalar is ONE else scalar * m.scalar
            lam += m.lam
            twopi += m.twopi
            vreg += m.vreg
            atoms += m.atoms
            ops += m.ops
        monos.append(make_monomial(scalar, lam, twopi, vreg, atoms, ops))
    return OperatorExpr.from_monomials(monos)


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


_MERGING = frozenset(k for k, spec in ATOMS.items() if spec.merges)


def _insert(x: int, term: tuple, ctx: tuple) -> list:
    """The terms of `x` times one normal-ordered term ((lam, twopi, atoms,
    ops), scalar), coded as in `_wick`. `x` moves right past each operator
    of smaller code, the sign flipping when both are fermionic, and an
    annihilator passing a creator of its own field leaves their contact
    term; `x` lands before the first operator not below it, where an equal
    fermion makes the term zero. `ctx` is (cache, contact): the cache maps
    each pair met in one call to its coded contact term or None, so that a
    pair is canonicalized once; a None cache drops contact terms."""
    (lam, tp, atoms, ops), s = term
    contacts, contact = ctx
    out = []
    for i, y in enumerate(ops):
        if y >= x:
            if x & 2 and y == x:
                return out
            break
        if contacts is not None:
            c = contacts.get((x, y), False)
            if c is False:
                c = contacts[x, y] = contact(x, y)
            if c is not None:
                cs, clam, ctp, catoms = c
                out.append(((lam + clam, tp + ctp,
                             tuple(sorted(atoms + catoms)) if atoms else catoms,
                             ops[:i] + ops[i + 1:]), s * cs))
        if x & y & 2:
            s = -s
    else:
        i = len(ops)
    out.append(((lam, tp, atoms, ops[:i] + (x,) + ops[i:]), s))
    return out


def _merge_powers(atoms: list) -> tuple:
    """Atoms in key order, equal energy atoms multiplied: their powers
    add, and a power that cancels drops the atom."""
    out: list[Atom] = []
    for a in atoms:
        if (out and a.kind in _MERGING and out[-1].kind == a.kind
                and out[-1].args == a.args):
            prev = out.pop()
            if prev.power + a.power:
                out.append(Atom(a.kind, prev.args, prev.power + a.power))
        else:
            out.append(a)
    return tuple(out)


def _wick(e: OperatorExpr, on_vacuum: bool, keep_contact: bool = True) -> list:
    """The normal-ordered monomials of `e`, unmerged across its terms.

    Terms are coded per call: an operator is 4 * its rank in key order, plus
    2 if fermionic and 1 if a creator; the atoms are a sorted tuple of atom
    codes, a multiset; the scalar is the plain int or Fraction of the
    contact factors and signs gathered. Each monomial's operators are
    inserted right to left into the normal-ordered product of those after
    them (`_insert`); equal terms merge after each insertion and a zero sum
    is skipped where it is read, so coincident operators, whose pairings all
    merge, cost polynomial time. Each surviving term is decoded once: atoms
    in key order, equal energy atoms multiplied, the monomial's scalar.

    With `on_vacuum` the product acts on |0>: a term ending in an
    annihilator is dropped at once, as annihilators come last in normal
    order and insertion only removes creators, so creators are left.
    """
    ops = sorted({op for m in e.terms for op in m.ops}, key=_KEY)
    rank = {op: 4 * r + 2 * op.fermionic + op.dagger for r, op in enumerate(ops)}
    codes: dict = {}        # atom -> code
    known: dict = {(): ()}  # code tuple -> the canonical atoms it was made from

    def code(atoms):
        k = tuple(sorted([codes.setdefault(a, len(codes)) for a in atoms]))
        known[k] = atoms
        return k

    def contact(x, y):
        lo, hi = ops[x >> 2], ops[y >> 2]
        if not y & 1 or lo.field != hi.field:
            return None
        cs, clam, ctp, catoms = _contact_factors(lo, hi)
        c = make_monomial(cs, clam, ctp, 0, catoms)
        if c is None:
            return None
        cs = c.scalar.re  # contact factors are real
        return (cs.numerator if cs.denominator == 1 else cs), c.lam, c.twopi, code(c.atoms)

    touching = ({} if keep_contact else None, contact)
    coded = []
    for m in e.terms:
        terms = {(m.lam, m.twopi, code(m.atoms) if m.atoms else (), ()): 1}
        for x in map(rank.__getitem__, reversed(m.ops)):
            ctx = (None, None) if x & 1 else touching
            merged: dict = {}
            for term in terms.items():
                if term[1]:
                    for k, s in _insert(x, term, ctx):
                        if not (on_vacuum and k[3] and not k[3][-1] & 1):
                            prev = merged.get(k)
                            merged[k] = s if prev is None else prev + s
            terms = merged
        coded.append((m, terms))
    place = None  # atom code -> its place in key order
    monos = []
    for m, terms in coded:
        scalars = {1: m.scalar}
        for (lam, tp, k, xs), s in terms.items():
            if s:
                atoms = known.get(k)
                if atoms is None:
                    if place is None:
                        by_key = sorted(codes, key=_KEY)
                        place = dict(zip(map(codes.__getitem__, by_key), itertools.count()))
                    atoms = _merge_powers([by_key[r] for r in sorted(map(place.__getitem__, k))])
                c = scalars.get(s)
                if c is None:
                    c = CRat(Fraction(s))
                    c = scalars[s] = c if m.scalar == ONE else m.scalar * c
                xs = tuple([ops[x >> 2] for x in xs])
                monos.append(Monomial(c, lam, tp, m.vreg, atoms, xs))
    return monos


def reduce_to_normal_form(e: OperatorExpr, keep_contact: bool = True) -> OperatorExpr:
    """Rewrite so creators stand left of annihilators in every monomial
    (`_wick`). Operators of distinct species (anti)commute freely; an
    annihilator passing a creator of its own species emits the contact
    term of the governing (anti)commutation relation, each distinct pair's
    canonicalized once per call. With keep_contact=False this is normal
    ordering: contact terms are discarded, signs are kept.
    """
    return OperatorExpr.from_monomials(_wick(e, False, keep_contact))


def normal_order(e: OperatorExpr) -> OperatorExpr:
    return reduce_to_normal_form(e, keep_contact=False)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return reduce_to_normal_form(a * b - b * a)


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return reduce_to_normal_form(a * b + b * a)


def vev(e: OperatorExpr) -> OperatorExpr:
    """Vacuum expectation value: the operator-free part of `e` acting on
    |0> (`_wick`)."""
    return OperatorExpr.from_monomials(m for m in _wick(e, True) if not m.ops)


# ---------------------------------------------------------------------------
# Delta resolution (sifting semantics)


class InconsistentBinding(ValueError):
    pass


def unify(atoms: Sequence[Atom]) -> tuple[dict, list]:
    """Consume the sifted atoms among canonical `atoms` by unifying labels.

    Returns a one-step substitution, applied once (`h` may map to `~h`), and
    the atoms not consumed, substituted. Each step binds the symbol of the
    canonically first sifted atom over one to its other label, through the
    sifted atoms left: one over equal labels collapses to its zero marker
    (a kd to 1), one over distinct bound labels ends the pass, as the
    monomial is zero. A label of the wrong type for its slot raises
    ValueError."""
    mapping: dict = {}
    sifted = [a for a in atoms if ATOMS[a.kind].sifted]
    rest = [a for a in atoms if not ATOMS[a.kind].sifted]
    while heads := [a for a in sifted if isinstance(a.args[0], str)]:
        head = min(heads, key=_KEY)
        sifted.remove(head)
        sym, val = head.args
        step = {sym: val}
        mapping = {s: substitute_label(l, step) for s, l in mapping.items()}
        mapping.setdefault(sym, val)
        sifted = [a.substitute(step) for a in sifted]
        eqs = [_labels_bound_equal(*a.args) for a in sifted]
        if False in eqs:
            break  # the false atom is among those returned
        rest += [Atom(ATOMS[a.kind].collapse) for a, eq in zip(sifted, eqs)
                 if eq and ATOMS[a.kind].collapse]
        sifted = [a for a, eq in zip(sifted, eqs) if eq is None]
    return mapping, [a.substitute(mapping) for a in rest] + sifted


def delta_resolve(e: OperatorExpr, bindings: Mapping[str, Label] | None = None
                  ) -> OperatorExpr:
    """Consume delta atoms by unifying their labels.

    A delta over a symbol and anything substitutes the symbol and drops the
    atom; a delta over two equal labels becomes a zero marker, over two
    distinct bound labels it kills the monomial. `unify` does this; a
    monomial it changed is rebuilt by one substitution and one
    `make_monomial` call. Explicit `bindings` are applied first; a value
    that is not a label of its symbol's type raises ValueError.
    """
    if bindings:
        if not all(isinstance(sym, str) for sym in bindings):
            raise InconsistentBinding("bindings map symbols to values")
        e = e.substitute(dict(bindings))
    out = []
    for m in e.terms:
        mapping, atoms = unify(m.atoms)
        if mapping:
            m = make_monomial(m.scalar, m.lam, m.twopi, m.vreg, atoms,
                              [op.substitute(mapping) for op in m.ops])
        out.append(m)
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
