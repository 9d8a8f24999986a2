"""The gravitational limit: project inner momenta onto on-shell inertial
momenta, regularize the inner volume, and reduce Vreg against the length
scale.

The regularization rewrite (2pi)^4 d4(0) -> Vreg is a formal atom
substitution, never a floating-point infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import opalg
from .fock import FockState
from .opalg import CRat, Label, OnShell, OperatorExpr, make_monomial
from .record import Record


class UnresolvedInnerLabel(ValueError):
    """A d4 atom argument cannot be tied to an on-shell momentum."""


class RegularizationConfig(Record):
    lam: float = 1.0
    v_reg: float = 1.0

    def __post_init__(self):
        for name, value in (("lambda", self.lam), ("v_reg", self.v_reg)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")

    @property
    def ratio(self) -> Fraction:
        """Vreg / lambda^4, exact when built from exact inputs (default 1)."""
        return Fraction(self.v_reg) / Fraction(self.lam) ** 4


def barred(op_expr: OperatorExpr) -> OperatorExpr:
    """Elide inner labels: every operator's K becomes its own on-shell k."""
    monos = []
    for m in op_expr.terms:
        ops = tuple(
            opalg.LadderOperator(op.field, op.dagger, op.mom, OnShell(op.mom),
                                 op.spin, op.pol, op.ipol)
            for op in m.ops)
        monos.append(make_monomial(m.scalar, m.lam, m.twopi, m.vreg, m.atoms, ops))
    return OperatorExpr.from_monomials(monos)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # prefer bound labels as roots, then the smaller key
            if isinstance(ra, tuple) or (not isinstance(rb, tuple)
                                         and opalg.label_key(ra) < opalg.label_key(rb)):
                ra, rb = rb, ra
            self.parent[ra] = rb


def _resolve_inner(label: Label, uf: _UnionFind, inner_to_mom: dict):
    """Map an inner label to a comparable 'collapsed' token."""
    if isinstance(label, OnShell):
        return ("onshell", uf.find(label.mom))
    if isinstance(label, tuple):
        return ("bound", label)
    if label in inner_to_mom:
        return ("onshell", uf.find(inner_to_mom[label]))
    raise UnresolvedInnerLabel(f"inner label {label!r} is not tied to any momentum")


def grav_limit_expr(e: OperatorExpr, cfg: RegularizationConfig = RegularizationConfig()
                    ) -> OperatorExpr:
    """Collapse inner momenta onto inertial ones monomial by monomial.

    Every d4 atom whose two arguments collapse to the same value becomes
    Vreg/(2pi)^4; remaining Vreg powers reduce via cfg.ratio; the result is
    barred, so every operator's inner label becomes OnShell(its momentum).
    """
    monos = []
    for m in e.terms:
        uf = _UnionFind()
        for a in m.atoms:
            if a.kind == "d3":
                uf.union(*a.args)
        inner_to_mom: dict = {}
        for op in m.ops:
            if isinstance(op.inner, str):
                inner_to_mom.setdefault(op.inner, op.mom)
        scalar, lam, twopi, vreg = m.scalar, m.lam, m.twopi, m.vreg
        atoms = []
        dead = False
        for a in m.atoms:
            if a.kind == "d4":
                ra, rb = (_resolve_inner(x, uf, inner_to_mom) for x in a.args)
                if ra == rb:
                    vreg += 1
                    twopi -= 4
                elif ra[0] == "bound" and rb[0] == "bound":
                    dead = True
                    break
                else:
                    raise UnresolvedInnerLabel(
                        f"d4 over {a.args[0]!r}, {a.args[1]!r} does not collapse")
            elif a.kind == "d4(0)":
                vreg += 1
                twopi -= 4
            else:
                atoms.append(a)
        if dead:
            continue
        if vreg:
            ratio = cfg.ratio ** vreg
            scalar = scalar * CRat(ratio)
            lam += 4 * vreg
            vreg = 0
        monos.append(make_monomial(scalar, lam, twopi, vreg, tuple(atoms),
                                   m.ops))
    return barred(OperatorExpr.from_monomials(monos))


def project_state(s: FockState) -> FockState:
    """Set every quantum's inner label to its on-shell inertial four-vector.

    This is `barred` on a state with bound momenta: each inner label becomes
    ~k, whose energy uses the mass of the quantum's own field wherever it is
    evaluated (fock.momentum_action). Idempotent.
    """
    if any(not isinstance(op.mom, tuple) for m in s.expr.terms for op in m.ops):
        raise ValueError("projection needs bound momentum labels")
    return FockState(barred(s.expr))
