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


def _barred_ops(ops: tuple) -> tuple:
    """Each operator with its inner label K set to its own on-shell k."""
    return tuple(opalg.LadderOperator(op.field, op.dagger, op.mom, OnShell(op.mom),
                                      op.spin, op.pol, op.ipol)
                 for op in ops)


def barred(op_expr: OperatorExpr) -> OperatorExpr:
    """Elide inner labels: every operator's K becomes its own on-shell k."""
    return OperatorExpr.from_monomials(
        make_monomial(m.scalar, m.lam, m.twopi, m.vreg, m.atoms, _barred_ops(m.ops))
        for m in op_expr.terms)


def _resolve_inner(label: Label, classes: dict, inner_to_mom: dict) -> Label:
    """An inner label as a bound value or the on-shell label of a momentum,
    that momentum taken to the label of its d3 class."""
    if isinstance(label, str):
        if label not in inner_to_mom:
            raise UnresolvedInnerLabel(
                f"inner label {label!r} is not tied to any momentum")
        label = OnShell(inner_to_mom[label])
    return opalg.substitute_label(label, classes)


def grav_limit_expr(e: OperatorExpr, cfg: RegularizationConfig = RegularizationConfig()
                    ) -> OperatorExpr:
    """Collapse inner momenta onto inertial ones monomial by monomial.

    An inner symbol is tied to the momentum of the first operator that
    carries it, and each momentum to the label of its class under the
    monomial's d3 atoms (`opalg.unify`, which never joins two distinct
    bound momenta). Each d4 atom is decided by make_monomial's rule,
    `opalg._labels_bound_equal`: equal arguments make it one Vreg/(2pi)^4,
    distinct ones (bound values, or on-shell labels of bound momenta) make
    the monomial zero, and undecided ones raise UnresolvedInnerLabel. A
    monomial whose d3 atoms contradict each other is zero. Vreg powers
    reduce via cfg.ratio; the result is barred: every operator's inner
    label becomes OnShell(its momentum).
    """
    monos = []
    for m in e.terms:
        classes, left = opalg.unify([a for a in m.atoms if a.kind == "d3"])
        inner_to_mom = {op.inner: op.mom for op in reversed(m.ops)
                        if isinstance(op.inner, str)}
        vreg = m.vreg  # each collapsed d4 is one more Vreg/(2pi)^4
        atoms = []
        for a in m.atoms:
            if a.kind == "d4":
                eq = opalg._labels_bound_equal(
                    *(_resolve_inner(x, classes, inner_to_mom) for x in a.args))
                if eq is None:
                    raise UnresolvedInnerLabel(
                        f"d4 over {a.args[0]!r}, {a.args[1]!r} does not collapse")
                if not eq:
                    break  # the monomial is zero
                vreg += 1
            elif a.kind == "d4(0)":
                vreg += 1
            else:
                atoms.append(a)
        else:
            # unify leaves a d3 only where it stopped at a false one
            if any(a.kind == "d3" for a in left):
                continue
            # each Vreg is cfg.ratio * L^4
            scalar = m.scalar * CRat(cfg.ratio ** vreg) if vreg else m.scalar
            monos.append(make_monomial(scalar, m.lam + 4 * vreg,
                                       m.twopi - 4 * (vreg - m.vreg), 0,
                                       atoms, _barred_ops(m.ops)))
    return OperatorExpr.from_monomials(monos)


def project_state(s: FockState) -> FockState:
    """Set every quantum's inner label to its on-shell inertial four-vector.

    This is `barred` on a state with bound momenta: each inner label becomes
    ~k, whose energy uses the mass of the quantum's own field wherever it is
    evaluated (fock.momentum_action). Idempotent.
    """
    if any(not isinstance(op.mom, tuple) for m in s.expr.terms for op in m.ops):
        raise ValueError("projection needs bound momentum labels")
    return FockState(barred(s.expr))
