"""Multi-quanta states: vacuum construction, inner products, eigen-actions.

A FockState is an OperatorExpr of pure creation monomials understood as
acting on the vacuum. Applying an arbitrary expression normal-orders it on
the vacuum, dropping each term as soon as it ends in an annihilator.
"""

from __future__ import annotations

import math
from operator import add

from . import opalg
from .opalg import (GAUGE, LadderOperator, Monomial, OnShell, OperatorExpr,
                    reduce_to_normal_form, vev)
from .record import Record


class SupportError(ValueError):
    """Inner momentum outside the closed forward cone."""


def _check_support(op: LadderOperator) -> None:
    """Bound inner labels must satisfy t >= 0 and t^2 >= |K|^2, decided
    exactly in integers: the components times a common denominator."""
    if isinstance(op.inner, tuple):
        ratios = [c.as_integer_ratio() for c in op.inner]
        den = math.prod(d for _, d in ratios)
        t, x, y, z = (n * (den // d) for n, d in ratios)
        if t < 0 or t * t < x * x + y * y + z * z:
            raise SupportError(f"inner momentum {op.inner} lies outside "
                               "the closed forward cone")


class FockState(Record):
    expr: OperatorExpr

    @classmethod
    def vacuum(cls) -> "FockState":
        return cls(OperatorExpr.number(1))

    @classmethod
    def ket(cls, *creators: LadderOperator) -> "FockState":
        """Basis ket: a product of creation operators applied to |0>, in
        normal order (zero when two fermions are equal)."""
        for op in creators:
            if not op.dagger:
                raise ValueError("kets are built from creation operators")
            _check_support(op)
        return cls(reduce_to_normal_form(OperatorExpr(
            (Monomial(opalg.ONE, ops=creators),))))

    def is_zero(self) -> bool:
        return self.expr.is_zero()

    def __add__(self, other: "FockState") -> "FockState":
        return FockState(self.expr + other.expr)

    def scale(self, c) -> "FockState":
        return FockState(self.expr.scale(c))


def apply(e: OperatorExpr, s: FockState) -> FockState:
    """Left-multiply and annihilate the vacuum on the right."""
    return FockState(OperatorExpr.from_monomials(opalg._wick(e * s.expr, True)))


def inner_product(bra: FockState, ket: FockState) -> OperatorExpr:
    """<bra|ket> as an exact coefficient sum (a pure-number OperatorExpr)."""
    return vev(bra.expr.dagger() * ket.expr)


def _quantum_weight(op: LadderOperator) -> int:
    """eta^{gg} eta^{GG} of a gauge quantum (eta^{GG} = -1, G in 1..3);
    +1 for matter."""
    if op.field != GAUGE:
        return 1
    if not isinstance(op.pol, int) or not isinstance(op.ipol, int):
        raise ValueError("gauge quanta need bound polarization labels here")
    return (1 if op.pol == 0 else -1) * (-1)


def norm_sign(ket: Monomial | FockState) -> int:
    """Product of eta^{gg} eta^{GG} over gauge quanta; matter contributes +1."""
    if isinstance(ket, FockState):
        if len(ket.expr.terms) != 1:
            raise ValueError("norm sign is defined for basis kets")
        (ket,) = ket.expr.terms
    return math.prod(_quantum_weight(op) for op in ket.ops)


def physical_filter(s: FockState) -> FockState:
    """Drop every ket containing a gauge quantum with spacetime pol 0."""
    kept = []
    for m in s.expr.terms:
        for op in m.ops:
            if op.field == GAUGE:
                if not isinstance(op.pol, int):
                    raise ValueError("physical filter needs bound polarizations")
                if op.pol == 0:
                    break
        else:
            kept.append(m)
    return FockState(OperatorExpr.from_monomials(kept))


class FieldMasses(Record):
    """Mass of each field species, used wherever an on-shell energy is needed."""

    scalar: float = 1.0
    dirac: float = 1.0
    gauge: float = 1.0

    def of(self, field: str) -> float:
        if field == opalg.SCALAR:
            return self.scalar
        if field == opalg.GAUGE:
            return self.gauge
        return self.dirac


def momentum_action(which: str, s: FockState,
                    masses: FieldMasses = FieldMasses()) -> list:
    """Per-ket eigenvalues of the inertial (p) or inner (P) momentum.

    Returns [(monomial, eigenvalue 4-tuple), ...]; gauge quanta contribute
    with their eta^{gg} eta^{GG} weight. Labels must be bound. A quantum's p
    is the on-shell four-vector ~k of its momentum, so the p action of a ket
    is the P action of its barred ket (gravlimit.project_state); an on-shell
    inner label ~k takes its energy from the mass of the quantum's field; an
    energy beyond float range raises ValueError.
    """
    if which not in ("p", "P"):
        raise ValueError("which must be 'p' or 'P'")
    from .kinematics import on_shell_energy
    out = []
    for m in s.expr.terms:
        total = (0, 0, 0, 0)
        for j, op in enumerate(m.ops):
            w = _quantum_weight(op)
            vec = OnShell(op.mom) if which == "p" else op.inner
            if isinstance(vec, OnShell) and isinstance(vec.mom, tuple):
                try:
                    energy = on_shell_energy(vec.mom, masses.of(op.field))
                except OverflowError:
                    energy = math.inf
                if not math.isfinite(energy):
                    raise ValueError(f"on-shell energy of {opalg.label_str(vec)} "
                                     "is beyond float range")
                vec = (energy,) + vec.mom
            if not isinstance(vec, tuple):
                raise ValueError("eigenvalues need bound labels")
            if w < 0:
                vec = tuple(-c for c in vec)
            # the first quantum's value starts the sum, which is exact:
            # 0 + x changes no value or type
            total = vec if j == 0 else tuple(map(add, total, vec))
        out.append((m, total))
    return out
