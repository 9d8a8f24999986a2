"""LSZ amplitude assembly over external legs, and the free elastic overlap
with its brute-force pairing oracle.

Exact and numpy-free. The propagator, two-point and toy-unitarity code
lives in `numeric`; its names still resolve here, importing it (and numpy)
on first use.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import opalg
from .fock import UNIT_MASS, FieldMasses
from .gravlimit import RegularizationConfig, grav_limit_expr
from .opalg import (GAUGE, DIRAC_PARTICLE, DIRAC_ANTIPARTICLE, FIELD_TABLE,
                    Delta3, ERatioPow, Metric, OmegaPow, OnShell,
                    OperatorExpr, SpinDelta, make_monomial, vev)
from .record import Record


def __getattr__(name: str):
    if not name.startswith("__"):
        from . import numeric
        if hasattr(numeric, name):
            return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# LSZ reduction


class Leg(Record):
    """`op`, the leg's barred creator, is built once from the fields and is
    not a field; building it checks the field, discrete labels and momentum."""

    __slots__ = ("op",)
    direction: str                 # "in" or "out"
    field: str                     # opalg field kind
    mom: tuple                     # bound spatial momentum
    spin: int | None = None
    pol: int | None = None
    ipol: int | None = None
    energy: float | None = None    # optional, validated against the shell

    def __post_init__(self):
        if self.direction not in ("in", "out"):
            raise ValueError("leg direction must be 'in' or 'out'")
        if any(v is not None and not isinstance(v, int)
               for v in (self.spin, self.pol, self.ipol)):
            raise ValueError("leg spin and polarizations are bound integers")
        if self.energy is not None and not math.isfinite(self.energy):
            raise ValueError("leg energy must be finite")
        try:
            mom = tuple(float(c) for c in self.mom)
        except OverflowError:
            mom = None
        if mom is None or not all(map(math.isfinite, mom)):
            raise ValueError("leg momentum components must be finite and "
                             "within float range")
        object.__setattr__(self, "op", opalg.LadderOperator(
            self.field, True, mom, OnShell(mom), self.spin, self.pol, self.ipol))


def _to_float(q: Fraction) -> float:
    """q rounded to a float; +-inf past float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


class LSZRecipe(Record):
    z: float = 1.0
    z2: float = 1.0
    z3: float = 1.0

    def __post_init__(self):
        for name, z in (("z", self.z), ("z2", self.z2), ("z3", self.z3)):
            if not 0 < z <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")


class Amplitude(Record):
    connected: complex
    elastic: OperatorExpr
    invariance: Fraction | None = None


# the tolerance of `lsz_reduce`'s check that a leg with an energy is on shell
SHELL_TOL = 1e-9


def _check_on_shell(leg: Leg, tol: float) -> None:
    """k^2 = m^2 at the unit mass m, within tol relative to the largest of
    1, m^2 and E^2, in exact arithmetic, so that no square overflows and a
    correctly rounded energy passes at any |p|."""
    if leg.energy is None:
        return
    m2 = Fraction(UNIT_MASS) ** 2
    e2 = Fraction(leg.energy) ** 2
    k2 = e2 - sum(Fraction(c) ** 2 for c in leg.mom)
    if abs(k2 - m2) > Fraction(tol) * max(1, m2, e2):
        raise ValueError(f"off-shell leg: E^2 - |p|^2 differs from "
                         f"m^2 = {UNIT_MASS * UNIT_MASS}")


def elastic_overlap(legs: Sequence[Leg], cfg: RegularizationConfig
                    ) -> OperatorExpr:
    """<out|in> for free barred quanta: the `vev` of the out annihilators
    followed by the in creators, taken to the gravitational limit.

    This is the disconnected delta structure: a signed sum over perfect
    matchings of out against in legs, each pair contributing its
    gravitational-limit contact factor. `vev` merges equal partial sums as
    it goes, so identical coincident legs cost polynomial time.
    """
    ops = [l.op.adjoint() for l in legs if l.direction == "out"]
    ops += [l.op for l in legs if l.direction == "in"]
    prod = OperatorExpr.from_monomials([make_monomial(1, ops=ops)])
    return grav_limit_expr(vev(prod), cfg)


def _exact_part(value) -> Fraction:
    """A vertex part as an exact Fraction; a ValueError names a part that
    is not finite."""
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise ValueError(f"vertex part {value} is not finite") from None


def lsz_reduce(legs: Sequence[Leg], vertices: Sequence[tuple] = (),
               recipe: LSZRecipe = LSZRecipe(),
               cfg: RegularizationConfig = RegularizationConfig()) -> Amplitude:
    """Momentum-space LSZ assembly of a Green function: its external legs
    and the constant factors of its vertices, each an exact (re, im) pair.

    A leg with an energy must lie on the unit-mass shell, and every vertex
    part must be finite; a ValueError names the leg's shell or the part
    that fails. Each external leg
    contributes i/sqrt(Z); its amputation factor cancels the external
    propagator pole exactly, so legs enter the connected part with residue
    one. The connected amplitude is the sum of vertex factors times the leg
    prefactors. The vertex sum is exact: with no vertices, or vertices that
    sum to zero, the connected part is exactly zero; else the sum is rounded
    once to a complex. The elastic contribution is assembled independently
    from the free barred overlap.
    """
    for leg in legs:
        _check_on_shell(leg, SHELL_TOL)
    re = sum(_exact_part(v) for v, _ in vertices)
    im = sum(_exact_part(v) for _, v in vertices)
    if re == im == 0:
        connected = 0j
    else:
        prefactor = 1.0 + 0j
        for leg in legs:
            prefactor *= 1j / math.sqrt(getattr(recipe, FIELD_TABLE[leg.field].z))
        connected = prefactor * complex(_to_float(re), _to_float(im))
    if not cmath.isfinite(connected):
        raise ValueError(f"connected amplitude {connected} is not finite")
    elastic = elastic_overlap(legs, cfg)
    invariance = None
    if len(legs) == 2 and not vertices \
            and legs[0].direction != legs[1].direction:
        # the overlap equals the in leg's norm, which is never zero, exactly
        # when both legs have one operator; else a d3, kd, eta or ETA kills it
        invariance = Fraction(legs[0].op == legs[1].op)
    return Amplitude(connected, elastic, invariance)


def wick_pairing_oracle(legs: Sequence[Leg], masses: FieldMasses,
                        cfg: RegularizationConfig) -> OperatorExpr:
    """Brute-force enumeration of out-against-in pairings.

    Independent of the normal-form reduction and of `vev`: builds each
    pairing's gravitational-limit contact factor directly from the printed
    relations. The overlap orders the out legs before the in legs, each in
    the given order; a pairing's sign is the parity of the permutation that
    brings every fermionic leg of that order next to its partner.
    """
    ins = [l for l in legs if l.direction == "in"]
    outs = [l for l in legs if l.direction == "out"]
    if len(ins) != len(outs):
        return OperatorExpr.zero()
    fermionic = [l.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE)
                 for l in outs + ins]
    monos = []
    for perm in itertools.permutations(range(len(ins))):
        pairs = [(outs[oi], ins[ii]) for oi, ii in enumerate(perm)]
        if any(lo.field != li.field for lo, li in pairs):
            continue
        # fermionic legs, each out leg followed by its in partner
        order = [k for oi, ii in enumerate(perm) for k in (oi, len(outs) + ii)
                 if fermionic[k]]
        inversions = sum(x > y for x, y in itertools.combinations(order, 2))
        scalar, lam, atoms = (-1) ** inversions * cfg.ratio ** len(pairs), 0, []
        for lo, li in pairs:
            mo = tuple(float(c) for c in lo.mom)
            mi = tuple(float(c) for c in li.mom)
            # the d4(0) -> Vreg/(2pi)^4 rewrite and the Vreg -> ratio*L^4
            # reduction are built into each pair's factor
            if lo.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE):
                atoms += [ERatioPow(mi), SpinDelta(lo.spin, li.spin)]
            else:
                scalar *= 2
                atoms.append(OmegaPow(mi))
            if lo.field == GAUGE:
                atoms += [Metric(True, lo.pol, li.pol),
                          Metric(False, lo.ipol, li.ipol)]
                lam += 2
            atoms.append(Delta3(mo, mi))
        monos.append(make_monomial(scalar, lam=lam, twopi=3 * len(pairs),
                                   atoms=atoms))
    return OperatorExpr.from_monomials(monos)
