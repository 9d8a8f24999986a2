"""Independent checks of the CLI outputs.

References are computed from the generated inputs at check time, never
frozen as expected strings. `vev` output is parsed back and compared with
the benchmark's own signed sum over pairings of the printed contact factors.
`reduce` prints float labels, which do not always parse back, so its elastic
part is compared in the printed form against `smatrix.wick_pairing_oracle`
(bosonic legs) or the same signed enumeration (Dirac legs).
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

from innerqft import grammar, opalg, smatrix
from innerqft.fock import FieldMasses
from innerqft.gravlimit import RegularizationConfig
from innerqft.opalg import (Delta3, Delta3Zero, Delta4, ERatioPow, Metric,
                            OmegaPow, OperatorExpr, SpinDelta, make_monomial)

_FIELD = {"scalar": opalg.SCALAR, "dirac": opalg.DIRAC_PARTICLE,
          "antidirac": opalg.DIRAC_ANTIPARTICLE, "gauge": opalg.GAUGE}
_FERMIONIC = ("dirac", "antidirac")


def signed_pairings(ops, fermionic, contract):
    """Wick's theorem for <0| ops |0>, one factor per contracted pair.

    Yields (sign, factors) for every complete pairing in which each pair
    (x left of y) has contract(x, y) not None. The sign is -1 for each
    fermionic operator that a fermionic partner passes on its way to x.
    """
    def rec(rest, sign, factors):
        if not rest:
            yield sign, factors
            return
        x = rest[0]
        passed = 0
        for pos in range(1, len(rest)):
            y = rest[pos]
            f = contract(x, y)
            if f is not None:
                s = -1 if fermionic(y) and passed % 2 else 1
                yield from rec(rest[1:pos] + rest[pos + 1:], sign * s,
                               factors + [f])
            passed += fermionic(y)
    yield from rec(list(ops), 1, [])


def _sum_pairings(ops, fermionic, contract) -> OperatorExpr:
    monos = []
    for sign, factors in signed_pairings(ops, fermionic, contract):
        scalar, lam, twopi, atoms = Fraction(sign), 0, 0, []
        for c, dl, dt, at in factors:
            scalar *= c
            lam += dl
            twopi += dt
            atoms.extend(at)
        monos.append(make_monomial(scalar, lam, twopi, 0, atoms))
    return OperatorExpr.from_monomials(monos)


# --------------------------------------------------------------------------
# vev


def _contact(x, y):
    """Contact term of annihilator x and creator y, as the README prints it."""
    if x.dagger or not y.dagger or x.head != y.head:
        return None
    deltas = [Delta4(x.inner, y.inner), Delta3(x.mom, y.mom)]
    if x.head == "a":
        return 2, -4, 7, [OmegaPow(x.mom)] + deltas
    if x.head in ("b", "d"):
        return 1, -4, 7, [ERatioPow(x.mom), SpinDelta(x.spin, y.spin)] + deltas
    return 2, -2, 7, [OmegaPow(x.mom), Metric(True, x.pol, y.pol),
                      Metric(False, x.ipol, y.ipol)] + deltas


def vev_reference(ops) -> OperatorExpr:
    return _sum_pairings(ops, lambda op: op.fermionic, _contact)


def check_vev(inv, out: str) -> str | None:
    text = out.strip()
    printed = [] if text == "0" else text.split(" + ")
    monos = []
    for term in printed:
        try:
            e = grammar.parse_expression(term)
        except grammar.ParseError as exc:
            return f"unparsable term {term[:60]!r}: {exc}"
        if len(e.terms) != 1:
            return f"term {term[:60]!r} is not one monomial"
        monos.extend(e.terms)
    got = OperatorExpr.from_monomials(monos)
    want = vev_reference(inv.ops)
    if len(got.terms) != len(printed):
        return "printed terms merge when parsed back"
    if got != want:
        return (f"{len(got.terms)} terms differ from the {len(want.terms)} "
                "terms of the pairing sum")
    return None


# --------------------------------------------------------------------------
# reduce


def _leg(spec) -> smatrix.Leg:
    return smatrix.Leg(spec.direction, _FIELD[spec.field], spec.mom, spec.spin,
                       spec.pol, spec.ipol,
                       None if spec.energy is None else float(spec.energy))


def _limit_contact(x, y):
    """Gravitational-limit factor of out-leg x against in-leg y.

    Momenta are compared exactly; labels are printed as the CLI prints them.
    """
    if (x.direction, y.direction) != ("out", "in") or x.field != y.field \
            or x.mom != y.mom or x.spin != y.spin:
        return None
    label = tuple(float(c) for c in x.mom)
    if x.field in _FERMIONIC:
        return 1, 0, 3, [ERatioPow(label), Delta3Zero()]
    if x.field == "scalar":
        return 2, 0, 3, [OmegaPow(label), Delta3Zero()]
    return 2, 2, 3, [OmegaPow(label), Metric(True, x.pol, y.pol),
                     Metric(False, x.ipol, y.ipol), Delta3Zero()]


def elastic_reference(legs) -> str:
    """<out|in> of free barred quanta, in the printed form."""
    if any(leg.field in _FERMIONIC for leg in legs):
        ops = ([l for l in legs if l.direction == "out"]
               + [l for l in legs if l.direction == "in"])
        return str(_sum_pairings(ops, lambda l: l.field in _FERMIONIC,
                                 _limit_contact))
    return str(smatrix.wick_pairing_oracle([_leg(l) for l in legs],
                                           FieldMasses(), RegularizationConfig()))


def connected_reference(inv) -> complex:
    """Pi(i/sqrt(Z)) times the vertex sum, exact at the default Z = 1."""
    re = sum((Fraction(v[0]) for v in inv.vertices), Fraction(0))
    im = sum((Fraction(v[1]) for v in inv.vertices if v[1] is not None),
             Fraction(0))
    for _ in inv.legs:              # multiply by i once per leg
        re, im = -im, re
    return complex(re, im)


def check_reduce(inv, out: str) -> str | None:
    try:
        doc = json.loads(out)
        got = complex(doc["connected"]["re"], doc["connected"]["im"])
        elastic, invariance = doc["elastic"], doc["invariance"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed JSON report: {exc}"
    want = connected_reference(inv)
    if abs(got - want) > 1e-12 * max(1.0, abs(want)):
        return f"connected {got} != {want}"
    want_elastic = elastic_reference(inv.legs)
    if elastic != want_elastic:
        return f"elastic {elastic[:80]!r} != {want_elastic[:80]!r}"
    ins = [l for l in inv.legs if l.direction == "in"]
    want_inv = None
    if len(inv.legs) == 2 and len(ins) == 1 and not inv.vertices:
        (leg,) = ins
        norm = elastic_reference([leg, replace(leg, direction="out")])
        want_inv = "1" if norm != "0" and want_elastic == norm else "0"
    if invariance != want_inv:
        return f"invariance {invariance!r} != {want_inv!r}"
    return None


# --------------------------------------------------------------------------
# verify


def check_verify(inv, out: str) -> str | None:
    try:
        doc = json.loads(out)
        cases = doc["cases"]
        failing = [c["name"] for c in cases if c["status"] != "pass"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed JSON report: {exc}"
    if doc.get("suite") != "all" or doc.get("seed") != inv.seed:
        return "report names another suite or seed"
    if not cases or failing:
        return f"failing cases: {failing}"
    return None


_CHECKS = {"verify": check_verify, "vev": check_vev, "reduce": check_reduce}


class Checker:
    """Checks every output of a workload, each distinct output once.

    `verify` outputs for one seed must also be byte-identical to each other.
    """

    def __init__(self, workload):
        self.workload = workload
        self._verdicts: dict = {}
        self._first_by_seed: dict = {}
        self.failures: list = []

    def check(self, index: int, code: int | None, out: bytes) -> bool:
        inv = self.workload.invocations[index]
        key = (index, code, out)
        if key not in self._verdicts:
            if code != 0:
                why = f"exit code {code}"
            else:
                why = _CHECKS[inv.kind](inv, out.decode())
            self._verdicts[key] = why
        why = self._verdicts[key]
        if why is None and inv.kind == "verify":
            first = self._first_by_seed.setdefault(inv.seed, out)
            if out != first:
                why = "JSON differs from an earlier run of the same seed"
        if why is not None:
            self.failures.append(f"{inv.label}: {why}")
        return why is None
