"""Seeded inputs for the benchmark workloads.

One generator builds the argv and input files of every workload from the
workload seed. The program only ever sees the generated argv and files; the
structured description kept next to each invocation is what the output
checks (checks.py) compute their references from.

Each workload keeps the same shape for every seed (the same operator counts,
leg counts and species per slot), so that the cost of a pass does not depend
on the seed; the seed draws the symbol names, momenta, discrete labels,
vertex values and the order of operators and legs.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WHY = {
    "verify-all": "the main user command: verify --suite all is dominated by "
                  "the unitarity, fock and kinematics suites and start-up, so "
                  "reducer changes should leave it flat",
    "vev-ladder": "vev of scalar ladders a^n a'^n and mixed Dirac/gauge "
                  "products: n! distinct terms that never merge, so the "
                  "reducer and the printer dominate",
    "lsz-legs": "reduce on 2- to 12-leg files, half with coincident momenta "
                "(all pairings merge) and half distinct (delta kills): the "
                "reducer merge- and kill-heavy plus the file loaders",
}

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One ladder operator as written on the command line."""

    head: str                      # a, b, d or A
    dagger: bool
    mom: str
    inner: str
    spin: int | str | None = None
    pol: int | str | None = None
    ipol: int | str | None = None

    @property
    def fermionic(self) -> bool:
        return self.head in ("b", "d")

    def text(self) -> str:
        labels = self.mom
        if self.spin is not None:
            labels += f",s={self.spin}"
        if self.pol is not None:
            labels += f",g={self.pol}"
        inner = self.inner
        if self.ipol is not None:
            inner += f",G={self.ipol}"
        prime = "'" if self.dagger else ""
        return f"{self.head}{prime}({labels};{inner})"


@dataclass(frozen=True)
class LegSpec:
    """One line of a legs file."""

    direction: str                 # in or out
    field: str                     # scalar, dirac, antidirac or gauge
    mom: tuple                     # three Fractions
    spin: int | None = None
    pol: int | None = None
    ipol: int | None = None
    energy: str | None = None      # optional E= token, as written

    def line(self) -> str:
        toks = [self.direction, self.field,
                "p=" + ",".join(str(c) for c in self.mom)]
        if self.spin is not None:
            toks.append(f"s={self.spin}")
        if self.pol is not None:
            toks.append(f"g={self.pol}")
        if self.ipol is not None:
            toks.append(f"G={self.ipol}")
        if self.energy is not None:
            toks.append(f"E={self.energy}")
        return " ".join(toks)


@dataclass
class Invocation:
    """One CLI call: its argv (without the program) and what it encodes."""

    kind: str                      # verify, vev or reduce
    argv: list
    label: str
    ops: tuple = ()                # vev: the operator product
    legs: tuple = ()               # reduce: the legs, in file order
    vertices: tuple = ()           # reduce: (re, im) decimal strings
    coincident: bool = False       # reduce: all legs share one momentum
    seed: int | None = None        # verify: the --seed value


@dataclass
class Workload:
    name: str
    why: str
    invocations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _fraction(rng: random.Random) -> Fraction:
    # components as users write them: small integers and fractions like 2/3
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 5, 6, 8)))


def _momentum(rng: random.Random) -> tuple:
    return tuple(_fraction(rng) for _ in range(3))


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(2))


# --------------------------------------------------------------------------
# verify-all


def _verify_all(rng: random.Random, smoke: bool) -> Workload:
    wl = Workload("verify-all", WHY["verify-all"])
    seeds = [rng.randrange(1 << 31) for _ in range(1 if smoke else 3)]
    # the first seed runs again last: its JSON must be byte-identical
    for s in seeds + seeds[:1]:
        wl.invocations.append(Invocation(
            "verify", ["verify", "--suite", "all", "--format", "json",
                       "--seed", str(s)], f"verify seed={s}", seed=s))
    return wl


# --------------------------------------------------------------------------
# vev-ladder

_HEAD_OF = {"scalar": "a", "dirac": "b", "antidirac": "d", "gauge": "A"}

# species of the operator pairs in each mixed product: 8, 10 and 12 operators
_MIXED = (("dirac", "dirac", "gauge", "scalar"),
          ("dirac", "dirac", "antidirac", "gauge", "gauge"),
          ("dirac", "dirac", "antidirac", "antidirac", "gauge", "gauge"))


def _discrete(rng: random.Random, bound: tuple, sym: str):
    return rng.choice(bound) if rng.random() < 0.6 else sym


def _product(rng: random.Random, species: tuple, pre: str) -> tuple:
    """Annihilators followed by creators, each in slot order.

    The reducer also sorts operators within each group, so a shuffled order
    would make the cost of a product depend on the seed.
    """
    ann, cre = [], []
    for j, sp in enumerate(species):
        head = _HEAD_OF[sp]
        for dagger, bucket, m, inn in ((False, ann, "k", "K"),
                                       (True, cre, "h", "H")):
            tag = f"{m}{j}"
            kw = {}
            if head in ("b", "d"):
                kw["spin"] = _discrete(rng, (1, 2), f"{pre}s{tag}")
            elif head == "A":
                kw["pol"] = _discrete(rng, (0, 1, 2, 3), f"{pre}g{tag}")
                kw["ipol"] = _discrete(rng, (1, 2, 3), f"{pre}G{tag}")
            bucket.append(Op(head, dagger, f"{pre}{m}{j}",
                             f"{pre.upper()}{inn}{j}", **kw))
    return tuple(ann + cre)


def _vev_ladder(rng: random.Random, smoke: bool) -> Workload:
    wl = Workload("vev-ladder", WHY["vev-ladder"])
    ladders = (2, 3) if smoke else (4, 5, 6)
    mixed = _MIXED[:1] if smoke else _MIXED
    products = [(f"scalar n={n}", ("scalar",) * n) for n in ladders]
    products += [(f"mixed {2 * len(sp)} ops", sp) for sp in mixed]
    for label, species in products:
        ops = _product(rng, species, _prefix(rng))
        text = " ".join(op.text() for op in ops)
        if rng.random() < 0.5:
            text = "T " + text     # accepted and ignored by the CLI
        wl.invocations.append(Invocation("vev", ["vev", text], label, ops=ops))
    return wl


# --------------------------------------------------------------------------
# lsz-legs

# (number of legs, species, coincident momenta) per file
_LSZ_SLOTS = ((2, "scalar", True), (4, "gauge", True), (6, "dirac", True),
              (8, "scalar", True), (10, "gauge", True), (12, "scalar", True),
              (2, "dirac", False), (4, "scalar", False), (6, "gauge", False),
              (8, "dirac", False), (10, "scalar", False), (12, "gauge", False))
_LSZ_SMOKE = ((2, "scalar", True), (4, "dirac", True), (4, "gauge", False))


def _energy(mom: tuple) -> str:
    # on-shell energy at the default unit mass, as a user would paste it
    return repr(math.sqrt(1 + sum(float(c) ** 2 for c in mom)))


def _leg_fields(rng: random.Random, species: str, n: int, coincident: bool):
    """(field, spin, pol, ipol) of the n in-legs."""
    if species == "scalar":
        return [("scalar", None, None, None)] * n
    if species == "gauge":
        shared = (rng.randint(0, 3), rng.randint(1, 3))
        return [("gauge", None) + (shared if coincident else
                                   (rng.randint(0, 3), rng.randint(1, 3)))
                for _ in range(n)]
    return [(rng.choice(("dirac", "antidirac")), rng.randint(1, 2), None, None)
            for _ in range(n)]


def _legs(rng: random.Random, nlegs: int, species: str, coincident: bool):
    n = nlegs // 2
    if coincident:
        moms = [_momentum(rng)] * n
    else:
        moms = []
        while len(moms) < n:
            p = _momentum(rng)
            if p not in moms:
                moms.append(p)
    ins = [(m,) + f for m, f in zip(moms, _leg_fields(rng, species, n, coincident))]
    outs = list(ins)
    rng.shuffle(outs)
    legs = []
    for direction, side in (("in", ins), ("out", outs)):
        for mom, fld, spin, pol, ipol in side:
            energy = _energy(mom) if rng.random() < 0.25 else None
            legs.append(LegSpec(direction, fld, mom, spin, pol, ipol, energy))
    rng.shuffle(legs)
    return tuple(legs)


def _decimal(rng: random.Random) -> str:
    return str(rng.randint(-40, 40) / 8)


def _lsz_legs(rng: random.Random, smoke: bool, workdir: Path) -> Workload:
    wl = Workload("lsz-legs", WHY["lsz-legs"])
    slots = _LSZ_SMOKE if smoke else _LSZ_SLOTS
    for i, (nlegs, species, coincident) in enumerate(slots):
        legs = _legs(rng, nlegs, species, coincident)
        vertices = tuple((_decimal(rng), _decimal(rng) if rng.random() < 0.5
                          else None) for _ in range(rng.randint(0, 3)))
        kind = "coincident" if coincident else "distinct"
        legs_path = workdir / f"legs{i:02d}.txt"
        greens_path = workdir / f"greens{i:02d}.txt"
        legs_path.write_text(f"# {nlegs} {species} legs, {kind} momenta\n"
                             + "\n".join(leg.line() for leg in legs) + "\n")
        greens_path.write_text("# interaction factors\n" + "".join(
            f"vertex {re}\n" if im is None else f"vertex {re} {im}\n"
            for re, im in vertices))
        wl.invocations.append(Invocation(
            "reduce", ["reduce", str(greens_path), "--legs", str(legs_path),
                       "--format", "json"],
            f"{nlegs} {species} legs {kind}", legs=legs, vertices=vertices,
            coincident=coincident))
    share = sum(inv.coincident for inv in wl.invocations) / len(wl.invocations)
    wl.notes["coincident_share"] = share
    return wl


def generate(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Build workload `name` for `seed`, writing its input files to workdir."""
    rng = random.Random(f"{name}/{seed}")
    if name == "verify-all":
        return _verify_all(rng, smoke)
    if name == "vev-ladder":
        return _vev_ladder(rng, smoke)
    if name == "lsz-legs":
        return _lsz_legs(rng, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")
