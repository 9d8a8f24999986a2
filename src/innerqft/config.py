"""Validated run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import math
from fractions import Fraction

from .gravlimit import RegularizationConfig
from .record import Record
from .smatrix import LSZRecipe


class RunConfig(Record):
    """`reg` and `recipe`, built once from the fields, are not fields."""

    __slots__ = ("reg", "recipe")
    tolerance: float = 1e-12
    i_epsilon: float = 1e-8
    seed: int = 0
    lam: Fraction = Fraction(1)
    v_reg: Fraction = Fraction(1)
    z: float = 1.0
    z2: float = 1.0
    z3: float = 1.0
    fmt: str = "text"

    def __post_init__(self):
        for name in ("tolerance", "i_epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.fmt not in ("text", "json"):
            raise ValueError("format must be 'text' or 'json'")
        # the regularization and LSZ types check their own fields
        object.__setattr__(self, "reg", RegularizationConfig(self.lam, self.v_reg))
        object.__setattr__(self, "recipe", LSZRecipe(self.z, self.z2, self.z3))

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}
