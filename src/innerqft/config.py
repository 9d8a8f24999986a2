"""Validated run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import math

from .gravlimit import RegularizationConfig
from .record import Record
from .smatrix import LSZRecipe


class RunConfig(Record):
    tolerance: float = 1e-12
    i_epsilon: float = 1e-8
    seed: int = 0
    lam: float = 1.0
    v_reg: float = 1.0
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
        self.reg()
        self.recipe()

    def reg(self) -> RegularizationConfig:
        return RegularizationConfig(self.lam, self.v_reg)

    def recipe(self) -> LSZRecipe:
        return LSZRecipe(self.z, self.z2, self.z3)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}
