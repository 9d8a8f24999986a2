"""Symbolic ladder-operator algebra for fields carrying a second
(inner) momentum label, with exact contact-term bookkeeping, Fock-space
utilities, an on-shell reduction limit, propagator/Wick cross-checks,
and a toy projected-unitarity harness.

The names below resolve lazily, each importing its module on first use, so
that the exact layers load without numpy (which `kinematics` and `numeric`
need).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "kinematics": ("ETA", "FourVector", "MassShellMomentum", "PolarizationBasis",
                   "build_inner_polarizations", "build_spacetime_polarizations",
                   "dirac_spinor", "minkowski_dot", "on_shell_energy", "slash",
                   "spin_sum"),
    "opalg": ("CRat", "LadderOperator", "Monomial", "OperatorExpr",
              "anticommutator", "commutator", "delta_resolve", "make_monomial",
              "normal_order", "reduce_to_normal_form", "vev"),
    "fock": ("FieldMasses", "FockState", "apply", "inner_product",
             "momentum_action", "norm_sign", "physical_filter"),
    "gravlimit": ("RegularizationConfig", "barred", "grav_limit_expr",
                  "project_state"),
    "smatrix": ("Amplitude", "GreenFunction", "Leg", "LSZRecipe", "VertexRule",
                "lsz_reduce", "wick_pairing_oracle"),
    "numeric": ("PropagatorSpec", "ToySMatrix", "propagator_eval",
                "toy_unitarity_check", "vacuum_and_one_particle_checks",
                "wick_two_point"),
    "grammar": ("ParseError", "parse_expression", "parse_state",
                "print_expression"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_EXPORTS, *_MODULE_OF])
