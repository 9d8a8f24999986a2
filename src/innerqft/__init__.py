"""Symbolic ladder-operator algebra for fields carrying a second
(inner) momentum label, with exact contact-term bookkeeping, Fock-space
utilities, an on-shell reduction limit, propagator/Wick cross-checks,
and a toy projected-unitarity harness.

The package exports no names of its own: import its submodules, as in
`from innerqft import opalg`. `kinematics` and `numeric` load numpy, and so
does `suites`, which imports them; no other submodule does.
"""

__version__ = "0.1.0"
