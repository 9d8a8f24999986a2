"""Command-line interface: verification suites and expression utilities.

`main` is the one exit for bad input. A command raises ValueError for input
that cannot be read, converted, checked or printed, and `main` reports it as
one `error:` line on stderr with exit code 2. Each command builds its whole
report before printing it, so such input leaves stdout empty.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import sys
from fractions import Fraction

from . import grammar, opalg, smatrix
from .config import RunConfig

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# the keys of suites.SUITES, named here so that parsing the command line
# does not import the suites; the numeric ones import numpy
SUITE_NAMES = ("car", "ccr", "fock", "gauge", "gravlimit", "kinematics", "lsz",
               "propagators", "unitarity")
NUMERIC_SUITES = ("kinematics", "propagators", "unitarity")

# the RunConfig field that each config-file key and each command-line flag
# sets; a value is converted to the type of the field's default
_FIELD_OF = {"tolerance": "tolerance", "i_epsilon": "i_epsilon", "seed": "seed",
             "lambda": "lam", "v_reg": "v_reg", "z": "z", "z2": "z2", "z3": "z3",
             "format": "fmt", "--tol": "tolerance", "--epsilon": "i_epsilon",
             "--seed": "seed", "--format": "fmt"}


class ConfigError(ValueError):
    pass


def _number(convert, text: str, where: str):
    """convert(text), with a malformed number reported as a ConfigError."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: bad number '{text}'") from exc


def _real(text: str, where: str) -> Fraction | float:
    """The exact value of a number written as a decimal or as a fraction
    a/b. A value that is not finite or lies past float range stays a float
    (nan or +-inf), which the checks downstream reject; a value that is not
    zero but rounds to a float 0.0 is a bad number. float reads the text
    first, and no Fraction is built from text whose float is 0.0 or not
    finite, so a huge exponent stays cheap."""
    try:
        value = float(text)
    except ValueError:  # a fraction a/b, or not a number
        exact = _number(Fraction, text, where)
        value, zero = smatrix._to_float(exact), not exact
    else:
        exact = None
        # float reads any Unicode decimal digit, not only 0-9
        zero = not any(c.isdecimal() and int(c)
                       for c in text.lower().partition("e")[0])
    if not math.isfinite(value):
        return value
    if value == 0:
        if not zero:
            raise ConfigError(f"{where}: bad number '{text}'")
        return Fraction(0)
    return Fraction(text) if exact is None else exact


def _read(convert, text: str, where: str):
    """text as an int, a str, or a Fraction or float that may be written
    a/b."""
    if convert is Fraction:
        return _real(text, where)
    if convert is float:
        return float(_real(text, where))
    return _number(convert, text, where)


def _set_field(values: dict, key: str, text: str, where: str) -> None:
    field = _FIELD_OF[key]
    values[field] = _read(type(RunConfig._defaults[field]), text, where)


def _read_lines(path: str, what: str):
    """Yield ('path:lineno', line) for each line of a text input file, with
    '#' comments and surrounding blanks stripped and empty lines skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line


def load_config(path: str) -> dict:
    """The RunConfig fields that a flat key=value file sets, each key at
    most once; '#' starts a comment."""
    values: dict = {}
    for where, line in _read_lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_OF or key.startswith("-"):
            raise ConfigError(f"{where}: unknown key '{key}'")
        if _FIELD_OF[key] in values:
            raise ConfigError(f"{where}: repeated key '{key}'")
        _set_field(values, key, val, where)
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = load_config(args.config) if args.config else {}
    # flags override the file; `reduce` has no --tol, --epsilon or --seed
    for key in _FIELD_OF:
        text = getattr(args, key[2:], None) if key.startswith("--") else None
        if text is not None:
            _set_field(values, key, text, key)
    return RunConfig(**values)


def _report(suite: str, cfg: RunConfig, cases: list) -> tuple[str, bool]:
    ok = all(c.passed for c in cases)
    if cfg.fmt == "json":
        doc = {
            "suite": suite,
            "seed": cfg.seed,
            "config": cfg.as_dict(),
            "cases": [{"name": c.name, "status": c.status, "detail": c.detail,
                       "lhs": c.lhs, "rhs": c.rhs, "tolerance": c.tolerance}
                      for c in cases],
        }
        # the exact lam and v_reg print as floats
        return json.dumps(doc, indent=2, sort_keys=True, default=float), ok
    width = max(len(c.name) for c in cases)
    lines = [f"suite: {suite}  seed: {cfg.seed}  tolerance: {cfg.tolerance:g}"]
    for c in cases:
        lines.append(f"{c.name:<{width}}  {c.status.upper():<4}  {c.detail}")
    lines.append(f"{'passed' if ok else 'FAILED'}: "
                 f"{sum(c.passed for c in cases)}/{len(cases)} cases")
    return "\n".join(lines), ok


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    if args.suite in ("all", *NUMERIC_SUITES) \
            and "innerqft.numeric" not in sys.modules:
        # the first import of the numeric stack: numpy's import heap lives
        # until exit, so it is frozen out of every later collection
        enabled = gc.isenabled()
        gc.disable()
        try:
            from . import kinematics, numeric  # noqa: F401
        finally:
            gc.freeze()
            if enabled:
                gc.enable()
    from .suites import run_suite
    text, ok = _report(args.suite, cfg, run_suite(args.suite, cfg))
    print(text)
    return EXIT_PASS if ok else EXIT_FAIL


# the expression commands, each served by the opalg function of its name:
# operands and help
_EXPRESSION_COMMANDS = {
    "commutator": (("lhs", "rhs"), "reduce [A, B] to normal form"),
    "anticommutator": (("lhs", "rhs"), "reduce {A, B} to normal form"),
    "vev": (("expr",), "vacuum expectation value of an operator product "
                       "(leading 'T' allowed)"),
}


def cmd_expression(args: argparse.Namespace) -> int:
    texts = [getattr(args, name) for name in _EXPRESSION_COMMANDS[args.command][0]]
    if args.command == "vev":  # a leading time-ordering `T` is ignored
        src = texts[0].strip()
        texts[0] = src[1:].lstrip() if src.startswith(("T ", "T\t")) else src
    result = getattr(opalg, args.command)(*map(grammar.parse_expression, texts))
    print(grammar.print_expression(result))
    return EXIT_PASS


_LEG_FIELDS = {row.legs: field for field, row in opalg.FIELD_TABLE.items()}
# leg tokens: key -> (Leg field, number type, or None for p=x,y,z)
_LEG_KEYS = {"p": ("mom", None),
             **{key: (name, int) for name, (key, _) in opalg.LABEL_TEXT.items()},
             "E": ("energy", float)}


def _parse_vec3(text: str, where: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected three comma-separated "
                          f"components: '{text}'")
    return tuple(_real(p, where) for p in parts)


def load_legs(path: str) -> tuple[smatrix.Leg, ...]:
    legs = []
    for where, line in _read_lines(path, "legs"):
        tokens = line.split()
        if len(tokens) < 3 or tokens[1] not in _LEG_FIELDS:
            raise ConfigError(f"{where}: expected "
                              f"'<in|out> <{'|'.join(_LEG_FIELDS)}> p=x,y,z [...]'")
        values: dict = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise ConfigError(f"{where}: bad token '{tok}'")
            key, _, val = tok.partition("=")
            if key not in _LEG_KEYS:
                raise ConfigError(f"{where}: unknown key '{key}'")
            name, convert = _LEG_KEYS[key]
            if name in values:
                raise ConfigError(f"{where}: repeated key '{key}'")
            values[name] = (_read(convert, val, where) if convert
                            else _parse_vec3(val, where))
        if "mom" not in values:
            raise ConfigError(f"{where}: missing momentum p=x,y,z")
        try:
            legs.append(smatrix.Leg(tokens[0], _LEG_FIELDS[tokens[1]],
                                    **values))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if not legs:
        raise ConfigError(f"{path}: no legs defined")
    return tuple(legs)


def load_greens(path: str) -> tuple[tuple, ...]:
    """The exact (re, im) parts of each vertex factor, the imaginary part 0
    when it is left out; a factor that is not finite is rejected at its
    line (`lsz_reduce` rejects one too, without a line)."""
    vertices = []
    for where, line in _read_lines(path, "green-function"):
        tokens = line.split()
        if tokens[0] != "vertex" or len(tokens) not in (2, 3):
            raise ConfigError(f"{where}: expected 'vertex <re> [<im>]'")
        re, im = (*(_real(tok, where) for tok in tokens[1:]), 0)[:2]
        factor = complex(re, im)
        if not cmath.isfinite(factor):
            raise ConfigError(f"{where}: vertex factor {factor} is not finite")
        vertices.append((re, im))
    return tuple(vertices)


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    amp = smatrix.lsz_reduce(load_legs(args.legs), load_greens(args.greens),
                             cfg.recipe, cfg.reg)
    if cfg.fmt == "json":
        doc = {
            "connected": {"re": amp.connected.real, "im": amp.connected.imag},
            "elastic": str(amp.elastic),
            "invariance": None if amp.invariance is None else str(amp.invariance),
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = f"connected: {amp.connected}\nelastic:   {amp.elastic}"
        if amp.invariance is not None:
            text += f"\ninvariance: {amp.invariance}"
    print(text)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerqft",
        description="Symbolic ladder-operator algebra with inner momentum "
                    "labels: verification suites and expression utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--format", metavar="{text,json}",
                       help="report format (default text)")

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", required=True,
                     choices=SUITE_NAMES + ("all",))
    ver.add_argument("--tol", help="numeric tolerance (default 1e-12)")
    ver.add_argument("--epsilon",
                     help="pole-shift epsilon for propagators (default 1e-8)")
    ver.add_argument("--seed", help="random seed (default 0)")
    add_common(ver)
    ver.set_defaults(func=cmd_verify)

    for name, (operands, help_text) in _EXPRESSION_COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for operand in operands:
            cmd.add_argument(operand)
        cmd.set_defaults(func=cmd_expression)

    red = sub.add_parser("reduce", help="reduce a Green function to an "
                                        "amplitude over external legs")
    red.add_argument("greens", help="vertex file: lines 'vertex <re> [<im>]'")
    red.add_argument("--legs", required=True,
                     help="legs file: lines '<in|out> <field> p=x,y,z [...]'")
    add_common(red)
    red.set_defaults(func=cmd_reduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # an expression may start with a minus sign, which argparse reads as an
    # argument, not an option, only after `--`
    if argv and argv[0] in _EXPRESSION_COMMANDS \
            and not {"-h", "--help", "--"} & set(argv[1:]):
        argv.insert(1, "--")
    # argparse reads a flag value such as `-1e-3` or `-inf` as an option;
    # joined to its flag, it reaches the flag's converter and range check
    for i in reversed(range(1, argv.index("--") if "--" in argv else len(argv))):
        flag, value = argv[i - 1], argv[i]
        if flag[:2] == "--" and flag in _FIELD_OF \
                and value[:1] == "-" and value[:2] != "--":
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ValueError as exc:  # bad input: see the module docstring
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
