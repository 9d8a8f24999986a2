"""Command-line interface: verification suites and expression utilities."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import grammar, opalg, smatrix
from .config import RunConfig

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# the keys of suites.SUITES, named here so that parsing the command line
# does not import the suites and, through them, numpy
SUITE_NAMES = ("car", "ccr", "fock", "gauge", "gravlimit", "kinematics", "lsz",
               "propagators", "unitarity")

_CONFIG_KEYS = {"tolerance", "i_epsilon", "seed", "lambda", "v_reg",
                "z", "z2", "z3", "format"}


class ConfigError(Exception):
    pass


def _number(convert, text: str, where: str):
    """convert(text), with a malformed number reported as a ConfigError."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: bad number '{text}'") from exc


def _read_lines(path: str, what: str):
    """Yield ('path:lineno', line) for each line of a text input file, with
    '#' comments and surrounding blanks stripped and empty lines skipped."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values: dict = {}
    for where, line in _read_lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key == "format":
            values[key] = val
        else:
            convert = int if key == "seed" else float
            values[key] = _number(convert, val, where)
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        loaded = load_config(args.config)
        if "lambda" in loaded:
            loaded["lam"] = loaded.pop("lambda")
        if "format" in loaded:
            loaded["fmt"] = loaded.pop("format")
        values.update(loaded)
    if args.tol is not None:
        values["tolerance"] = args.tol
    if args.epsilon is not None:
        values["i_epsilon"] = args.epsilon
    if args.seed is not None:
        values["seed"] = args.seed
    if args.format is not None:
        values["fmt"] = args.format
    try:
        return RunConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


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
        return json.dumps(doc, indent=2, sort_keys=True), ok
    width = max(len(c.name) for c in cases)
    lines = [f"suite: {suite}  seed: {cfg.seed}  tolerance: {cfg.tolerance:g}"]
    for c in cases:
        lines.append(f"{c.name:<{width}}  {c.status.upper():<4}  {c.detail}")
    lines.append(f"{'passed' if ok else 'FAILED'}: "
                 f"{sum(c.passed for c in cases)}/{len(cases)} cases")
    return "\n".join(lines), ok


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = build_run_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from .suites import run_suite
    cases = run_suite(args.suite, cfg)
    text, ok = _report(args.suite, cfg, cases)
    print(text)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_bracket(args: argparse.Namespace, anti: bool) -> int:
    try:
        lhs = grammar.parse_expression(args.lhs)
        rhs = grammar.parse_expression(args.rhs)
    except grammar.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fn = opalg.anticommutator if anti else opalg.commutator
    print(grammar.print_expression(fn(lhs, rhs)))
    return EXIT_PASS


def cmd_vev(args: argparse.Namespace) -> int:
    src = args.expr.strip()
    if src.startswith("T ") or src.startswith("T\t"):
        src = src[1:].lstrip()
    try:
        expr = grammar.parse_expression(src)
    except grammar.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(grammar.print_expression(opalg.vev(expr)))
    return EXIT_PASS


_LEG_FIELDS = {"scalar": opalg.SCALAR, "dirac": opalg.DIRAC_PARTICLE,
               "antidirac": opalg.DIRAC_ANTIPARTICLE, "gauge": opalg.GAUGE}
# optional leg tokens: key -> (Leg field, number type)
_LEG_KEYS = {"s": ("spin", int), "g": ("pol", int), "G": ("ipol", int),
             "E": ("energy", float)}


def _parse_vec3(text: str, where: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected three comma-separated "
                          f"components: '{text}'")
    return tuple(_number(Fraction, p, where) for p in parts)


def load_legs(path: str) -> tuple[smatrix.Leg, ...]:
    legs = []
    for where, line in _read_lines(path, "legs"):
        tokens = line.split()
        if len(tokens) < 3 or tokens[0] not in ("in", "out") \
                or tokens[1] not in _LEG_FIELDS:
            raise ConfigError(
                f"{where}: expected "
                "'<in|out> <scalar|dirac|antidirac|gauge> p=x,y,z [...]'")
        direction, field = tokens[0], _LEG_FIELDS[tokens[1]]
        mom = None
        extra: dict = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise ConfigError(f"{where}: bad token '{tok}'")
            key, _, val = tok.partition("=")
            if key == "p":
                mom = _parse_vec3(val, where)
            elif key in _LEG_KEYS:
                name, convert = _LEG_KEYS[key]
                extra[name] = _number(convert, val, where)
            else:
                raise ConfigError(f"{where}: unknown key '{key}'")
        if mom is None:
            raise ConfigError(f"{where}: missing momentum p=x,y,z")
        try:
            legs.append(smatrix.Leg(direction, field, mom, **extra))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if not legs:
        raise ConfigError(f"{path}: no legs defined")
    return tuple(legs)


def load_greens(path: str) -> tuple[smatrix.VertexRule, ...]:
    vertices = []
    for where, line in _read_lines(path, "green-function"):
        tokens = line.split()
        if tokens[0] != "vertex" or len(tokens) not in (2, 3):
            raise ConfigError(
                f"{where}: expected 'vertex <re> [<im>]'")
        re = _number(float, tokens[1], where)
        im = _number(float, tokens[2], where) if len(tokens) == 3 else 0.0
        try:
            vertices.append(smatrix.VertexRule(complex(re, im)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(vertices)


def cmd_reduce(args: argparse.Namespace) -> int:
    try:
        cfg = build_run_config(args)
        legs = load_legs(args.legs)
        vertices = load_greens(args.greens)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        amp = smatrix.lsz_reduce(smatrix.GreenFunction(legs, vertices),
                                 cfg.recipe(), cfg.reg())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.fmt == "json":
        doc = {
            "connected": {"re": amp.connected.real, "im": amp.connected.imag},
            "elastic": str(amp.elastic),
            "invariance": None if amp.invariance is None else str(amp.invariance),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"connected: {amp.connected}")
        print(f"elastic:   {amp.elastic}")
        if amp.invariance is not None:
            print(f"invariance: {amp.invariance}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerqft",
        description="Symbolic ladder-operator algebra with inner momentum "
                    "labels: verification suites and expression utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="numeric tolerance (default 1e-12)")
        p.add_argument("--epsilon", type=float, default=None,
                       help="pole-shift epsilon for propagators (default 1e-8)")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default 0)")
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--format", choices=("text", "json"), default=None,
                       help="report format (default text)")

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", required=True,
                     choices=SUITE_NAMES + ("all",))
    add_common(ver)
    ver.set_defaults(func=cmd_verify)

    com = sub.add_parser("commutator", help="reduce [A, B] to normal form")
    com.add_argument("lhs")
    com.add_argument("rhs")
    com.set_defaults(func=lambda a: cmd_bracket(a, anti=False))

    acom = sub.add_parser("anticommutator", help="reduce {A, B} to normal form")
    acom.add_argument("lhs")
    acom.add_argument("rhs")
    acom.set_defaults(func=lambda a: cmd_bracket(a, anti=True))

    vev = sub.add_parser("vev", help="vacuum expectation value of an "
                                     "operator product (leading 'T' allowed)")
    vev.add_argument("expr")
    vev.set_defaults(func=cmd_vev)

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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
