"""Mutation check: does the tier-1 suite notice a one-line fault?

    python tools/mutants.py

Each mutant below is a text replacement in one file of `src/`, which must
match that file exactly once, so that a mutant whose text went stale fails
loudly. The script copies `src/`, `tests/`, `perfbench/` and `tools/` (which
tests read) and `pyproject.toml` into a temporary directory outside the
repository and runs the tier-1 suite there, first unmutated (it must pass),
then once per mutant with `-x`. `tests/test_mutants.py` is left out of
these runs: it checks that each mutant's text is still in `src/`, so it
would fail on every mutant and hide the ones that survive. The script
prints, per mutant, `killed` and the first failing test or `SURVIVED`, and
exits 1 when a mutant survives, when a text does not match once, or when
the unmutated copy fails.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/innerqft, old text, new text)
MUTANTS = (
    ("eta sign rule flipped", "opalg.py",
     "sign=lambda idx: 1 if idx == 0 else -1",
     "sign=lambda idx: -1 if idx == 0 else 1"),
    ("ETA sign set to +1", "opalg.py",
     "sign=lambda idx: -1,", "sign=lambda idx: 1,"),
    ("fermion swap sign dropped in _insert", "opalg.py",
     "        if x & y & 2:\n            s = -s\n",
     "        if x & y & 2:\n            pass\n"),
    ("scalar contact factor 2 -> 1", "opalg.py",
     "return CRat.of(2), -4, 7,", "return CRat.of(1), -4, 7,"),
    ("Pauli zero dropped", "opalg.py",
     "if x & 2 and y == x:", "if False:"),
    ("_quantum_weight reads ETA for eta", "fock.py",
     'ATOMS["eta"].sign(op.pol)', 'ATOMS["ETA"].sign(op.pol)'),
    ("boost frame keeps a past-pointing K", "kinematics.py",
     "np.where(u[..., :1] > 0, u, -u)", "u"),
    ("boost frame divides by 1 - u_0", "kinematics.py",
     "/ (1 + u[..., 0, None, None])", "/ (1 - u[..., 0, None, None])"),
    ("gamma^1 lower block sign flipped", "kinematics.py",
     "_SIGMA[0], -_SIGMA[0]", "_SIGMA[0], _SIGMA[0]"),
    ("completeness target +eta", "kinematics.py",
     "-ETA + _outer(k, k)", "ETA + _outer(k, k)"),
    ("spin-sum targets of u and v swapped", "kinematics.py",
     'ksl + m1 if kind == "u" else ksl - m1',
     'ksl - m1 if kind == "u" else ksl + m1'),
    ("G written before ';'", "opalg.py",
     '"ipol": ("G", INNER)', '"ipol": ("G", MOM)'),
    ("antiparticle row without spin", "opalg.py",
     'DIRAC_ANTIPARTICLE: (("spin",),', 'DIRAC_ANTIPARTICLE: ((),'),
    ("pol and ipol swapped in the gauge row", "opalg.py",
     'GAUGE: (("pol", "ipol"),', 'GAUGE: (("ipol", "pol"),'),
    ("inverted physical mask", "numeric.py",
     "== 1).reshape(-1, n)", "== 0).reshape(-1, n)"),
    ("stacked completeness target without k k^T/k^2", "kinematics.py",
     "_outer(k, k) / np.expand_dims(k2, (-2, -1))",
     "0 * np.expand_dims(k2, (-2, -1))"),
    ("stacked spin sum reduced over the sample axis", "kinematics.py",
     "return sum(_outer(sp, bar(sp)) for sp in spinors)",
     "return np.sum([_outer(sp, bar(sp)) for sp in spinors], axis=-3)"),
    ("residual maximum taken over the whole stack", "kinematics.py",
     "np.max(np.abs(got - target), axis=(-2, -1))",
     "np.max(np.abs(got - target))"),
    ("repeated label reported at the operator", "grammar.py",
     'f"repeated label {key!r}", key_pos', 'f"repeated label {key!r}", pos'),
    # the three sampler mutants leave every S unitary; the first two are
    # killed only by test_smatrix.py::test_complex_normals_are_standard_and_circular
    ("Box-Muller phase over half the circle", "suites.py",
     "t = (2 * np.pi * v)", "t = (1 * np.pi * v)"),
    ("Box-Muller radius sqrt(-ln u)", "suites.py",
     "np.sqrt(-2 * np.log(u))", "np.sqrt(-1 * np.log(u))"),
    ("toy instances without a one-state physical block", "suites.py",
     "phys = rng.randrange(1, dim)", "phys = rng.randrange(2, dim)"),
)

_IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider",
                           "--ignore=tests/test_mutants.py", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def _first_failure(output: str) -> str:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    return found.group(1) if found else output.strip().splitlines()[-1]


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "perfbench", "tools"):
            shutil.copytree(ROOT / name, tree / name, ignore=_IGNORE)
        shutil.copy(ROOT / "pyproject.toml", tree)
        base = _pytest(tree)
        if base.returncode:
            print(f"the unmutated copy fails: {_first_failure(base.stdout)}")
            return 1
        for name, file, old, new in MUTANTS:
            path = tree / "src" / "innerqft" / file
            source = path.read_text()
            if source.count(old) != 1:
                print(f"STALE     {name}: {file} has {source.count(old)} "
                      "matches of its text")
                bad += 1
                continue
            path.write_text(source.replace(old, new))
            start = time.perf_counter()
            try:
                proc = _pytest(tree, "-x")
            finally:
                path.write_text(source)
            secs = time.perf_counter() - start
            if proc.returncode:
                print(f"killed    {name} ({secs:.1f} s): "
                      f"{_first_failure(proc.stdout)}")
            else:
                print(f"SURVIVED  {name} ({secs:.1f} s)")
                bad += 1
    print(f"{len(MUTANTS)} mutants: {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
