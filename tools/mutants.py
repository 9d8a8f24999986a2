"""Mutation check: does the tier-1 suite notice a one-line fault?

    python tools/mutants.py

Each mutant below is a text replacement in one file of `src/`, which must
match that file exactly once, so that a mutant whose text went stale fails
loudly, and the node id of a test that kills it. The script copies `src/`,
`tests/`, `perfbench/` and `tools/` (which tests read), `pyproject.toml`
and `BENCHMARK.json` into a temporary directory outside the repository
and runs the tier-1 suite there, first unmutated (it must pass), then per
mutant: the recorded killer first, and only when it passes, the rest of
the suite with `-x`, so that a surviving mutant still runs the whole
suite. `tests/test_mutants.py` is left out of these runs: it checks that
each mutant's text is still in `src/` and that its killer exists, so it
would fail on every mutant and hide the ones that survive. The script
prints, per mutant, `killed` and the first failing test (marked when it is
not the recorded killer) or `SURVIVED`, and exits 1 when a mutant
survives, when a text does not match once or a killer is not found, or
when the unmutated copy fails.
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

# (name, file under src/innerqft, old text, new text, the node id of a test
# that kills it)
MUTANTS = (
    ("eta sign rule flipped", "opalg.py",
     "sign=lambda idx: 1 if idx == 0 else -1",
     "sign=lambda idx: -1 if idx == 0 else 1",
     "tests/test_acceptance.py::test_02_norm_sign_table"),
    ("ETA sign set to +1", "opalg.py",
     "sign=lambda idx: -1,", "sign=lambda idx: 1,",
     "tests/test_acceptance.py::test_02_norm_sign_table"),
    ("fermion swap sign dropped in _insert", "opalg.py",
     "        if x & y & 2:\n            s = -s\n",
     "        if x & y & 2:\n            pass\n",
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("scalar contact factor 2 -> 1", "opalg.py",
     'FieldRow("a", "scalar", False, 2,', 'FieldRow("a", "scalar", False, 1,',
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("Dirac contact factor 1 -> 2", "opalg.py",
     'FieldRow("b", "dirac", True, 1,', 'FieldRow("b", "dirac", True, 2,',
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("gauge contact power L^-2 -> L^-4", "opalg.py",
     'FieldRow("A", "gauge", False, 2, -2,', 'FieldRow("A", "gauge", False, 2, -4,',
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("gauge row fermionic", "opalg.py",
     'FieldRow("A", "gauge", False,', 'FieldRow("A", "gauge", True,',
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("Dirac particle Z read from z3", "opalg.py",
     '"dirac", True, 1, -4, "E/m", "z2",', '"dirac", True, 1, -4, "E/m", "z3",',
     "tests/test_smatrix.py::test_each_field_reads_its_own_z"),
    ("gauge Z read from z2", "opalg.py",
     '-2, "w", "z3",', '-2, "w", "z2",',
     "tests/test_smatrix.py::test_each_field_reads_its_own_z"),
    ("Pauli zero dropped", "opalg.py",
     "if x & 2 and y == x:", "if False:",
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    # every label's sign, eta's among them, read from ETA, the ipol pair atom
    ("_quantum_weight reads ETA for eta", "fock.py",
     "ATOMS[_PAIR_ATOM[name]]", 'ATOMS[_PAIR_ATOM["ipol"]]',
     "tests/test_acceptance.py::test_02_norm_sign_table"),
    ("physical_filter keeping pol 0", "fock.py",
     "if op.pol == 0:", "if False:",
     "tests/test_fock.py::test_physical_filter"),
    ("boost frame keeps a past-pointing K", "kinematics.py",
     "np.where(u[..., :1] > 0, u, -u)", "u",
     "tests/test_kinematics.py::test_inner_basis_is_shared_by_K_and_minus_K"),
    ("boost frame divides by 1 - u_0", "kinematics.py",
     "/ (1 + u[..., 0, None, None])", "/ (1 - u[..., 0, None, None])",
     "tests/test_acceptance.py::test_04_polarization_and_spinor_identities"),
    ("gamma^1 lower block sign flipped", "kinematics.py",
     "_SIGMA[0], -_SIGMA[0]", "_SIGMA[0], _SIGMA[0]",
     "tests/test_acceptance.py::test_04_polarization_and_spinor_identities"),
    ("completeness target +eta", "kinematics.py",
     "-ETA + _outer(k, k)", "ETA + _outer(k, k)",
     "tests/test_acceptance.py::test_04_polarization_and_spinor_identities"),
    ("spin-sum targets of u and v swapped", "kinematics.py",
     'ksl + m1 if kind == "u" else ksl - m1',
     'ksl - m1 if kind == "u" else ksl + m1',
     "tests/test_acceptance.py::test_05_propagator_wick_match"),
    ("G written before ';'", "opalg.py",
     '"ipol": ("G", INNER)', '"ipol": ("G", MOM)',
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("antiparticle row without spin", "opalg.py",
     '"antidirac", True, 1, -4, "E/m", "z2", ("spin",),',
     '"antidirac", True, 1, -4, "E/m", "z2", (),',
     "tests/test_acceptance.py::test_01_generator_algebra_table"),
    ("pol and ipol swapped in the gauge row", "opalg.py",
     '("pol", "ipol"),', '("ipol", "pol"),',
     "tests/test_costs.py::test_costs_match_pinned_counts"),
    ("inverted physical mask", "numeric.py",
     "== 1).reshape(-1, n)", "== 0).reshape(-1, n)",
     "tests/test_smatrix.py::test_frobenius_screen_matches_svd_reports"),
    ("stacked completeness target without k k^T/k^2", "kinematics.py",
     "_outer(k, k) / np.expand_dims(k2, (-2, -1))",
     "0 * np.expand_dims(k2, (-2, -1))",
     "tests/test_acceptance.py::test_04_polarization_and_spinor_identities"),
    ("stacked spin sum reduced over the sample axis", "kinematics.py",
     "return sum(_outer(sp, bar(sp)) for sp in spinors)",
     "return np.sum([_outer(sp, bar(sp)) for sp in spinors], axis=-3)",
     "tests/test_acceptance.py::test_05_propagator_wick_match"),
    ("residual maximum taken over the whole stack", "kinematics.py",
     "np.max(np.abs(got - target), axis=(-2, -1))",
     "np.max(np.abs(got - target))",
     "tests/test_kinematics.py::test_stacked_kinematics_equal_the_per_sample_oracle"),
    ("repeated label reported at the operator", "grammar.py",
     'f"repeated label {key!r}", key_pos', 'f"repeated label {key!r}", pos',
     "tests/test_cli.py::test_label_errors_point_at_the_label"),
    # the three sampler mutants leave every S unitary
    ("Box-Muller phase over half the circle", "suites.py",
     "t = (2 * np.pi * v)", "t = (1 * np.pi * v)",
     "tests/test_smatrix.py::test_complex_normals_are_standard_and_circular"),
    ("Box-Muller radius sqrt(-ln u)", "suites.py",
     "np.sqrt(-2 * np.log(u))", "np.sqrt(-1 * np.log(u))",
     "tests/test_smatrix.py::test_complex_normals_are_standard_and_circular"),
    ("toy instances without a one-state physical block", "suites.py",
     "phys = rng.randrange(1, dim)", "phys = rng.randrange(2, dim)",
     "tests/test_smatrix.py::test_frobenius_screen_matches_svd_reports"),
)

_IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
# the pytest exit codes of a usage error and of no test collected
_NOT_RUN = (4, 5)


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
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy(ROOT / name, tree)
        base = _pytest(tree)
        if base.returncode:
            print(f"the unmutated copy fails: {_first_failure(base.stdout)}")
            return 1
        for name, file, old, new, killer in MUTANTS:
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
                proc = _pytest(tree, "-x", killer)
                if proc.returncode == 0:
                    proc = _pytest(tree, "-x", f"--deselect={killer}")
            finally:
                path.write_text(source)
            secs = time.perf_counter() - start
            if proc.returncode in _NOT_RUN:
                print(f"STALE     {name}: killer {killer} not found")
                bad += 1
            elif proc.returncode:
                failed = _first_failure(proc.stdout)
                other = "" if failed.startswith(killer) else " (not the recorded killer)"
                print(f"killed    {name} ({secs:.1f} s): {failed}{other}")
            else:
                print(f"SURVIVED  {name} ({secs:.1f} s)")
                bad += 1
    print(f"{len(MUTANTS)} mutants: {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
