"""Differential check of the CLI: one corpus of invocations under a git
revision and under the working tree, compared byte for byte.

    python tools/diff_outputs.py <rev>
    python tools/diff_outputs.py --hash-seeds

The script exports `src/` of <rev> with `git archive` into a temporary
directory, writes the corpus's input files next to it, and runs every
invocation through `innerqft.cli.main` in process: one child process for
<rev> and one for the working tree. It prints `compared N invocations:
M differ` and, for each invocation that differs, its argv and the first
line that differs in stdout, stderr or the exit code. It exits 1 if any
invocation differs and writes nothing inside the repository.

The corpus:
  - every command pinned in tests/data/cli_stdout.json, with the input
    files that tests/test_cli.py writes for them;
  - `verify --suite all` in text for seeds 0, 5 and 21, in JSON for seeds
    0-39, and in JSON for seed 3 with --tol 1e-17, seed 9 with --tol 0.5
    and seed 2 with --epsilon 0.3, so that rounding drift in a numeric
    case's `lhs` shows;
  - the vev-ladder and lsz-legs invocations that perfbench/workloads.py
    generates for seeds 0-3 and 11;
  - `reduce`, in text and JSON, on vertex files with non-finite, malformed,
    overflowing and exactly cancelling factors;
  - `vev` on operators with an unknown, repeated, missing, out-of-range or
    foreign discrete label, `reduce` on legs lines with an unknown or
    repeated key, and `verify` and `reduce` with a config file that
    repeats a key.

With --hash-seeds it runs, instead, the working tree's `verify --suite all
--format json` for seeds 0-3 and the vev-ladder invocations above in four
child processes, one for each PYTHONHASHSEED of 0-3, and compares each
child's results with those of hash seed 0, so that an output that depends
on the order of a set or dict of strings shows.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # importing perfbench/workloads.py

ROOT = Path(__file__).resolve().parent.parent

# run in each child: python -B -c _CHILD <src> <corpus.json> <results.json>
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
src, corpus, results = sys.argv[1:4]
sys.path.insert(0, src)
from innerqft import cli
if not cli.__file__.startswith(src):
    sys.exit(f"innerqft was imported from {cli.__file__}, not {src}")
out = []
for argv in json.loads(Path(corpus).read_text()):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    out.append([stdout.getvalue(), stderr.getvalue(), code])
Path(results).write_text(json.dumps(out))
"""

_SEEDS = (0, 1, 2, 3, 11)
_HASH_SEEDS = ("0", "1", "2", "3")

_LEGS = ("in scalar p=1,0,0\nin scalar p=0,1,0\n"
         "out scalar p=1,0,0\nout scalar p=0,1,0\n")

_VERTEX_FILES = {
    "nan": "vertex nan\n",
    "inf": "vertex inf\n",
    "nan_im": "vertex 1 nan\n",
    "past_range": "vertex 1e400\n",
    "max_twice": "vertex 1e308\nvertex 1e308\n",
    "decimals": "vertex 0.1\nvertex 0.2\nvertex -0.3\n",
    "slash": "vertex 1/2\n",
    "word": "vertex x\n",
    "three_parts": "vertex 1 2 3\n",
    "empty": "",
    "complex": "vertex 0.25 -0.5\n",
    "max_cancel": "vertex 1e308\nvertex 1e308\nvertex -1e308\n",
}

_LABEL_PROBES = ("b(k,s=1,s=2;K)", "A(k,g=1,g=2;K,G=1)", "A(k;K,G=1,G=2)",
                 "A(k,g=1;K,G=1,s=1)", "b(k,x=1;K)", "A(k,g=1;K,x=1)",
                 "b(k,x;K)", "A(k,G=1;K)", "a(k,s=1;K)",
                 "2*a(k;K)*b(k,s=1,s=2;K)", "A(k,g=1,s=1;K,G=1)", "A(k,g=1;K)",
                 "b(k,s=3;K)")

_LEG_PROBES = ("scalar p=1,0,0 p=2,0,0", "dirac p=1,0,0 s=1 s=2",
               "gauge p=1,0,0 g=1 G=1 g=2", "gauge p=1,0,0 g=1 G=1 G=2",
               "scalar p=1,0,0 E=2 E=3", "scalar p=1,0,0 x=1",
               "scalar p=1,0,0 s=1")

# (config file text, the command it configures); the reduce probe reads
# two of the files that `_vertices` writes
_CONFIG_PROBES = (("lambda = 2\nlambda = 3\n", ["verify", "--suite", "gravlimit"]),
                  ("z = 1/2\nz2 = 1\nz = 1/4\n",
                   ["reduce", "vertex_complex.txt", "--legs", "vertex_legs.txt"]))


def _pinned(work: Path) -> list:
    """The pinned commands, with their input files written to `work`."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    (files,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["_PINNED_FILES"]]
    for name, text in files.items():
        (work / name).write_text(text)
    pinned = json.loads((ROOT / "tests" / "data" / "cli_stdout.json").read_text())
    return [argv for argv, _ in pinned]


def _verify() -> list:
    corpus = [["verify", "--suite", "all", "--seed", str(seed)]
              for seed in (0, 5, 21)]
    corpus += [["verify", "--suite", "all", "--seed", str(seed), "--format", "json"]
               for seed in range(40)]
    for seed, flag, value in ((3, "--tol", "1e-17"), (9, "--tol", "0.5"),
                              (2, "--epsilon", "0.3")):
        corpus.append(["verify", "--suite", "all", "--seed", str(seed),
                       flag, value, "--format", "json"])
    return corpus


def _workloads(work: Path, names=("vev-ladder", "lsz-legs")) -> list:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    corpus = []
    for name in names:
        for seed in _SEEDS:
            where = work / f"{name}-{seed}"
            where.mkdir()
            wl = workloads.generate(name, seed, where)
            corpus += [inv.argv for inv in wl.invocations]
    return corpus


def _vertices(work: Path) -> list:
    (work / "vertex_legs.txt").write_text(_LEGS)
    corpus = []
    for name, text in _VERTEX_FILES.items():
        (work / f"vertex_{name}.txt").write_text(text)
        for fmt in ((), ("--format", "json")):
            corpus.append(["reduce", f"vertex_{name}.txt",
                           "--legs", "vertex_legs.txt", *fmt])
    return corpus


def _probes(work: Path) -> list:
    """Labels and keys that are unknown or written twice."""
    corpus = [["vev", text] for text in _LABEL_PROBES]
    (work / "probe_greens.txt").write_text("")
    for i, leg in enumerate(_LEG_PROBES):
        (work / f"probe_legs_{i}.txt").write_text(
            f"in scalar p=1,0,0\nout {leg}\n")
        corpus.append(["reduce", "probe_greens.txt",
                       "--legs", f"probe_legs_{i}.txt"])
    for i, (text, argv) in enumerate(_CONFIG_PROBES):
        (work / f"probe_{i}.cfg").write_text(text)
        corpus.append([*argv, "--config", f"probe_{i}.cfg"])
    return corpus


def _run(src: Path, corpus_file: Path, work: Path, env=None) -> list:
    results = work / "results.json"
    subprocess.run([sys.executable, "-B", "-c", _CHILD, str(src),
                    str(corpus_file), str(results)], cwd=work, env=env,
                   check=True)
    return json.loads(results.read_text())


def _first_difference(old, new) -> str | None:
    """The first line, with its line ending, that differs between two
    (stdout, stderr, exit code) results; None when they are equal."""
    for stream, a, b in zip(("stdout", "stderr"), old, new):
        if a != b:
            a, b = a.splitlines(True), b.splitlines(True)
            i = next(i for i in range(max(len(a), len(b)))
                     if a[i:i + 1] != b[i:i + 1])
            x, y = (s[i] if i < len(s) else "<end>" for s in (a, b))
            return f"{stream} line {i + 1}: {x[:200]!r} != {y[:200]!r}"
    if old[2] != new[2]:
        return f"exit code: {old[2]} != {new[2]}"
    return None


def _report(corpus: list, differ: list, under: str = "") -> int:
    print(f"compared {len(corpus)} invocations{under}: {len(differ)} differ")
    for args, where, why in differ:
        print(f"  {' '.join(args)[:200]}\n    {where}: {why}")
    return 1 if differ else 0


def _hash_seeds() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = [["verify", "--suite", "all", "--seed", str(seed),
                   "--format", "json"] for seed in range(4)]
        corpus += _workloads(work, ("vev-ladder",))
        corpus_file = work / "corpus.json"
        corpus_file.write_text(json.dumps(corpus))
        runs = [_run(ROOT / "src", corpus_file, work,
                     dict(os.environ, PYTHONHASHSEED=seed))
                for seed in _HASH_SEEDS]
    differ = [(args, f"hash seed {_HASH_SEEDS[0]} vs {seed}", why)
              for seed, run in zip(_HASH_SEEDS[1:], runs[1:])
              for args, a, b in zip(corpus, runs[0], run)
              if (why := _first_difference(a, b))]
    return _report(corpus, differ, f" under {len(_HASH_SEEDS)} hash seeds")


def main(argv: list[str]) -> int:
    if argv == ["--hash-seeds"]:
        return _hash_seeds()
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    (rev,) = argv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(), end="", file=sys.stderr)
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")],
                       input=archive.stdout, check=True)
        work = tmp / "work"
        work.mkdir()
        corpus = (_pinned(work) + _verify() + _workloads(work)
                  + _vertices(work) + _probes(work))
        corpus_file = tmp / "corpus.json"
        corpus_file.write_text(json.dumps(corpus))
        old = _run(tmp / "rev" / "src", corpus_file, work)
        new = _run(ROOT / "src", corpus_file, work)
    return _report(corpus, [(args, f"{rev} vs working tree", why)
                            for args, a, b in zip(corpus, old, new)
                            if (why := _first_difference(a, b))])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
