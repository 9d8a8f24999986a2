"""Paired benchmark runs of a git revision against the working tree.

    python tools/bench_pairs.py <rev> --workload W --pairs N --seconds S \
        --seed K [--holdout-seed K2] --out BENCH.json

The script exports `src/`, `perfbench/` and `BENCHMARK.json` of <rev> with
`git archive`, and copies the same files of the working tree, each into a
temporary directory, so that no run writes inside the repository. It
refuses to run when `perfbench/` or `BENCHMARK.json` differ between the two
trees. It then runs N pairs of

    python perfbench/run.py --workload W --seed K --seconds S --trace 0

each tree running its own runner, and alternates which tree runs first.
With --holdout-seed it runs (N + 1) // 2 more pairs on seed K2.

For each seed the output holds, per end-to-end metric of BENCHMARK.json:
the median and quartiles of <rev> ("parent") and of the working tree
("change"), the parent's IQR, the number of pairs the change wins (better
in the metric's direction), the median gap, whether the benchmark's paired
rule holds (wins in at least 9 of 10 pairs, and a median gap larger than
the parent's IQR), whether the benchmark's regression rule flags it (the
change's median worse than the parent's by more than the metric's `bound`,
a fraction of the parent's median), and every pair's two values. Each run
also records each side's median number of timed passes, since a faster
side fits more passes into the same seconds and its runner keeps more
output in memory, which `peak_rss_mb` reads. The output file collects
runs: a run of the same workload and seed replaces the one it holds. The
output file is the only file the script writes outside its temporary
directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json")
SAME = ("perfbench", "BENCHMARK.json")   # must not differ between the trees
WIN_SHARE = 0.9                          # the paired rule: share of wins


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _export(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = _git("archive", rev, *TREE)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _copy_working_tree(dest: Path) -> None:
    dest.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in TREE:
        path = ROOT / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=ignore)
        else:
            shutil.copy2(path, dest / name)


def _files(tree: Path, name: str) -> dict:
    path = tree / name
    paths = [path] if path.is_file() else sorted(
        p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    return {p.relative_to(tree).as_posix(): p.read_bytes() for p in paths}


def _differing(a: Path, b: Path) -> list:
    out = []
    for name in SAME:
        fa, fb = _files(a, name), _files(b, name)
        out += [f for f in sorted(fa.keys() | fb.keys()) if fa.get(f) != fb.get(f)]
    return out


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`: its result line and summary."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.exit(f"run.py failed in {tree}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["summary"] = json.loads(lines[-2])
    return result


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def worse_than_bound(parent: float, change: float, metric: dict) -> bool:
    """The regression rule: whether the change's median is worse than the
    parent's by more than the metric's bound, a fraction of the parent's."""
    worse = change - parent if metric["better"] == "lower" else parent - change
    return worse > metric["bound"] * parent


def _summary(pairs: list, spec: dict) -> dict:
    """Per metric: both medians and quartiles, the wins and the paired rule."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs]
        stats = {}
        for side, column in (("parent", [p for p, _ in values]),
                             ("change", [c for _, c in values])):
            q1, q2, q3 = _quartiles(column)
            stats[side] = {"median": statistics.median(column), "q1": q1, "q3": q3}
        wins = sum((c < p) if lower else (c > p) for p, c in values)
        gap = stats["parent"]["median"] - stats["change"]["median"]
        gap = gap if lower else -gap
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "parent_iqr": iqr, "wins": wins, "pairs": len(values),
            "median_gap": gap,
            "change_pct": 100 * (stats["change"]["median"] / stats["parent"]["median"] - 1),
            "paired_rule_holds": wins >= WIN_SHARE * len(values) and gap > iqr,
            "bound": metric["bound"],
            "worse_than_bound": worse_than_bound(stats["parent"]["median"],
                                                 stats["change"]["median"], metric),
            "values": values,
        }
    return out


def _passes(pairs: list) -> dict:
    """Each side's median number of timed passes per run."""
    return {"parent": statistics.median(p["summary"]["passes"] for p, _ in pairs),
            "change": statistics.median(c["summary"]["passes"] for _, c in pairs)}


def _pairs(trees: dict, workload: str, seed: int, count: int, seconds: float) -> list:
    pairs = []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {side: _run(trees[side], workload, seed, seconds) for side in order}
        pairs.append((results["parent"], results["change"]))
        wall = [results[s]["metrics"]["wall_s"]["value"] for s in ("parent", "change")]
        print(f"{workload} seed {seed} pair {i + 1}/{count} ({order[0]} first): "
              f"wall_s {wall[0]:.4f} -> {wall[1]:.4f}", file=sys.stderr)
    return pairs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [(args.seed, args.pairs)]
    if args.holdout_seed is not None:
        seeds.append((args.holdout_seed, (args.pairs + 1) // 2))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _export(args.rev, trees["parent"])
        _copy_working_tree(trees["change"])
        differ = _differing(trees["parent"], trees["change"])
        if differ:
            print(f"refusing to compare: {', '.join(differ)} differ between "
                  f"{args.rev} and the working tree", file=sys.stderr)
            return 2
        runs = []
        for seed, count in seeds:
            pairs = _pairs(trees, args.workload, seed, count, args.seconds)
            runs.append({
                "workload": args.workload, "seed": seed, "pairs": count,
                "seconds": args.seconds,
                "holdout": seed != args.seed,
                "environment": pairs[0][1]["summary"].get("environment"),
                "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                              "change": sum(c["attempted"] for _, c in pairs)},
                "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                           "change": sum(c["failed"] for _, c in pairs)},
                "correct": all(p["correct"] and c["correct"] for p, c in pairs),
                "passes": _passes(pairs),
                "metrics": _summary(pairs, spec),
            })
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["parent"] = _git("rev-parse", args.rev).decode().strip()
    dirty = _git("status", "--porcelain", "--", *TREE).strip()
    doc["change"] = ("working tree at " + _git("rev-parse", "HEAD").decode().strip()
                     + (" with uncommitted changes" if dirty else ""))
    kept = [r for r in doc.get("runs", [])
            if (r["workload"], r["seed"]) not in {(r2["workload"], r2["seed"]) for r2 in runs}]
    doc["runs"] = kept + runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for run in runs:
        for name, m in run["metrics"].items():
            print(f"{run['workload']} seed {run['seed']} {name}: "
                  f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                  f"({m['change_pct']:+.1f}%, {m['wins']}/{m['pairs']} wins, "
                  f"parent IQR {m['parent_iqr']:.3g}, "
                  f"rule {'holds' if m['paired_rule_holds'] else 'fails'}, "
                  f"{'WORSE than' if m['worse_than_bound'] else 'within'} "
                  f"its {m['bound']:.0%} bound)")
        print(f"{run['workload']} seed {run['seed']} passes per run: "
              f"{run['passes']['parent']:g} -> {run['passes']['change']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
