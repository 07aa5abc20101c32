"""Alternating pairs of benchmark runs, parent against change, and whether
a claimed gain clears the parent's own spread.

    python3 benchmarks/pairs.py --parent HEAD~1 --workload trisolve_5pt \\
        --pairs 10 --seconds 30 --claim rel_cold.vectorized

The parent is ``git archive`` of ``--parent`` unpacked into a temporary
directory (nothing is fetched; the repository is not touched); the change
is a copy of this checkout's working tree — tracked files as they are on
disk, uncommitted edits included, and untracked files git does not
ignore — in a sibling temporary directory whose path has the same length
(``pairs-parent-*``, ``pairs-change-*``), so both sides run from the same
kind of path: the allocator's layout, and with it ``peak_rss_mb``, can
follow the length of the command line.  Each run is
``benchmarks/e2e/run.py --trace 0`` of its own tree in a fresh process
(a traced run reports per-layer metrics, not the gated ones); pair ``k`` runs the parent first when ``k`` is odd and
the change first when it is even, so drift of the machine falls on both
sides alike.  Per workload and gated metric (``BENCHMARK.json``'s
``end_to_end``) it prints the median and ``[p25, p75]`` of parent ->
change and the pairs the change won in the metric's direction.  For each
``--claim`` it prints ``claim met`` only when the medians differ by more
than the parent's quartile spread (``p75 - p25``) in the better
direction and the change won at least nine tenths of the pairs (a tie
counts for neither side), else ``claim not met``.  Every run appends one JSON line (sha,
machine, workload, side, every gated metric, correctness) to
``--out`` (default ``benchmarks/results/pairs.jsonl``).

Ungated and outside the tier-1 suite; its smoke test is
``benchmarks/tests/test_pairs.py`` (``-m slow``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import shutil
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "pairs.jsonl"


def gated_metrics() -> dict[str, str]:
    """``{metric: "lower" | "higher"}`` of the benchmark's end-to-end
    metrics, in ``BENCHMARK.json``'s order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(ref: str, into: Path, root: Path = ROOT) -> str:
    """Unpack the committed tree of ``ref`` into ``into``; its sha."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}", root=root)
    tar = subprocess.run(
        ["git", "archive", "--format=tar", sha],
        cwd=root, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return sha


def change_sha(root: Path = ROOT) -> str:
    """``HEAD``'s sha, with ``-dirty`` when the checkout differs from it."""
    sha = git("rev-parse", "HEAD", root=root)
    dirty = git("status", "--porcelain", "--untracked-files=no", root=root)
    return sha + ("-dirty" if dirty else "")


def copy_worktree(into: Path, root: Path = ROOT) -> None:
    """Copy the working tree of ``root`` into ``into``: every tracked file
    as it is on disk (a deleted one is skipped) and every untracked file
    that is not ignored."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


@contextmanager
def side_trees(parent_ref: str, root: Path = ROOT):
    """``{"parent": (tree, sha), "change": (tree, sha)}`` in two sibling
    temporary directories whose paths have the same length: ``parent_ref``
    exported, and the working tree of ``root`` copied."""
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="pairs-change-") as change:
        parent_tree, change_tree = Path(parent), Path(change)
        sha = change_sha(root)
        copy_worktree(change_tree, root)
        yield {"parent": (parent_tree, export(parent_ref, parent_tree, root)),
               "change": (change_tree, sha)}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``tree`` in a fresh process: its result line."""
    proc = subprocess.run(
        [
            sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True, timeout=seconds * 10 + 300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run of {tree} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def build_object(tree: Path) -> None:
    """Build (or load) ``tree``'s compiled object once, so that no
    measured run starts a compiler (it would count in ``peak_rss_mb``)."""
    subprocess.run(
        [sys.executable, "-c", "from repro.backends import native; native.describe()"],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(p25, median, p75)``; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, median, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return p25, median, p75


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """The pairs whose change run is strictly better; a tie wins none."""
    return sum(
        (c < p) if better == "lower" else (c > p) for p, c in zip(parent, change)
    )


def verdict(parent: list[float], change: list[float], better: str) -> bool:
    """Whether the change won at least nine tenths of the pairs and its
    median beats the parent's by more than the parent's quartile spread,
    in the ``better`` direction."""
    if 10 * pairs_won(parent, change, better) < 9 * len(parent):
        return False
    p25, p_med, p75 = quartiles(parent)
    gain = p_med - quartiles(change)[1]
    return (gain if better == "lower" else -gain) > p75 - p25


def report(workload: str, rows: list[tuple[dict, dict]], claims: list[str]) -> list[str]:
    """Print the table of one workload's pairs; the claim lines."""
    directions = gated_metrics()
    print(f"# {workload}: {len(rows)} pairs, median [p25, p75] parent -> change, pairs won")
    out = []
    for name, better in directions.items():
        parent = [p["metrics"][name]["value"] for p, _ in rows]
        change = [c["metrics"][name]["value"] for _, c in rows]
        won = pairs_won(parent, change, better)
        (a25, a, a75), (b25, b, b75) = quartiles(parent), quartiles(change)
        delta = (b - a) / a * 100 if a else float("nan")
        print(
            f"  {name:<22} {a:.4g} [{a25:.4g}, {a75:.4g}] -> {b:.4g} "
            f"[{b25:.4g}, {b75:.4g}]  {delta:+.1f} %  {won}/{len(rows)}"
        )
        if name in claims:
            met = verdict(parent, change, better)
            out.append(
                f"{workload} {name}: claim {'met' if met else 'not met'} "
                f"({a:.4g} -> {b:.4g}, parent spread {a75 - a25:.4g}, "
                f"{won}/{len(rows)} pairs won)"
            )
    correct = all(r["correct"] and r["failed"] == 0 for pair in rows for r in pair)
    print(f"  every operation correct: {correct}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="git ref of the parent")
    ap.add_argument("--workload", action="append", required=True,
                    help="a benchmark workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1991)
    ap.add_argument("--claim", action="append", default=[],
                    help="a gated metric claimed to improve (repeatable)")
    ap.add_argument("--out", type=Path, default=RESULTS)
    args = ap.parse_args(argv)
    unknown = set(args.claim) - set(gated_metrics())
    if unknown:
        ap.error(f"not a gated metric: {', '.join(sorted(unknown))}")
    machine = {
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    claims = []
    with side_trees(args.parent) as sides:
        for tree, _sha in sides.values():
            build_object(tree)
        for workload in args.workload:
            rows = []
            for k in range(1, args.pairs + 1):
                first = ("parent", "change") if k % 2 else ("change", "parent")
                got = {}
                for side in first:
                    tree, sha = sides[side]
                    result = run_once(tree, workload, args.seed, args.seconds)
                    got[side] = result
                    row = {
                        "sha": sha, "side": side, "pair": k, "workload": workload,
                        "seed": args.seed, "seconds": args.seconds, **machine,
                        "correct": result["correct"], "failed": result["failed"],
                        "metrics": {
                            name: result["metrics"][name]["value"]
                            for name in gated_metrics()
                        },
                    }
                    with args.out.open("a") as f:
                        f.write(json.dumps(row) + "\n")
                rows.append((got["parent"], got["change"]))
            claims += report(workload, rows, args.claim)
    for line in claims:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
