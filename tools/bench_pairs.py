"""Alternating parent/change benchmark pairs.

From a clone of the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --workload thermal-chain \
        --seeds 101-110 --seconds 20 --label spectrum

Both revisions are exported by commit (``git archive``) into directories
under ``--scratch`` (a temporary directory by default, removed at the end),
so the working tree is never benchmarked and the repository's own state is
not touched.  Pair k runs ``python3 perfbench/run.py`` once on each side with
the k-th seed, the parent first on even pairs and the change first on odd
ones, and reads each run's ``.perfbench-out/<workload>-seed<s>-trace0.result.json``.

It prints, per workload and end-to-end metric, the median and quartiles of
each side, how many pairs the change wins, and whether the medians differ
by more than the parent's interquartile range.  It writes
``BENCH_<label>.json`` at the repository root: both revisions, ``--seconds``,
the ``src/`` line count of each, every run with its metrics and BLAS thread
counts, and the summary.  The file is rewritten after every run, so an interrupted
series keeps the runs it made.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def parse_seeds(text):
    """'101-103,7' -> [101, 102, 103, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def side_order(pair):
    """Which side runs first alternates from pair to pair."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def export(revision, dest):
    """The files of one commit, without the repository's metadata."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", revision], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {revision} failed")


def src_lines(checkout):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((checkout / "src").rglob("*.py")))


def run_one(checkout, workload, seed, seconds):
    """One untraced perfbench run as a record.  A failed run carries no
    metrics, only its exit code and the tail of its standard error."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "trace": 0, "started_utc": started,
              "exit_code": proc.returncode}
    path = checkout / ".perfbench-out" / f"{workload}-seed{seed}-trace0.result.json"
    if proc.returncode != 0 or not path.is_file():
        record["stderr"] = proc.stderr[-2000:]
        return record
    doc = json.loads(path.read_text())
    result = doc["result"]
    record.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"],
                  metrics={k: v["value"] for k, v in result["metrics"].items()},
                  blas_threads=doc["info"]["blas_threads"])
    return record


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, better):
    """Per workload and metric: each side's quartiles, the change's wins over
    the complete pairs, and whether the medians differ by more than the
    parent's interquartile range.  ``better`` maps a metric to "lower" or
    "higher"."""
    pairs = {}
    for run in runs:
        if "metrics" in run:
            pairs.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for workload, by_pair in sorted(pairs.items()):
        complete = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        if not complete:
            continue
        table = {}
        for metric in complete[0]["parent"]["metrics"]:
            values = {side: [p[side]["metrics"][metric] for p in complete] for side in SIDES}
            sign = -1.0 if better.get(metric, "lower") == "higher" else 1.0
            wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
            (p1, p2, p3), (c1, c2, c3) = (quartiles(values[side]) for side in SIDES)
            table[metric] = {
                "parent": {"median": p2, "q1": p1, "q3": p3},
                "change": {"median": c2, "q1": c1, "q3": c3},
                "change_wins": wins, "pairs": len(complete),
                "beyond_parent_iqr": abs(c2 - p2) > p3 - p1,
            }
        summary[workload] = table
    return summary


def format_summary(summary):
    lines = []
    for workload, table in summary.items():
        lines.append(workload)
        for metric, row in table.items():
            p, c = row["parent"], row["change"]
            lines.append(f"  {metric:12s} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                         f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  change wins "
                         f"{row['change_wins']}/{row['pairs']}"
                         f"{'' if row['beyond_parent_iqr'] else ', within the parent IQR'}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent revision")
    parser.add_argument("change", help="change revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload (repeatable)")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one seed per pair, e.g. 101-110")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the two exports (default: a temporary one)")
    args = parser.parse_args(argv)

    revisions = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
                 for side, rev in zip(SIDES, (args.parent, args.change))}
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label, **{f"{s}_revision": revisions[s] for s in SIDES},
           "seconds": args.seconds, "runs": []}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.scratch, prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revisions[side], checkouts[side])
        doc["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
        for workload in args.workload:
            for pair, seed in enumerate(args.seeds):
                for side in side_order(pair):
                    record = run_one(checkouts[side], workload, seed, args.seconds)
                    record.update(side=side, revision=revisions[side], pair=pair,
                                  src_lines=doc["src_lines"][side])
                    doc["runs"].append(record)
                    shown = record.get("metrics", {}).get("item_s.p50")
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          f"item_s.p50 {shown if shown is not None else 'FAILED'}",
                          file=sys.stderr, flush=True)
                    doc["summary"] = summarize(doc["runs"], better)
                    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(format_summary(doc["summary"]))
    return 0 if all(r["exit_code"] == 0 for r in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
