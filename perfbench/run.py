"""Campaign benchmark: end-to-end campaign metrics and a per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lockstep-pathfinder --seed 1 \\
        --seconds 56 --trace 0

A run executes campaigns of the named workload (see
``perfbench/workloads.py``) through the public ``Campaign`` API, one
campaign seed after another as ``--seed`` orders them, until
``--seconds`` have passed (at least ``MIN_CAMPAIGNS``).  Every campaign
runs in a fresh child process with a fresh checkpoint directory and
log, so set-up always includes checkpoint capture and no process-level
cache outlives a campaign.

``--trace 0`` reports, with tracing off:

- ``campaign_s``: ``Campaign`` construction to the returned result,
  mean over the campaigns;
- ``setup_s``: construction to the dispatch of the first run, median
  over the campaigns;
- ``exec_runs_per_s``: records / (``campaign_s`` - ``setup_s``), summed
  over the campaigns;
- ``peak_rss_mb``: peak resident memory of a campaign's child process,
  median over the campaigns.

``--trace 1`` runs each campaign twice, untraced then traced, and
reports the per-layer metrics of ``workloads.MOVES`` from spans
recorded around each layer's public functions: medians over the traced
campaigns, except the ``sim.run_*`` latency percentiles, which pool
every simulated run of them, and ``trace.overhead_s``, the mean extra
wall-clock of a traced campaign.  It fails the run when a layer the
workload must bypass did work or a layer it must use did none.  The
spans of the last traced campaign are written to
``.perfbench/spans-<workload>.json``.

Every record is compared with the plain path (``early_stop="off"``, no
checkpoints, ``batch=1``, same campaign seed), computed after the timed
campaigns and cached per campaign seed under ``.perfbench/``.  Runs
that raise, go missing or differ count as ``failed``; ``error_frac`` =
failed / attempted.  The last stdout line is the JSON result; the line
before it records provenance.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import count_errors, latency_summary, record_key  # noqa: E402
from workloads import (MOVES, WORKLOADS, campaign_seeds,  # noqa: E402
                       layer_violations)

#: Campaigns per run, whatever ``--seconds`` says (traced: pairs).
MIN_CAMPAIGNS = 3
MIN_TRACED = 1

#: Wall-clock limit of one run: children still running then are killed
#: and their campaigns count as failed.
RUN_LIMIT_S = 170

SCRATCH = ROOT / ".perfbench"

END_TO_END = {"campaign_s": "s", "setup_s": "s", "exec_runs_per_s": "1/s",
              "peak_rss_mb": "MB"}


def say(line: str) -> None:
    print(line, flush=True)


def warn(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


# -- provenance and self-check ----------------------------------------------

def _git(*args) -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return ""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout if done.returncode == 0 else ""


def source_digest() -> str:
    """sha256 over the program's sources (keys the reference cache)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, campaign_seeds, src: str) -> dict:
    import numpy

    return {"workload": workload, "seed": seed,
            "campaign_seeds": campaign_seeds,
            "git_sha": _git("rev-parse", "HEAD").strip() or "unknown",
            "src_sha256": src, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def _ignored(patterns, rel: str) -> bool:
    """Whether .gitignore ``patterns`` ignore the relative path."""
    hit = False
    for pattern in patterns:
        negate = pattern.startswith("!")
        body = pattern.lstrip("!").rstrip("/")
        if "/" in body.strip("/"):
            candidates = [rel]
        else:
            candidates = rel.split("/")
        if any(fnmatch.fnmatch(c, body.lstrip("/")) for c in candidates):
            hit = not negate
    return hit


def self_check() -> list:
    """The benchmark's own files must be committed and never ignored
    (an ignored file is silently missing from a fresh checkout)."""
    files = ["BENCHMARK.json"] + sorted(
        str(p.relative_to(ROOT)) for p in HERE.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts)
    problems = []
    if _git("rev-parse", "--git-dir"):
        tracked = set(_git("ls-files", "--", *files).split())
        ignored = _git("check-ignore", "--no-index", "--", *files).split()
        problems += [f"{f} is git-ignored" for f in ignored]
        problems += [f"{f} is not tracked by git" for f in files
                     if f not in tracked]
    else:
        gitignore = ROOT / ".gitignore"
        lines = (gitignore.read_text(encoding="utf-8").splitlines()
                 if gitignore.exists() else [])
        patterns = [s.strip() for s in lines
                    if s.strip() and not s.startswith("#")]
        problems += [f"{f} is git-ignored" for f in files
                     if _ignored(patterns, f)]
    return problems


# -- child processes ----------------------------------------------------------

def run_child(job: dict, deadline: float) -> dict:
    """Run one job of ``rep.py`` in a fresh process and a fresh
    working directory (removed afterwards).  A child still running at
    ``deadline`` (a ``time.monotonic()`` value) is killed together with
    any worker processes it started."""
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH / "tmp"))
    try:
        job = dict(job, workdir=str(workdir), out=str(workdir / "out.json"))
        (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        argv = [sys.executable, str(HERE / "rep.py"),
                str(workdir / "job.json")]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(workdir / "stderr.txt", "w+", encoding="utf-8") as err:
            with subprocess.Popen(argv, cwd=ROOT, env=env, stderr=err,
                                  stdout=subprocess.DEVNULL,
                                  start_new_session=True) as child:
                try:
                    child.wait(timeout=max(deadline - time.monotonic(), 1))
                except subprocess.TimeoutExpired:
                    os.killpg(child.pid, signal.SIGKILL)
                    child.wait()
                    return {"error": "child killed at the run's deadline"}
            err.seek(0)
            stderr = err.read()
        out_path = workdir / "out.json"
        if child.returncode != 0 or not out_path.exists():
            return {"error": f"child exited {child.returncode}: "
                             f"{stderr[-2000:]}"}
        return json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def repeat(seconds: float, minimum: int, step) -> None:
    """Call ``step()`` at least ``minimum`` times, then while the next
    call is expected to end within ``seconds``."""
    started = time.perf_counter()
    done = 0
    while True:
        step_started = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= minimum and (now - started) + (now - step_started) \
                > seconds:
            return


# -- the benchmark ---------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def effect_counts(records) -> dict:
    """``{"kernel/structure": {effect: runs}}`` of a record set."""
    counts = {}
    for r in records:
        per = counts.setdefault(f"{r['kernel']}/{r['structure']}", {})
        per[r["effect"]] = per.get(r["effect"], 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        warn(f"perfbench: no program to measure ({ROOT / 'src/repro'} "
             "is missing)")
        return 2
    problems = self_check()
    src = source_digest()
    workload = WORKLOADS[args.workload]
    seeds = campaign_seeds(args.seed)
    untraced, traced = [], []

    def timed(mode, seed):
        result = run_child({"mode": mode, "workload": args.workload,
                            "campaign_seed": seed}, deadline)
        return dict(result, campaign_seed=seed)

    if args.trace:
        def pair():
            seed = next(seeds)
            untraced.append(timed("timed", seed))
            traced.append(timed("traced", seed))
        repeat(args.seconds, MIN_TRACED, pair)
    else:
        repeat(args.seconds, MIN_CAMPAIGNS,
               lambda: untraced.append(timed("timed", next(seeds))))

    # the plain-path reference, untimed; the adaptive planner picks its
    # runs, so the untraced campaign names the runs to check
    wanted = {}
    for rep in untraced:
        keys = None
        if workload["adaptive"] == "on":
            keys = [list(record_key(r)) for r in rep.get("records", ())]
        wanted.setdefault(rep["campaign_seed"], keys)
    reference = run_child({
        "mode": "reference", "workload": args.workload,
        "campaigns": [{"seed": s, "keys": k} for s, k in wanted.items()],
        "jobs": min(os.cpu_count() or 1, 2),
        "cache": str(SCRATCH / "reference" / src[:16])}, deadline)
    if "error" in reference:
        warn(f"perfbench: reference path failed:\n{reference['error']}")
        return 1
    refs = {int(seed): {record_key(r): r for r in records}
            for seed, records in reference["records"].items()}

    attempted = failed = 0
    for rep in untraced + traced:
        ref = refs[rep["campaign_seed"]]
        attempted += len(ref)
        if "error" in rep:
            problems.append(f"campaign seed {rep['campaign_seed']} "
                            f"raised:\n{rep['error']}")
            failed += len(ref)
            continue
        failed += count_errors(rep["records"], ref)
        if rep["counts"] != effect_counts(ref.values()):
            problems.append(f"campaign seed {rep['campaign_seed']}: "
                            "aggregated counts differ from the records")
    for plain, trace in zip(untraced, traced):
        if "records" in plain and "records" in trace:
            by_key = {record_key(r): r for r in plain["records"]}
            failed += count_errors(trace["records"], by_key,
                                   same=lambda a, b: a == b)

    ok = [r for r in untraced if "error" not in r]
    if args.trace:
        layer_reps = [r["layers"] for r in traced if "layers" in r]
        for layers in layer_reps:
            problems += layer_violations(args.workload, layers)
        values = {name: _median([r[name] for r in layer_reps])
                  for name in layer_reps[0]} if layer_reps else {}
        latency = latency_summary(
            [x for t in traced for x in t.get("latencies", ())])
        pairs = [(p, t) for p, t in zip(untraced, traced)
                 if "error" not in p and "layers" in t]
        values.update({
            "sim.run_p50_s": latency["p50"],
            "sim.run_tail_s": latency["tail"],
            "sim.run_tail_pct": latency["tail_pct"],
            "sim.run_samples": latency["samples"],
            "trace.overhead_s": _mean([t["campaign_s"] - p["campaign_s"]
                                       for p, t in pairs])})
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, (unit, _, _) in MOVES.items()}
        spans = [t["spans"] for t in traced if "spans" in t]
        if spans:
            (SCRATCH / f"spans-{args.workload}.json").write_text(
                json.dumps(spans[-1]), encoding="utf-8")
    else:
        exec_s = sum(r["campaign_s"] - r["setup_s"] for r in ok)
        metrics = {
            "campaign_s": _mean([r["campaign_s"] for r in ok]),
            "setup_s": _median([r["setup_s"] for r in ok]),
            "exec_runs_per_s": (sum(len(r["records"]) for r in ok) / exec_s
                                if exec_s > 0 else 0.0),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}

    error_frac = failed / attempted if attempted else 1.0
    for problem in problems:
        warn(f"perfbench: {problem}")
    say(f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced + {len(traced)} traced campaigns, "
        f"{attempted} runs checked "
        f"({reference['computed']} plain-path reference runs simulated)")
    for name, metric in metrics.items():
        say(f"{args.workload} {name} {metric['value']:.6g} "
            f"{metric['unit']}")
    say(f"{args.workload} error_frac {error_frac:.6g} ratio")
    say(json.dumps({"provenance": provenance(
        args.workload, args.seed, [r["campaign_seed"] for r in untraced],
        src)}))
    say(json.dumps({"correct": failed == 0 and not problems,
                    "attempted": attempted, "failed": failed,
                    "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
