"""One campaign of a benchmark workload, in its own process.

Run as ``python perfbench/rep.py <job.json>`` with ``src`` on the
path.  The job names a mode:

- ``timed``: run one campaign of the workload, untraced, and report
  its end-to-end timings and records;
- ``traced``: the same campaign with a span around every call into
  each layer's public functions, reporting per-layer metrics;
- ``reference``: the plain path (no checkpoints, ``early_stop="off"``,
  ``batch=1``) for a set of campaigns, cached per campaign seed.

The result is written as JSON to the job's ``out`` path.  A campaign
that raises is reported, not re-raised, so the parent can count it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import Tracer, record_key, self_times  # noqa: E402
from workloads import CARD, WORKLOADS  # noqa: E402

# every module a campaign imports lazily: loaded before the clock starts
import repro.dist.backend  # noqa: E402,F401
import repro.faults.batch_executor as batch_mod  # noqa: E402
import repro.faults.campaign as campaign_mod  # noqa: E402
import repro.faults.early_stop as early_mod  # noqa: E402
import repro.faults.executor as executor_mod  # noqa: E402
import repro.plan.driver as driver_mod  # noqa: E402
import repro.plan.model as model_mod  # noqa: E402
import repro.sim.checkpoint as ckpt_mod  # noqa: E402
import repro.sim.gpu as gpu_mod  # noqa: E402
import repro.sim.liveness  # noqa: E402,F401
from repro.faults.targets import Structure  # noqa: E402


def config_for(workload: str, seed: int, workdir: Path, plain=False,
               runs=None):
    """The workload's :class:`CampaignConfig`, or its plain path."""
    shape = WORKLOADS[workload]
    structures = tuple(Structure(s) for s in shape["structures"])
    if plain:
        return campaign_mod.CampaignConfig(
            benchmark=shape["benchmark"], card=CARD,
            structures=structures, seed=seed,
            runs_per_structure=runs or shape["runs"], early_stop="off")
    return campaign_mod.CampaignConfig(
        benchmark=shape["benchmark"], card=CARD, structures=structures,
        seed=seed, runs_per_structure=shape["runs"],
        checkpoint_dir=(workdir / "ckpt") if shape["checkpoints"] else None,
        early_stop=shape["early_stop"], batch=shape["batch"],
        adaptive=shape["adaptive"], log_path=workdir / "campaign.log")


# -- instrumentation ---------------------------------------------------------

def _stamp_first_dispatch(clock):
    """Untraced runs: note only when the first run is dispatched."""
    first = []

    def stamped(fn):
        def call(*args, **kwargs):
            if not first:
                first.append(clock())
            return fn(*args, **kwargs)
        return call
    run = stamped(executor_mod.execute_run)
    executor_mod.execute_run = batch_mod.execute_run = run
    batch_mod.execute_pack = stamped(batch_mod.execute_pack)
    return first


def _sim_tag(args, kwargs, result, error):
    options = kwargs.get("options")
    fast_forward = options.fast_forward if options is not None else None
    return {
        "monitored": isinstance(getattr(options, "convergence", None),
                                early_mod.ConvergenceMonitor),
        "converged": (result is not None
                      and result.terminated_at is not None),
        "fallback": (fast_forward is not None and fast_forward.active
                     and isinstance(error, ckpt_mod.CheckpointError)),
    }


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans."""
    wrap = tracer.wrap
    campaign = campaign_mod.Campaign
    campaign.plan = wrap("campaign.plan", campaign.plan)
    campaign.execute = wrap("campaign.execute", campaign.execute)
    campaign.aggregate = wrap("campaign.aggregate", campaign.aggregate)
    campaign_mod.profile_application = wrap(
        "campaign.golden", campaign_mod.profile_application,
        tag=lambda a, k, r, e: {"cycles": r[1].cycles if r else 0})
    mask = wrap("executor.mask", executor_mod.regenerate_mask)
    for module in (campaign_mod, executor_mod, batch_mod, driver_mod):
        module.regenerate_mask = mask
    run = wrap("executor.run", executor_mod.execute_run,
               tag=lambda a, k, r, e: {"simulated": bool(
                   r and not r.get("prescreened")
                   and not r.get("synthesized"))})
    executor_mod.execute_run = batch_mod.execute_run = run
    batch_mod.execute_pack = wrap(
        "batch.pack", batch_mod.execute_pack,
        tag=lambda a, k, r, e: {"stats": r[1] if r else {}})
    executor_mod.classify_run = wrap("executor.classify",
                                     executor_mod.classify_run)
    executor_mod.run_application = wrap(
        "sim.run", executor_mod.run_application, tag=_sim_tag)
    gpu = gpu_mod.GPU
    gpu.snapshot = wrap("checkpoint.snapshot", gpu.snapshot)
    gpu.restore = wrap("checkpoint.restore", gpu.restore)
    ckpt_set = ckpt_mod.CheckpointSet
    ckpt_set.load_snapshot = wrap("checkpoint.load", ckpt_set.load_snapshot)
    digest = wrap("checkpoint.digest", ckpt_mod.state_digest)
    ckpt_mod.state_digest = early_mod.state_digest = digest
    screener = early_mod.Prescreener
    screener.evaluate = wrap("early_stop.prescreen", screener.evaluate)
    monitor = early_mod.ConvergenceMonitor
    monitor.on_cycle = wrap("early_stop.monitor", monitor.on_cycle)
    driver_mod.run_adaptive = wrap("plan.driver", driver_mod.run_adaptive)
    driver_mod.stratum_of = wrap("plan.stratum", driver_mod.stratum_of)
    model_mod.LogisticModel.fit = staticmethod(
        wrap("plan.fit", model_mod.LogisticModel.fit))


def _tree_bytes(path) -> int:
    if path is None or not Path(path).exists():
        return 0
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(tracer: Tracer, records, campaign) -> tuple:
    """Per-layer metrics of one traced campaign (see workloads.MOVES),
    and the latencies of its simulated ``execute_run`` calls (their
    percentiles are taken over every traced campaign of a run)."""
    spans = tracer.spans
    count, total, own = Counter(), defaultdict(float), defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        count[span.name] += 1
        total[span.name] += span.duration
        own[span.name] += self_s

    def select(name, test=lambda i, s: True):
        return [(i, s) for i, s in enumerate(spans)
                if s.name == name and test(i, s)]

    def under(name):
        return lambda i, s: name in tracer.ancestors(i)

    capture = select("checkpoint.digest", under("campaign.golden"))
    converge = select("checkpoint.digest",
                      lambda i, s: "campaign.golden" not in
                      tracer.ancestors(i))
    mask_exec = select("executor.mask", under("campaign.execute"))
    sims = [s.attrs for _, s in select("sim.run")]
    monitored = sum(1 for a in sims if a["monitored"])
    converged = sum(1 for a in sims if a["monitored"] and a["converged"])
    latencies = [s.duration for _, s in select(
        "executor.run", lambda i, s: s.attrs["simulated"])]
    units = select("executor.run", lambda i, s: s.parent >= 0
                   and spans[s.parent].name == "campaign.execute")
    packs = [s.attrs["stats"] for _, s in select("batch.pack")]

    def pack_sum(key):
        return sum(p.get(key, 0) for p in packs)
    members = pack_sum("members")
    member_cycles = pack_sum("member_cycles")
    golden_cycles = sum(s.attrs["cycles"]
                        for _, s in select("campaign.golden"))
    golden_s = total["campaign.golden"]
    report = campaign.last_plan
    cfg = campaign.config
    return {
        "campaign.plan_s": total["campaign.plan"],
        "campaign.golden_s": golden_s,
        "campaign.aggregate_s": total["campaign.aggregate"],
        "sim.golden_cycles": golden_cycles,
        "sim.golden_kcycles_per_s": (golden_cycles / golden_s / 1000.0
                                     if golden_s else 0.0),
        "sim.runs": count["sim.run"],
        "sim.run_self_s": own["sim.run"],
        "checkpoint.snapshots": count["checkpoint.snapshot"],
        "checkpoint.snapshot_s": total["checkpoint.snapshot"],
        "checkpoint.digests_capture": len(capture),
        "checkpoint.digest_capture_s": sum(s.duration for _, s in capture),
        "checkpoint.digests_converge": len(converge),
        "checkpoint.digest_converge_s": sum(s.duration
                                            for _, s in converge),
        "checkpoint.restores": count["checkpoint.restore"],
        "checkpoint.restore_s": (total["checkpoint.restore"]
                                 + total["checkpoint.load"]),
        "checkpoint.set_bytes": _tree_bytes(cfg.checkpoint_dir),
        "checkpoint.fallbacks": sum(1 for a in sims if a["fallback"]),
        "early_stop.prescreen_calls": count["early_stop.prescreen"],
        "early_stop.prescreen_s": total["early_stop.prescreen"],
        "early_stop.prescreened_frac": (
            sum(1 for r in records if r.get("prescreened"))
            / max(len(records), 1)),
        "early_stop.converged_frac": (converged / monitored
                                      if monitored else 0.0),
        "early_stop.monitor_self_s": own["early_stop.monitor"],
        "executor.units": len(units) + len(packs),
        "executor.mask_plan_s": (total["executor.mask"]
                                 - sum(s.duration for _, s in mask_exec)),
        "executor.mask_exec_s": sum(s.duration for _, s in mask_exec),
        "executor.classify_s": total["executor.classify"],
        "executor.self_s": own["campaign.execute"],
        "executor.log_bytes": _tree_bytes(cfg.log_path),
        "batch.packs": len(packs),
        "batch.members": members,
        "batch.pack_s": total["batch.pack"],
        "batch.lockstep_frac": (pack_sum("lockstep_cycles") / member_cycles
                                if member_cycles else 0.0),
        "batch.in_pack_frac": ((pack_sum("converged")
                                + pack_sum("completed_in_pack")) / members
                               if members else 0.0),
        "batch.peeled": pack_sum("peeled"),
        "batch.solo_fallback": pack_sum("solo_fallback"),
        "plan.rounds": report.rounds if report else 0,
        "plan.executed": report.executed() if report else 0,
        "plan.uniform_runs": (sum(report.uniform_runs.values())
                              if report else 0),
        "plan.driver_self_s": own["plan.driver"],
        "plan.stratum_s": total["plan.stratum"],
        "plan.fit_s": total["plan.fit"],
        "trace.unattributed_s": own["campaign"],
    }, latencies


# -- modes -------------------------------------------------------------------

def _counts(result) -> dict:
    return {f"{kernel}/{structure.value}": {e.value: n
                                            for e, n in effects.items()}
            for kernel, per in result.counts.items()
            for structure, effects in per.items()}


def campaign_rep(job: dict, traced: bool) -> dict:
    """Run one campaign; traced or with only its first dispatch noted."""
    config = config_for(job["workload"], job["campaign_seed"],
                        Path(job["workdir"]))
    clock = time.perf_counter
    tracer = Tracer(clock)
    if traced:
        instrument(tracer)
    else:
        first = _stamp_first_dispatch(clock)
    started = clock()
    root = tracer.open("campaign")
    campaign = campaign_mod.Campaign(config)
    result = campaign.run(jobs=1)
    tracer.close(root)
    ended = clock()
    out = {"records": result.records, "counts": _counts(result),
           "campaign_s": ended - started}
    if traced:
        out["layers"], out["latencies"] = layer_metrics(
            tracer, result.records, campaign)
        out["spans"] = [[s.name, s.start - started, s.end - started,
                         s.parent] for s in tracer.spans]
    else:
        out["setup_s"] = (first[0] if first else ended) - started
        out["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def _key_text(key) -> str:
    return "/".join(map(str, key))


def _reference_one(workload: str, seed: int, keys, cache_path: Path,
                   workdir: Path, jobs: int) -> tuple:
    cached = {}
    if cache_path.exists():
        cached = json.loads(cache_path.read_text(encoding="utf-8"))
    runs = (max(k[2] for k in keys) + 1) if keys else None
    config = config_for(workload, seed, workdir, plain=True, runs=runs)
    specs = campaign_mod.Campaign(config).plan()
    if keys:
        wanted = {tuple(k) for k in keys}
        specs = [s for s in specs if s.key in wanted]
    todo = [s for s in specs if _key_text(s.key) not in cached]
    if todo:
        fresh = executor_mod.CampaignExecutor(jobs=jobs).execute(todo)
        cached.update({_key_text(record_key(r)): r for r in fresh})
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(cached), encoding="utf-8")
        os.replace(tmp, cache_path)
    return [cached[_key_text(s.key)] for s in specs], len(todo)


def reference(job: dict) -> dict:
    """Plain-path records of every campaign in ``job["campaigns"]``
    (``{"seed", "keys"}``; no keys = the whole plan), reusing a cache
    file per benchmark and campaign seed under ``job["cache"]``."""
    benchmark = WORKLOADS[job["workload"]]["benchmark"]
    out, computed = {}, 0
    for campaign in job["campaigns"]:
        seed = campaign["seed"]
        records, fresh = _reference_one(
            job["workload"], seed, campaign["keys"],
            Path(job["cache"]) / f"{benchmark}-seed{seed}.json",
            Path(job["workdir"]), job["jobs"])
        out[str(seed)] = records
        computed += fresh
    return {"records": out, "computed": computed}


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    try:
        if job["mode"] == "reference":
            out = reference(job)
        else:
            out = campaign_rep(job, traced=job["mode"] == "traced")
    except Exception:  # reported to the parent, which counts the loss
        out = {"error": traceback.format_exc()}
    Path(job["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
