"""The benchmark's fixed workloads and what each layer metric predicts.

Every campaign runs on card RTX2060 with ``jobs=1``.  A benchmark run
executes a sequence of campaigns of one workload, one per campaign
seed, in the order :func:`campaign_seeds` draws them from a fixed pool
with the benchmark's ``--seed``.  There are two workloads, each
bypassing the other's fast paths, so every optional layer has one
workload that exercises it and one on which it must read zero.

Why a pool, and several campaigns per run: with a few dozen runs, the
cost of one campaign moves by about +-30% with its fault draw (how
many runs the pre-screen settles, how many pack members peel off, how
soon a run converges), so one campaign per seed cannot measure a
change of a few percent.  Averaging over several campaigns per run
removes most of that.  Every record is also checked against the plain
path, which costs one full simulation per run; drawing campaign seeds
from a fixed pool bounds that untimed cost to the pool, cached after
first use.
"""

from __future__ import annotations

import random

CARD = "RTX2060"

#: Campaign seeds a benchmark run draws from.
POOL = tuple(range(1, 33))

#: name -> campaign shape.  ``runs`` is runs per structure (the run
#: budget per structure for the adaptive workload).
WORKLOADS = {
    # nearly all time in lockstep packs and in the solo re-runs of
    # peeled members (the N=1 cycle loop); never touches checkpoints,
    # digests or the pre-screen.  Register-file faults only: how many
    # shared-memory members peel off swings widely with the fault draw
    "lockstep-pathfinder": dict(
        benchmark="pathfinder",
        structures=("register_file",),
        runs=48, checkpoints=False, early_stop="off", batch=8,
        adaptive="off", layers=("batch",)),
    # the planner picks live sites, so almost every run restores,
    # simulates and digests; the only workload that reaches repro.plan
    "adaptive-pathfinder": dict(
        benchmark="pathfinder",
        structures=("register_file", "shared_mem"),
        runs=12, checkpoints=True, early_stop="full", batch=1,
        adaptive="on", layers=("checkpoint", "early_stop", "plan")),
}


def campaign_seeds(seed: int):
    """The campaign seeds of one benchmark run, in order: the pool
    shuffled by ``seed``, then repeated."""
    order = list(POOL)
    random.Random(seed).shuffle(order)
    while True:
        yield from order


#: Layers a workload may bypass, each with the count that shows the
#: layer did work.  Every metric of a bypassed layer must read 0.
OPTIONAL_LAYERS = {
    "batch": "batch.packs",
    "checkpoint": "checkpoint.snapshots",
    "early_stop": "early_stop.prescreen_calls",
    "plan": "plan.rounds",
}

#: Counts of fallback paths: each must read 0 on every workload.
FAILURE_COUNTS = ("checkpoint.fallbacks", "batch.solo_fallback")

ALL = "every workload"
LOCKSTEP = "lockstep-pathfinder"
ADAPTIVE = "adaptive-pathfinder"

#: per-layer metric -> (unit, end-to-end metric it should move,
#: workloads on which it should move it).
MOVES = {
    "campaign.plan_s": ("s", "setup_s", ALL),
    "campaign.golden_s": ("s", "setup_s", ALL),
    "campaign.aggregate_s": ("s", "campaign_s", ALL),
    "sim.golden_cycles": ("count", "setup_s", ALL),
    "sim.golden_kcycles_per_s": ("kcycles/s", "setup_s", ALL),
    "sim.runs": ("count", "exec_runs_per_s", LOCKSTEP),
    "sim.run_self_s": ("s", "exec_runs_per_s", LOCKSTEP),
    "sim.run_p50_s": ("s", "exec_runs_per_s", LOCKSTEP),
    "sim.run_tail_s": ("s", "exec_runs_per_s", LOCKSTEP),
    "sim.run_tail_pct": ("%", "exec_runs_per_s", LOCKSTEP),
    "sim.run_samples": ("count", "exec_runs_per_s", LOCKSTEP),
    "checkpoint.snapshots": ("count", "setup_s", ADAPTIVE),
    "checkpoint.snapshot_s": ("s", "setup_s", ADAPTIVE),
    "checkpoint.digests_capture": ("count", "setup_s", ADAPTIVE),
    "checkpoint.digest_capture_s": ("s", "setup_s", ADAPTIVE),
    "checkpoint.digests_converge": ("count", "exec_runs_per_s", ADAPTIVE),
    "checkpoint.digest_converge_s": ("s", "exec_runs_per_s", ADAPTIVE),
    "checkpoint.restores": ("count", "exec_runs_per_s", ADAPTIVE),
    "checkpoint.restore_s": ("s", "exec_runs_per_s", ADAPTIVE),
    "checkpoint.set_bytes": ("bytes", "peak_rss_mb", ADAPTIVE),
    "checkpoint.fallbacks": ("count", "exec_runs_per_s", ALL),
    "early_stop.prescreen_calls": ("count", "setup_s", ADAPTIVE),
    "early_stop.prescreen_s": ("s", "setup_s", ADAPTIVE),
    "early_stop.prescreened_frac": ("ratio", "exec_runs_per_s", ADAPTIVE),
    "early_stop.converged_frac": ("ratio", "exec_runs_per_s", ADAPTIVE),
    "early_stop.monitor_self_s": ("s", "exec_runs_per_s", ADAPTIVE),
    "executor.units": ("count", "setup_s", ALL),
    "executor.mask_plan_s": ("s", "setup_s", ALL),
    "executor.mask_exec_s": ("s", "exec_runs_per_s", ALL),
    "executor.classify_s": ("s", "exec_runs_per_s", ALL),
    "executor.self_s": ("s", "exec_runs_per_s", ALL),
    "executor.log_bytes": ("bytes", "exec_runs_per_s", ALL),
    "batch.packs": ("count", "exec_runs_per_s", LOCKSTEP),
    "batch.members": ("count", "exec_runs_per_s", LOCKSTEP),
    "batch.pack_s": ("s", "exec_runs_per_s", LOCKSTEP),
    "batch.lockstep_frac": ("ratio", "exec_runs_per_s", LOCKSTEP),
    "batch.in_pack_frac": ("ratio", "exec_runs_per_s", LOCKSTEP),
    "batch.peeled": ("count", "exec_runs_per_s", LOCKSTEP),
    "batch.solo_fallback": ("count", "exec_runs_per_s", LOCKSTEP),
    "plan.rounds": ("count", "campaign_s", ADAPTIVE),
    "plan.executed": ("count", "campaign_s", ADAPTIVE),
    "plan.uniform_runs": ("count", "campaign_s", ADAPTIVE),
    "plan.driver_self_s": ("s", "campaign_s", ADAPTIVE),
    "plan.stratum_s": ("s", "campaign_s", ADAPTIVE),
    "plan.fit_s": ("s", "campaign_s", ADAPTIVE),
    "trace.unattributed_s": ("s", "campaign_s", ALL),
    "trace.overhead_s": ("s", "campaign_s", ALL),
}


def layer_violations(workload: str, layers: dict) -> list:
    """Predicted-zero and layer-presence checks of one traced run."""
    used = WORKLOADS[workload]["layers"]
    problems = []
    for layer, witness in OPTIONAL_LAYERS.items():
        if layer in used:
            if not layers[witness] > 0:
                problems.append(f"{witness} is 0: the workload lost "
                                f"its {layer} layer")
            continue
        for name, value in layers.items():
            if name.startswith(layer + ".") and value != 0:
                problems.append(f"{name} = {value}, predicted 0")
    for name in FAILURE_COUNTS:
        if layers[name] != 0:
            problems.append(f"{name} = {layers[name]}, must be 0")
    return problems
