"""Golden-run checkpointing and fast-forward restore.

Every fault-injection run replays the application from cycle 0, yet
all state before the injection cycle is -- by construction -- identical
to the golden run.  This module captures full architectural snapshots
of the simulator during the golden profiling run (cf. gem5-checkpoint
restore in CHAOS) and lets each fault run restore the nearest snapshot
at or before its injection cycle, simulating only the suffix.

Three guarantees make the fast-forwarded run bit-identical to a
from-scratch run:

1. **Complete state capture.**  A snapshot holds every piece of
   mutable simulator state: DRAM + allocator, constant bank, all cache
   arrays with tag/dirty/LRU state, register files, predicates, SIMT
   stacks, scoreboards, shared/local memories, warp-scheduler history,
   the pending CTA queue, contention busy-until timestamps, and the
   statistics integrals.  Derived state (decoded-instruction caches,
   scheduler buckets, sregs) is recomputed deterministically.
2. **Host-read replay.**  Host code may read device memory between
   launches and branch on it (e.g. the BFS frontier flag).  The golden
   run records every DtoH copy; a fast-forwarded run serves the
   recorded bytes for all reads before the restore point, so host
   control flow replays exactly.  Any divergence raises
   :class:`CheckpointMismatch` and the caller falls back to a
   from-scratch run.
3. **Content-addressed invalidation.**  Checkpoint sets are keyed by a
   fingerprint over the benchmark's kernels (name + assembly source +
   geometry), its constructor state, the full card configuration, the
   scheduler policy and the snapshot format version
   (:data:`SNAPSHOT_FORMAT`).  Any change to code or configuration
   yields a different key, so stale checkpoints are never restored.

Snapshots are pickled and zlib-compressed on disk::

    <checkpoint-dir>/<key>/meta.json       # manifest, written last
    <checkpoint-dir>/<key>/golden.bin      # launch stats + host reads
    <checkpoint-dir>/<key>/ckpt_<L>_<C>.bin  # snapshot at launch L, cycle C

A snapshot (format 3) costs the state the workload touched, not the
state the card has: DRAM is stored as its non-zero 4 KiB chunks (an
index array plus a ``[k, 4096]`` byte array) and every cache as flat
per-cache arrays over its materialised sets, so both capturing a
snapshot and hashing it with :func:`state_digest` scale with the
footprint.  Sets written in an older format are unreachable under the
new key and are captured again automatically.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import pickle
import shutil
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: Bump whenever the snapshot layout or any simulated semantics
#: change: it participates in the checkpoint key, so old on-disk sets
#: become unreachable instead of silently wrong.
#:
#: format 2: checkpoint entries carry a ``state_hash`` digest used by
#: convergence early-exit (see :func:`state_digest`).
#: format 3: DRAM is stored as its non-zero 4 KiB chunks and each
#: cache as flat per-cache arrays (see :meth:`GlobalMemory.snapshot`,
#: :meth:`Cache.snapshot`).
SNAPSHOT_FORMAT = 3

#: Smallest auto-mode capture stride (cycles).
_MIN_AUTO_STRIDE = 64


class CheckpointError(Exception):
    """Base class for checkpoint failures.

    Deliberately *not* a :class:`~repro.sim.errors.SimulationError`:
    a checkpoint problem must propagate out of
    :func:`~repro.faults.runner.run_application` (triggering the
    from-scratch fallback) instead of being classified as a crash.
    """


class CheckpointMismatch(CheckpointError):
    """The replayed host code diverged from the recorded golden run."""


class RestoreParityError(CheckpointError):
    """``verify_restore`` found a fast-forwarded run differing from
    its from-scratch twin -- a checkpointing bug, never ignorable."""


def _dumps(obj) -> bytes:
    return zlib.compress(pickle.dumps(obj, protocol=4), 1)


def _loads(blob: bytes):
    return pickle.loads(zlib.decompress(blob))


@functools.lru_cache(maxsize=8)
def _load_blob(path_str: str, size: int, mtime_ns: int):
    """Load + decompress one snapshot file, cached per (path, stat).

    The stat fields key the cache so a recaptured set is never served
    stale; restore() always copies arrays out of the returned object,
    so sharing it across runs in one worker process is safe.
    """
    return _loads(Path(path_str).read_bytes())


def _load_file(path: Path):
    st = os.stat(path)
    return _load_blob(str(path), st.st_size, st.st_mtime_ns)


def _mix(h, obj) -> None:
    """Feed one object into a digest, canonically.

    Pickle output is not stable (memoisation depends on object
    identity), so convergence hashing walks the snapshot structure
    itself.  Every branch is type-tagged so e.g. ``0``, ``0.0``,
    ``False`` and ``b""`` cannot collide across types.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):  # before int: bool is int
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode("utf-8", "surrogatepass"))
    elif isinstance(obj, bytes):
        h.update(b"Y" + obj)
    elif isinstance(obj, np.ndarray):
        # dtype.str ("|u1", "<i8"): str(dtype) costs more than hashing
        # a small array
        h.update(b"A" + obj.dtype.str.encode() + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode())
        for item in obj:
            _mix(h, item)
    elif isinstance(obj, dict):
        h.update(b"D" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _mix(h, key)
            _mix(h, obj[key])
    elif isinstance(obj, (set, frozenset)):
        h.update(b"E" + str(len(obj)).encode())
        for item in sorted(obj, key=repr):
            _mix(h, item)
    else:
        # plain state-holder objects (e.g. LaunchStats): type + fields
        h.update(b"O" + type(obj).__name__.encode())
        _mix(h, vars(obj))
    h.update(b";")


def state_digest(snap: dict) -> str:
    """Canonical digest of one :meth:`GPU.snapshot` dict.

    Two runs whose snapshots digest equally hold identical
    architectural *and* timing state at that cycle, so their futures
    are identical -- the basis of convergence early-exit
    (:class:`repro.faults.early_stop.ConvergenceMonitor`).
    """
    h = hashlib.blake2b(digest_size=16)
    _mix(h, snap)
    return h.hexdigest()


def campaign_fingerprint(benchmark, card, scheduler_policy: str) -> str:
    """Content hash identifying one checkpointable configuration.

    ``benchmark`` is a constructed Benchmark instance; its kernels'
    assembly sources are the "code hash" part of the key, its
    constructor state covers input sizes/seeds, and ``repr(card)``
    covers every timing/geometry knob of the frozen config dataclass.
    """
    h = hashlib.sha256()
    h.update(f"format={SNAPSHOT_FORMAT};".encode())
    h.update(f"card={card!r};".encode())
    h.update(f"sched={scheduler_policy};".encode())
    h.update(f"bench={benchmark.name};".encode())
    state = sorted((k, repr(v)) for k, v in vars(benchmark).items())
    h.update(repr(state).encode())
    for kernel in benchmark.kernels():
        h.update(f"kernel={kernel.name};".encode())
        h.update(kernel.source.encode())
        h.update(repr((kernel.num_params, kernel.smem_bytes,
                       kernel.local_bytes)).encode())
    return h.hexdigest()[:20]


class CheckpointRecorder:
    """Captures snapshots during a golden run.

    Attach via ``RunOptions(checkpointer=...)``: the GPU cycle loop
    calls :meth:`on_cycle` at the top of every iteration and the
    device calls :meth:`record_host_read` on every DtoH copy.  Always
    captures at the first iteration of each kernel launch, then every
    ``interval`` cycles (or with geometrically growing spacing when
    ``interval`` is None, bounding the checkpoint count to
    O(launches + log(total cycles))).
    """

    def __init__(self, directory: Path, interval: Optional[int] = None):
        if interval is not None and interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = interval
        self.checkpoints: List[Dict[str, int]] = []
        self._host_reads: List[dict] = []
        self._seen_launches: set = set()
        self._next_capture = 0
        self._finalized = False

    def on_cycle(self, gpu, launch, queue) -> None:
        """Capture a snapshot when a boundary is due at this cycle."""
        launch_index = gpu.stats.current.launch_index
        if (launch_index in self._seen_launches
                and gpu.cycle < self._next_capture):
            return
        self._seen_launches.add(launch_index)
        name = f"ckpt_{launch_index:03d}_{gpu.cycle:012d}.bin"
        snap = gpu.snapshot(launch, queue)
        (self.directory / name).write_bytes(_dumps(snap))
        self.checkpoints.append({"cycle": gpu.cycle,
                                 "launch_index": launch_index,
                                 "file": name,
                                 "state_hash": state_digest(snap)})
        if self.interval is not None:
            self._next_capture = gpu.cycle + self.interval
        else:
            self._next_capture = gpu.cycle + max(_MIN_AUTO_STRIDE,
                                                 gpu.cycle // 2)

    def record_host_read(self, tag: int, addr: int, nbytes: int,
                         data) -> None:
        """Record one DtoH copy (``tag`` = completed-launch count)."""
        self._host_reads.append({"tag": tag, "addr": addr,
                                 "nbytes": nbytes, "data": data.copy()})

    def finalize(self, launch_stats, golden_cycles: int) -> None:
        """Persist the golden manifest; marks the set complete."""
        golden = {"launch_stats": copy.deepcopy(list(launch_stats)),
                  "host_reads": self._host_reads,
                  "golden_cycles": golden_cycles}
        (self.directory / "golden.bin").write_bytes(_dumps(golden))
        meta = {"format": SNAPSHOT_FORMAT,
                "interval": self.interval,
                "golden_cycles": golden_cycles,
                "checkpoints": self.checkpoints,
                "complete": True}
        # meta.json is written last: its presence marks a complete set
        (self.directory / "meta.json").write_text(
            json.dumps(meta, indent=1), encoding="utf-8")
        self._finalized = True


class CheckpointSet:
    """A complete on-disk checkpoint set for one fingerprint key."""

    def __init__(self, directory: Path, meta: dict):
        self.directory = Path(directory)
        self.meta = meta

    @property
    def interval(self) -> Optional[int]:
        return self.meta.get("interval")

    @property
    def golden_cycles(self) -> int:
        return self.meta["golden_cycles"]

    def golden(self) -> dict:
        """The golden manifest (launch stats + recorded host reads)."""
        return _load_file(self.directory / "golden.bin")

    def load_snapshot(self, name: str) -> dict:
        return _load_file(self.directory / name)

    def fast_forward(self, target_cycle: int) -> "FastForward":
        """Build a replayer restoring the nearest snapshot at or
        before ``target_cycle`` (the run's injection cycle)."""
        return FastForward(self, target_cycle)


class FastForward:
    """Replays an application run up to a restored checkpoint.

    Attach via ``RunOptions(fast_forward=...)``.  The device routes
    every kernel launch and DtoH copy through this object until the
    restore point is reached (``done``); from then on the run proceeds
    live.  Any divergence from the recorded golden run raises
    :class:`CheckpointMismatch`.
    """

    def __init__(self, ckpt_set: CheckpointSet, target_cycle: int):
        candidates = [e for e in ckpt_set.meta["checkpoints"]
                      if e["cycle"] <= target_cycle]
        self._set = ckpt_set
        self.entry = (max(candidates, key=lambda e: e["cycle"])
                      if candidates else None)
        self.done = False
        #: Wall-clock seconds spent loading + applying the snapshot
        #: (observability: the "restore" share of a run's timings).
        self.restore_seconds = 0.0
        if self.entry is None:
            return
        self.launch_index = self.entry["launch_index"]
        golden = ckpt_set.golden()
        self._launches = golden["launch_stats"]
        self._reads = [r for r in golden["host_reads"]
                       if r["tag"] <= self.launch_index]
        self._pos = 0

    @property
    def active(self) -> bool:
        """Whether a usable snapshot exists for the target cycle."""
        return self.entry is not None

    @property
    def restore_cycle(self) -> int:
        """Cycle the restored snapshot was captured at."""
        return self.entry["cycle"] if self.entry is not None else 0

    def on_launch(self, gpu, request):
        """Skip, or restore-and-resume, one replayed kernel launch."""
        index = len(gpu.stats.launches)
        if index < self.launch_index:
            if index >= len(self._launches):
                raise CheckpointMismatch(
                    f"replay launched kernel #{index} past the end of "
                    "the golden run")
            expect = self._launches[index]
            if (expect.kernel_name != request.kernel.name
                    or expect.grid_ctas != request.num_ctas
                    or expect.threads_per_cta != request.threads_per_cta):
                raise CheckpointMismatch(
                    f"replay launch #{index} is {request.kernel.name} "
                    f"({request.num_ctas} CTAs), golden ran "
                    f"{expect.kernel_name} ({expect.grid_ctas} CTAs)")
            stats = copy.deepcopy(expect)
            gpu.stats.launches.append(stats)
            gpu.cycle = stats.end_cycle
            return stats
        if index > self.launch_index:
            raise CheckpointMismatch(
                f"replay reached launch #{index} without restoring "
                f"checkpoint at launch #{self.launch_index}")
        restore_started = time.perf_counter()
        snap = self._set.load_snapshot(self.entry["file"])
        desc = snap["launch"]
        if (desc["kernel"] != request.kernel.name
                or tuple(desc["grid"]) != tuple(request.grid)
                or tuple(desc["block"]) != tuple(request.block)
                or tuple(desc["params"]) != tuple(request.params)):
            raise CheckpointMismatch(
                f"launch #{index} does not match the snapshot "
                f"descriptor ({desc['kernel']} vs {request.kernel.name})")
        if self._pos != len(self._reads):
            raise CheckpointMismatch(
                f"{len(self._reads) - self._pos} recorded host read(s) "
                "were never consumed before the restore point")
        queue = gpu.restore(snap, request)
        self.done = True
        self.restore_seconds = time.perf_counter() - restore_started
        return gpu.resume_launch(request, queue)

    def on_host_read(self, addr: int, nbytes: int, tag: int):
        """Serve one pre-restore DtoH copy from the recording."""
        if self._pos >= len(self._reads):
            raise CheckpointMismatch(
                f"unexpected host read at 0x{addr:x} before the "
                "restore point (golden run recorded none here)")
        rec = self._reads[self._pos]
        if rec["tag"] != tag or rec["addr"] != addr \
                or rec["nbytes"] != nbytes:
            raise CheckpointMismatch(
                f"host read 0x{addr:x}+{nbytes} (after {tag} launches) "
                f"diverged from recorded 0x{rec['addr']:x}"
                f"+{rec['nbytes']} (after {rec['tag']})")
        self._pos += 1
        return rec["data"].copy()


class CheckpointStore:
    """Directory of checkpoint sets, one subdirectory per key."""

    def __init__(self, root):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / key

    def open(self, key: str) -> Optional[CheckpointSet]:
        """Open a *complete* set for ``key``; None when absent/torn."""
        meta_path = self.path(key) / "meta.json"
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if meta.get("format") != SNAPSHOT_FORMAT \
                or not meta.get("complete"):
            return None
        return CheckpointSet(self.path(key), meta)

    def recorder(self, key: str,
                 interval: Optional[int] = None) -> CheckpointRecorder:
        """Start a fresh capture for ``key``, dropping any stale set."""
        directory = self.path(key)
        if directory.exists():
            shutil.rmtree(directory)
        return CheckpointRecorder(directory, interval)


@functools.lru_cache(maxsize=16)
def _open_cached(root: str, key: str, meta_size: int,
                 meta_mtime_ns: int) -> Optional[CheckpointSet]:
    return CheckpointStore(root).open(key)


def open_checkpoint_set(root: str, key: str) -> Optional[CheckpointSet]:
    """Worker-side cached :meth:`CheckpointStore.open`.

    The meta.json stat is part of the cache key, so a recaptured set
    invalidates the cache; a missing set is simply not cached.
    """
    meta_path = Path(root) / key / "meta.json"
    try:
        st = os.stat(meta_path)
    except OSError:
        return None
    return _open_cached(str(root), key, st.st_size, st.st_mtime_ns)
