"""Batched lockstep execution: N injected runs per simulated process.

Every injected run of a campaign shares its control flow with the
golden run until (and usually after) the fault lands -- the dominant
Masked outcome never diverges at all.  This module exploits that:
one :class:`LockstepPack` advances ``N`` injected runs through a
single cycle loop, with the per-run architectural state (register
files, predicates, local memory, shared memory) stacked along a
leading *runs axis*:

- ``warp.regs``       ``(num_regs, R+1, 32)``  uint32
- ``warp.preds``      ``(8, R+1, 32)``         bool
- ``warp.local_mem``  ``(R+1, 32, local_bytes)`` uint8
- ``cta.smem``        ``(R+1, nbytes)``        uint8

Column 0 is the uninjected golden reference; columns ``1..R`` belong
to the pack's members, each carrying its own fault.  Everything else
-- SIMT stacks, exit masks, scoreboards, caches, global memory,
scheduler state, timing -- stays *shared* and is provably golden:
any member whose fault would alter shared state **peels off** before
the mutation and is re-run through the ordinary solo path, so
correctness never depends on staying convergent.

One decode+issue drives all columns.  Vectorised ALU/SFU handlers are
shape-polymorphic (the runs axis leads, so ``(32,)`` immediates and
special registers broadcast), hence data-level divergence between
columns is free.  Agreement is required only where a column could
influence shared state:

- guarded EXIT/BRANCH and guarded memory ops: the guard predicate
  must match column 0 on active lanes (a differing guard changes
  control flow or the issue-latency path);
- memory ops: the address base register must match on executing
  lanes (addresses steer caches, banks and coalescing);
- global stores/atomics: source values must match on executing lanes
  (they enter shared global memory).

Disagreeing members peel *before* the shared mutation; their columns
keep executing harmlessly (writes land in slices nobody reads back).

The pack is a single cycle-loop observer (see :attr:`GPU.observers
<repro.sim.gpu.GPU.observers>`), passed as the run's
``RunOptions(convergence=...)``.  Fault injection reuses the real
:class:`~repro.faults.injector.Injector`, one per member, pointed at
that member's column through thin per-column views of the GPU object
graph -- so injection logs (targets, RNG draws, applied cycles) are
byte-identical to solo runs.

Early convergence mirrors :class:`~repro.faults.early_stop
.ConvergenceMonitor` per member: at every golden checkpoint cycle a
member whose column equals column 0 has, together with the shared
golden state, exactly the state whose digest the solo monitor would
have matched -- it resolves as converged and inherits the golden
suffix.  When every member is resolved the pack raises
:class:`PackDrained` to stop simulating.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.isa.opcodes import OpClass
from repro.isa.operands import ConstRef, MemRef
from repro.sim.core import SIMTCore, SMEM_BANKS
from repro.sim.device import Device
from repro.sim.errors import MemoryViolation
from repro.sim.exec_unit import execute_alu, read_pred
from repro.sim.gpu import GPU
from repro.sim.warp import WARP_SIZE, StackEntry

_FALSE_LANES = np.zeros(WARP_SIZE, dtype=bool)
_FALSE_LANES.setflags(write=False)


class PackDrained(Exception):
    """Every pack member resolved (converged or peeled): stop
    simulating.  Deliberately *not* a SimulationError -- it must
    propagate out of :func:`~repro.faults.runner.run_application`
    to the batch executor, never classify as a crash."""


class PackAbort(Exception):
    """The pack observed something its invariants rule out (e.g. a
    non-golden host read).  The batch executor catches it and re-runs
    every unresolved member solo; records stay correct regardless."""


# ---------------------------------------------------------------------------
# runs-axis stacking
# ---------------------------------------------------------------------------

def stack_cta(cta, ncols: int) -> None:
    """Replicate a CTA's per-run state ``ncols`` times, in place.

    The runs axis *leads* the lane axis so ``(32,)`` immediates and
    sregs broadcast against ``(R+1, 32)`` operands in the vectorised
    ALU handlers.
    """
    for warp in cta.warps:
        warp.regs = np.repeat(warp.regs[:, None, :], ncols, axis=1)
        warp.preds = np.repeat(warp.preds[:, None, :], ncols, axis=1)
        if warp.local_mem is not None:
            warp.local_mem = np.repeat(warp.local_mem[None], ncols,
                                       axis=0)
    cta.smem = np.repeat(cta.smem[None], ncols, axis=0)


def _read_word_cols(mem2d: np.ndarray, addr: int) -> np.ndarray:
    """Little-endian u32 at ``addr`` of every column of a stacked
    byte array (byte-composed: column slices are not contiguous, so
    ``.view('<u4')`` is unavailable)."""
    b = mem2d[:, addr:addr + 4].astype(np.uint32)
    return b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16) | (b[:, 3] << 24)


def _write_word_cols(mem2d: np.ndarray, addr: int,
                     values: np.ndarray) -> None:
    """Little-endian u32 store at ``addr`` into every column."""
    v = values.astype(np.uint32, copy=False)
    mem2d[:, addr] = v.astype(np.uint8)
    mem2d[:, addr + 1] = (v >> 8).astype(np.uint8)
    mem2d[:, addr + 2] = (v >> 16).astype(np.uint8)
    mem2d[:, addr + 3] = (v >> 24).astype(np.uint8)


def _golden_addresses(inst, warp) -> np.ndarray:
    """Per-lane addresses from the golden (column 0) base register."""
    mem = inst.srcs[0]
    assert isinstance(mem, MemRef)
    if mem.base.is_rz:
        base = np.zeros(WARP_SIZE, dtype=np.int64)
    else:
        base = warp.regs[mem.base.index][0].astype(np.int64)
    return base + mem.offset


def _resolve_smem_cols(cta, addr: int) -> int:
    """:meth:`CTA._resolve_smem` against the stacked smem layout
    (``len(cta.smem)`` would see the runs axis)."""
    if addr % 4:
        raise MemoryViolation("shared", addr, "misaligned access")
    if addr < 0 or addr + 4 > cta.smem_ceiling:
        raise MemoryViolation("shared", addr)
    nbytes = cta.smem.shape[-1]
    if nbytes == 0:
        raise MemoryViolation("shared", addr, "kernel declares no smem")
    return addr % nbytes if addr + 4 > nbytes else addr


# ---------------------------------------------------------------------------
# per-column views (the member injectors' window onto the GPU)
# ---------------------------------------------------------------------------

class _WarpView:
    """One column of a stacked warp, shaped exactly like a solo warp
    for the injector's spatial handlers (writes go through)."""

    __slots__ = ("_warp", "_col")

    def __init__(self, warp, col: int):
        self._warp = warp
        self._col = col

    @property
    def regs(self) -> np.ndarray:
        return self._warp.regs[:, self._col, :]

    @property
    def preds(self) -> np.ndarray:
        return self._warp.preds[:, self._col, :]

    @property
    def local_mem(self) -> Optional[np.ndarray]:
        lm = self._warp.local_mem
        return None if lm is None else lm[self._col]

    @property
    def local_bytes(self) -> int:
        return self._warp.local_bytes

    @property
    def done(self) -> bool:
        return self._warp.done

    @property
    def age(self) -> int:
        return self._warp.age

    @property
    def num_regs(self) -> int:
        return self._warp.num_regs

    def live_lanes(self) -> np.ndarray:
        return self._warp.live_lanes()


class _CTAView:
    __slots__ = ("_cta", "_col", "core", "warps")

    def __init__(self, cta, core_view, col: int):
        self._cta = cta
        self._col = col
        self.core = core_view
        self.warps = [_WarpView(w, col) for w in cta.warps]

    @property
    def smem(self) -> np.ndarray:
        return self._cta.smem[self._col]

    @property
    def done(self) -> bool:
        return self._cta.done

    @property
    def cta_id(self):
        return self._cta.cta_id


class _CoreView:
    __slots__ = ("core_id", "_core", "_col")

    def __init__(self, core, col: int):
        self.core_id = core.core_id
        self._core = core
        self._col = col

    @property
    def ctas(self) -> List[_CTAView]:
        return [_CTAView(cta, self, self._col) for cta in self._core.ctas]


class _GPUView:
    """The ``gpu`` argument handed to one member's injector: the real
    core/CTA/warp graph with register files, predicates, local and
    shared memory windowed to the member's column."""

    __slots__ = ("_gpu", "_col")

    #: Packs never run with a propagation tracer attached.
    propagation = None

    def __init__(self, gpu, col: int):
        self._gpu = gpu
        self._col = col

    @property
    def cycle(self) -> int:
        return self._gpu.cycle

    @property
    def cores(self) -> List[_CoreView]:
        return [_CoreView(core, self._col) for core in self._gpu.cores]

    @property
    def config(self):
        return self._gpu.config


# ---------------------------------------------------------------------------
# the pack
# ---------------------------------------------------------------------------

class PackMember:
    """One injected run riding in a pack (column ``col``)."""

    __slots__ = ("spec", "mask", "col", "entries", "pos", "injector",
                 "resolution")

    def __init__(self, spec, mask, col: int, entries: Sequence[dict]):
        self.spec = spec
        self.mask = mask
        self.col = col
        #: Golden checkpoint entries strictly after the injection
        #: cycle (the solo ConvergenceMonitor's filter), sorted.
        self.entries = sorted(entries, key=lambda e: e["cycle"])
        self.pos = 0
        self.injector = None  # built by LockstepPack.reset()
        #: ``None`` while unresolved, else ("converged"|"peeled", cycle).
        self.resolution = None


class LockstepPack:
    """Drives N member runs through one cycle loop.

    The run's only cycle-loop observer: :meth:`on_cycle` stacks
    freshly assigned CTAs, resolves members whose column converged to
    column 0, raises :class:`PackDrained` once nobody is left, then
    fans injection out to the per-member real injectors through
    column views; :meth:`next_due` is the earliest pending member
    check or injection; :meth:`on_host_read` guards the shared
    golden-memory invariant.
    """

    def __init__(self, members: Sequence[PackMember],
                 golden_host_reads: Optional[Sequence[dict]] = None):
        self.members = list(members)
        self.ncols = len(self.members) + 1
        self.gpu = None
        self._by_col: Dict[int, PackMember] = {
            m.col: m for m in self.members}
        self._unresolved: List[int] = []
        self._reads = list(golden_host_reads or ())
        self._check_reads = golden_host_reads is not None
        self._read_pos = 0
        #: Peel events as ``(col, cycle, reason)`` (for batch metrics).
        self.peels: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Fresh per attempt: injector logs, convergence positions and
        resolutions are consumed by a run."""
        from repro.faults.injector import Injector

        for member in self.members:
            member.injector = Injector([member.mask])
            member.pos = 0
            member.resolution = None
        self._unresolved = [m.col for m in self.members]
        self._read_pos = 0
        self.peels = []

    def attach(self, gpu) -> None:
        self.gpu = gpu
        gpu.pack = self

    # -- resolution -------------------------------------------------------

    def peel(self, col: int, reason: str) -> None:
        """Remove a member whose fault is about to touch shared state;
        the batch executor re-runs it through the solo path."""
        cycle = self.gpu.cycle if self.gpu is not None else 0
        self._by_col[col].resolution = ("peeled", cycle)
        self._unresolved.remove(col)
        self.peels.append((col, cycle, reason))

    def check_rows(self, stacked: np.ndarray,
                   lanes_mask: np.ndarray) -> None:
        """Peel every unresolved member whose row of ``stacked``
        differs from row 0 on ``lanes_mask`` lanes.  Called *before*
        any shared mutation the rows feed."""
        if not self._unresolved:
            return
        diff = (stacked != stacked[0]) & lanes_mask
        if not diff.any():
            return
        rows = diff.any(axis=1)
        for col in [c for c in self._unresolved if rows[c]]:
            self.peel(col, "divergence")

    # -- the cycle-loop observer protocol ---------------------------------

    def on_cycle(self, gpu, launch, queue) -> None:
        """Top-of-iteration hook: stack new CTAs, resolve converged
        members, stop when drained, then inject.  Stacking precedes
        injection and issue; each member's injector sees only its own
        column, so logs and RNG draws are byte-identical to the solo
        runs."""
        for core in gpu.cores:
            for cta in core.ctas:
                if cta.smem.ndim == 1:
                    stack_cta(cta, self.ncols)
        if self._unresolved:
            launch_index = gpu.stats.current.launch_index
            for col in list(self._unresolved):
                member = self._by_col[col]
                entries = member.entries
                while (member.pos < len(entries)
                        and entries[member.pos]["cycle"] < gpu.cycle):
                    member.pos += 1
                if member.pos >= len(entries):
                    continue
                entry = entries[member.pos]
                if entry["cycle"] != gpu.cycle:
                    continue
                member.pos += 1
                if entry["launch_index"] != launch_index:
                    continue
                if self._column_matches_golden(gpu, col):
                    member.resolution = ("converged", gpu.cycle)
                    self._unresolved.remove(col)
        if not self._unresolved:
            raise PackDrained()
        for col in list(self._unresolved):
            self._by_col[col].injector.on_cycle(_GPUView(gpu, col),
                                                launch, queue)

    def next_due(self) -> Optional[int]:
        """Earliest remaining member convergence-check or injection
        cycle (the idle-skip clamp lands the loop exactly on it)."""
        dues = []
        for col in self._unresolved:
            member = self._by_col[col]
            dues.append(member.injector.next_due())
            if member.pos < len(member.entries):
                dues.append(member.entries[member.pos]["cycle"])
        return min((due for due in dues if due is not None), default=None)

    @staticmethod
    def _column_matches_golden(gpu, col: int) -> bool:
        """Member state equals golden <=> its column equals column 0:
        everything outside the stacked arrays is shared (and golden by
        the peel invariant), and column 0 replays the golden data flow
        exactly, so slice equality is equivalent to the solo monitor's
        full state-digest match."""
        for core in gpu.cores:
            for cta in core.ctas:
                if not np.array_equal(cta.smem[col], cta.smem[0]):
                    return False
                for warp in cta.warps:
                    if not np.array_equal(warp.regs[:, col], warp.regs[:, 0]):
                        return False
                    if not np.array_equal(warp.preds[:, col],
                                          warp.preds[:, 0]):
                        return False
                    if warp.local_mem is not None and not np.array_equal(
                            warp.local_mem[col], warp.local_mem[0]):
                        return False
        return True

    def on_host_read(self, tag: int, addr: int, nbytes: int,
                     data) -> None:
        """Shared global memory must stay golden (stores that could
        diverge peel first); verify each DtoH copy against the golden
        recording as a safety net."""
        if not self._check_reads:
            return
        if self._read_pos >= len(self._reads):
            raise PackAbort("host read past the end of the golden "
                            "recording")
        rec = self._reads[self._read_pos]
        self._read_pos += 1
        if (rec["tag"] != tag or rec["addr"] != addr
                or rec["nbytes"] != nbytes
                or not np.array_equal(rec["data"], data)):
            raise PackAbort(f"host read 0x{addr:x}+{nbytes} diverged "
                            "from the golden recording")


# ---------------------------------------------------------------------------
# the batched core
# ---------------------------------------------------------------------------

class _Column0:
    """Solo-shaped ``(num_regs, 32)`` stand-in for column 0 of a
    stacked warp, handed to the inherited global/atomic path (which
    then runs unmodified against shared caches and memory)."""

    __slots__ = ("regs", "stacked")

    def __init__(self, warp):
        self.regs = warp.regs[:, 0, :]
        self.stacked = warp


class BatchedCore(SIMTCore):
    """A SIMT core issuing one instruction across all pack columns.

    Control flow (PC, SIMT stack, exit masks, barriers) and timing
    (latencies, scoreboards, caches) are computed from column 0 --
    the golden run -- after peeling any member that disagrees where
    it matters (see the module docstring's agreement rules).
    """

    def _issue(self, warp, inst, now: int) -> None:
        cfg = self.config
        pack = self.gpu.pack
        active = warp.active_mask()
        guard = (read_pred(warp, inst.guard)
                 if inst.guard is not None else None)
        klass = inst.spec.klass
        latency = cfg.alu_latency
        top = warp.stack[-1]

        if klass is OpClass.BARRIER:
            top.pc += 1
            warp.at_barrier = True
            warp.cta.try_release_barrier()
        elif klass is OpClass.EXIT:
            if guard is not None:
                # the exit mask is shared control state
                pack.check_rows(guard, active)
                exec0 = active & guard[0]
            else:
                exec0 = active
            warp.exited |= exec0
            warp.live_count = warp.num_threads - int(
                np.count_nonzero(warp.exited[:warp.num_threads]))
            top.pc += 1
            warp.normalize_stack()
            if warp.done:
                warp.cta.try_release_barrier()
        elif klass is OpClass.BRANCH:
            if guard is not None:
                pack.check_rows(guard, active)
                g0 = guard[0]
                taken = active & g0
                fall = active & ~g0
            else:
                taken = active
                fall = _FALSE_LANES
            if not fall.any():
                top.pc = inst.target_pc
            elif not taken.any():
                top.pc += 1
            else:
                reconv = inst.reconv_pc
                top.pc = reconv
                warp.stack.append(StackEntry(inst.pc + 1, fall.copy(),
                                             reconv))
                warp.stack.append(StackEntry(inst.target_pc,
                                             taken.copy(), reconv))
            warp.normalize_stack()
        else:
            if inst.is_memory:
                if guard is not None:
                    # an empty-vs-nonempty or shape-differing mask
                    # changes the memory-latency path: agreement first
                    pack.check_rows(guard, active)
                    mask0 = active & guard[0]
                else:
                    mask0 = active
                if mask0.any():
                    latency = self._exec_memory(inst, warp, mask0)
            elif klass is OpClass.SFU:
                execute_alu(inst, warp,
                            self._stacked_mask(warp, active, guard))
                latency = cfg.sfu_latency
            else:
                execute_alu(inst, warp,
                            self._stacked_mask(warp, active, guard))
            top.pc += 1
            warp.normalize_stack()

        warp.mark_writes(inst, now + latency)
        self.gpu.stats.on_issue(inst)

    @staticmethod
    def _stacked_mask(warp, active: np.ndarray,
                      guard: Optional[np.ndarray]) -> np.ndarray:
        """Per-column execution mask for the vectorised ALU handlers.

        With a guard the mask is naturally stacked (guards live in
        the stacked predicate file); without one, the shared active
        mask is broadcast -- per-column guard *data* divergence is
        free, only shared-state consumers need agreement.
        """
        if guard is None:
            ncols = warp.regs.shape[1]
            return np.broadcast_to(active, (ncols, WARP_SIZE))
        return active & guard

    # -- memory (golden addresses, per-column data) ------------------------

    def _exec_const(self, inst, warp, mask: np.ndarray) -> int:
        const = inst.srcs[0]
        assert isinstance(const, ConstRef)
        bank = self.gpu.const_bank
        bank.read_word(const.offset)  # bounds/alignment check
        line_bytes = self.l1c.geometry.line_bytes
        base = const.offset - const.offset % line_bytes
        line = self.l1c.lookup(base)
        if line is None:
            latency = self.config.l2_hit_latency
            end = min(base + line_bytes, bank.SIZE)
            data = np.zeros(line_bytes, dtype=np.uint8)
            data[:end - base] = bank.data[base:end]
            self.l1c.fill(base, data)
            line = self.l1c.peek(base)
        else:
            latency = self.config.const_latency
        value = self.l1c.read_word(line, const.offset)
        dst = inst.dsts[0]
        if not dst.is_rz:
            warp.regs[dst.index][:, mask] = np.uint32(value)
        return latency

    def _exec_shared(self, inst, warp, mask: np.ndarray) -> int:
        pack = self.gpu.pack
        mem = inst.srcs[0]
        if not mem.base.is_rz:
            pack.check_rows(warp.regs[mem.base.index], mask)
        addrs = _golden_addresses(inst, warp)
        lanes = np.nonzero(mask)[0]
        cta = warp.cta
        smem = cta.smem
        is_load = inst.spec.klass is OpClass.LOAD
        if is_load:
            dst = inst.dsts[0]
            out = warp.regs[dst.index]
            for lane in lanes:
                addr = _resolve_smem_cols(cta, int(addrs[lane]))
                if not dst.is_rz:
                    out[:, lane] = _read_word_cols(smem, addr)
        else:
            # store values are column-local (each column writes its
            # own smem slice): no cross-member agreement needed
            src = (warp.regs[inst.srcs[1].index]
                   if not inst.srcs[1].is_rz else None)
            zero = np.zeros(smem.shape[0], dtype=np.uint32)
            for lane in lanes:
                addr = _resolve_smem_cols(cta, int(addrs[lane]))
                _write_word_cols(smem, addr,
                                 src[:, lane] if src is not None else zero)
        # bank-conflict serialisation from the golden addresses
        bank_counts: Dict[int, int] = {}
        for addr in {int(addrs[lane]) for lane in lanes}:
            bank = (addr >> 2) % SMEM_BANKS
            bank_counts[bank] = bank_counts.get(bank, 0) + 1
        conflicts = max(bank_counts.values()) if bank_counts else 1
        return self.config.smem_latency + (conflicts - 1)

    def _exec_local(self, inst, warp, mask: np.ndarray) -> int:
        pack = self.gpu.pack
        mem = inst.srcs[0]
        if not mem.base.is_rz:
            pack.check_rows(warp.regs[mem.base.index], mask)
        addrs = _golden_addresses(inst, warp)
        lanes = np.nonzero(mask)[0]
        is_load = inst.spec.klass is OpClass.LOAD
        if is_load:
            dst = inst.dsts[0]
            out = warp.regs[dst.index]
            for lane in lanes:
                addr = int(addrs[lane])
                warp._check_local(addr)
                if not dst.is_rz:
                    out[:, lane] = _read_word_cols(
                        warp.local_mem[:, lane, :], addr)
        else:
            src = (warp.regs[inst.srcs[1].index]
                   if not inst.srcs[1].is_rz else None)
            zero = np.zeros(warp.local_mem.shape[0], dtype=np.uint32)
            for lane in lanes:
                addr = int(addrs[lane])
                warp._check_local(addr)
                _write_word_cols(warp.local_mem[:, lane, :], addr,
                                 src[:, lane] if src is not None else zero)
        return self.config.l1_hit_latency

    def _exec_global(self, inst, warp, mask: np.ndarray) -> int:
        pack = self.gpu.pack
        mem = inst.srcs[0]
        if not mem.base.is_rz:
            # addresses steer shared caches/coalescing/banks
            pack.check_rows(warp.regs[mem.base.index], mask)
        klass = inst.spec.klass
        if klass is not OpClass.LOAD and not inst.srcs[1].is_rz:
            # store/atomic source values enter shared global memory
            pack.check_rows(warp.regs[inst.srcs[1].index], mask)
        latency = super()._exec_global(inst, _Column0(warp), mask)
        if klass is OpClass.LOAD and not inst.dsts[0].is_rz:
            # the loaded line is shared golden state: every column
            # observes the same words
            lanes = np.nonzero(mask)[0]
            col = warp.regs[inst.dsts[0].index]
            col[1:, lanes] = col[0, lanes]
        return latency

    def _exec_atomic(self, inst, warp, lanes: np.ndarray,
                     addrs: np.ndarray) -> int:
        stacked = getattr(warp, "stacked", None)
        latency = super()._exec_atomic(inst, warp, lanes, addrs)
        if stacked is not None and inst.opcode == "ATOM":
            dst = inst.dsts[0]
            if not dst.is_rz:
                col = stacked.regs[dst.index]
                col[1:, lanes] = col[0, lanes]
        return latency


class BatchedGPU(GPU):
    """A GPU whose cores issue across every pack column."""

    core_class = BatchedCore

    def __init__(self, config):
        super().__init__(config)
        #: The attached :class:`LockstepPack` (set via ``attach``).
        self.pack = None


class BatchedDevice(Device):
    """A device built around a :class:`BatchedGPU`."""

    gpu_class = BatchedGPU
