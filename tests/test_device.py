"""Host-side Device API: memcpy semantics, typed reads, budgets, and
the cycle-loop observer protocol."""

import numpy as np

from repro.obs.propagation import PropagationTracer
from repro.sim.checkpoint import CheckpointRecorder, CheckpointStore
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel

STORE_TID = Kernel("store_tid", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    STG [R9], R0
    EXIT
""", num_params=1)


class TestMemcpy:
    def test_roundtrip_float32(self, device):
        data = np.linspace(0, 1, 100, dtype=np.float32)
        ptr = device.to_device(data)
        back = device.read_array(ptr, (100,), np.float32)
        assert np.array_equal(back, data)

    def test_roundtrip_int32_2d(self, device):
        data = np.arange(24, dtype=np.int32).reshape(4, 6)
        ptr = device.to_device(data)
        back = device.read_array(ptr, (4, 6), np.int32)
        assert np.array_equal(back, data)

    def test_noncontiguous_input(self, device):
        data = np.arange(20, dtype=np.int32)[::2]
        ptr = device.to_device(data)
        assert np.array_equal(device.read_array(ptr, (10,), np.int32),
                              data)

    def test_host_write_updates_resident_l2_lines(self, device):
        # a kernel pulls data into the L2; a host write afterwards must
        # be visible to the next kernel despite the resident line
        src = np.arange(32, dtype=np.uint32)
        p_out = device.to_device(src)
        device.launch(STORE_TID, grid=1, block=32, params=[p_out])
        device.memcpy_htod(p_out, np.full(32, 9, dtype=np.uint32))
        back = device.read_array(p_out, (32,), np.uint32)
        assert (back == 9).all()

    def test_host_read_sees_dirty_l2_data(self, device):
        p_out = device.malloc(128)
        device.launch(STORE_TID, grid=1, block=32, params=[p_out])
        # stores live dirty in L2; host_read must observe them
        assert np.array_equal(device.read_array(p_out, (32,), np.uint32),
                              np.arange(32, dtype=np.uint32))
        raw_dram = device.gpu.memory.data[p_out:p_out + 128].view("<u4")
        resident = device.gpu.l2.peek(p_out)
        assert resident is not None  # the interesting case was exercised

    def test_alloc_like(self, device):
        arr = np.zeros((8, 8), dtype=np.float32)
        ptr = device.alloc_like(arr)
        assert device.read_array(ptr, (64,), np.float32).nbytes == 256


class TestBudgets:
    def test_budget_via_options(self):
        dev = Device("RTX2060", RunOptions(cycle_budget=100_000))
        p_out = dev.malloc(128)
        dev.launch(STORE_TID, grid=1, block=32, params=[p_out])

    def test_empty_injector_via_options(self):
        from repro.faults.injector import Injector

        dev = Device("RTX2060", RunOptions(injector=Injector([])))
        p_out = dev.malloc(128)
        dev.launch(STORE_TID, grid=1, block=32, params=[p_out])


class TestCardSelection:
    def test_string_card(self):
        assert Device("gtxtitan").config.name == "GTXTitan"

    def test_config_card(self):
        from repro.sim.cards import quadro_gv100

        assert Device(quadro_gv100()).config.num_sms == 80


class Probe:
    """A passive cycle-loop observer recording what it is shown."""

    def __init__(self, due=None):
        self.due = due
        self.cycles = []
        self.reads = []

    def on_cycle(self, gpu, launch, queue):
        self.cycles.append(gpu.cycle)

    def next_due(self):
        return self.due

    def on_host_read(self, tag, addr, nbytes, data):
        self.reads.append((tag, addr, nbytes))


class TracerProbe(PropagationTracer):
    """A real propagation tracer that also records host reads."""

    def __init__(self):
        super().__init__(injection_cycle=0)
        self.reads = []

    def on_host_read(self, tag, addr, nbytes, data):
        self.reads.append((tag, addr, nbytes))


def two_launch_program(dev):
    """Launch, copy back, launch again, copy back; returns the pointer."""
    out = dev.malloc(128)
    for _ in range(2):
        dev.launch(STORE_TID, grid=1, block=32, params=[out])
        dev.read_array(out, (32,), np.uint32)
    return out


class TestCycleObservers:
    """The ``GPU.observers`` protocol: on_cycle, next_due, on_host_read."""

    def test_idle_skip_lands_on_every_observers_due_cycle(self):
        plain = Probe()
        base = Device("RTX2060", RunOptions(convergence=plain))
        two_launch_program(base)
        seen = plain.cycles
        skips = [c for c, n in zip(seen, seen[1:]) if n - c > 2]
        assert len(skips) >= 2  # the kernel stalls on its loads
        # one due cycle inside each of two idle skips, owned by two
        # different observers: a clamp ignoring either one misses it
        first, second = Probe(due=skips[0] + 1), Probe(due=skips[-1] + 1)
        dev = Device("RTX2060", RunOptions(convergence=first,
                                           injector=second))
        two_launch_program(dev)
        assert first.due in first.cycles
        assert second.due in second.cycles
        assert first.due not in seen and second.due not in seen
        # splitting a skip changes neither timing nor the stats
        assert dev.cycle == base.cycle
        assert dev.launches == base.launches
        assert dev.gpu.loop_iterations == base.gpu.loop_iterations + 2

    def test_checkpointer_never_clamps(self, tmp_path):
        from repro.bench import make_benchmark
        from repro.faults.runner import run_application

        def golden(checkpointer=None):
            return run_application(
                make_benchmark("vectoradd"), "RTX2060",
                options=RunOptions(checkpointer=checkpointer))

        recorder = CheckpointRecorder(tmp_path / "set", interval=7)
        plain, recorded = golden(), golden(recorder)
        assert len(recorder.checkpoints) > 2
        assert recorded.loop_iterations == plain.loop_iterations
        assert recorded.idle_cycles_skipped == plain.idle_cycles_skipped
        assert recorded.cycles == plain.cycles
        assert recorded.launch_cycles == plain.launch_cycles

    def test_observer_order_is_fixed(self, tmp_path):
        from repro.faults.early_stop import ConvergenceMonitor
        from repro.faults.injector import Injector

        recorder = CheckpointRecorder(tmp_path / "set")
        monitor = ConvergenceMonitor([], [], golden_cycles=0)
        tracer = PropagationTracer(injection_cycle=0)
        injector = Injector([])
        dev = Device("RTX2060", RunOptions(
            injector=injector, propagation=tracer, convergence=monitor,
            checkpointer=recorder))
        assert dev.gpu.observers == [recorder, monitor, tracer, injector]
        assert Device("RTX2060").gpu.observers == []

    def test_live_host_reads_reach_every_observer_once(self):
        probes = [Probe(), Probe(), TracerProbe(), Probe()]
        dev = Device("RTX2060", RunOptions(
            checkpointer=probes[0], convergence=probes[1],
            propagation=probes[2], injector=probes[3]))
        out = two_launch_program(dev)
        for probe in probes:
            assert probe.reads == [(1, out, 128), (2, out, 128)]

    def test_fast_forward_host_reads_reach_every_observer_once(
            self, tmp_path):
        recorder = CheckpointRecorder(tmp_path / "set", interval=50)
        golden = Device("RTX2060", RunOptions(checkpointer=recorder))
        out = two_launch_program(golden)
        recorder.finalize(golden.launches, golden.cycle)
        ckpt_set = CheckpointStore(tmp_path).open("set")
        assert len(ckpt_set.golden()["host_reads"]) == 2

        # restore inside the second launch: the first copy is served
        # from the recording, the second is read live
        ff = ckpt_set.fast_forward(golden.cycle - 1)
        assert ff.restore_cycle > golden.launches[0].end_cycle
        probes = [Probe(), TracerProbe(), Probe()]
        dev = Device("RTX2060", RunOptions(
            fast_forward=ff, convergence=probes[0],
            propagation=probes[1], injector=probes[2]))
        two_launch_program(dev)
        assert ff.done
        for probe in probes:
            assert probe.reads == [(1, out, 128), (2, out, 128)]
