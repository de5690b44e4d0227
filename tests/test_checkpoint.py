"""Golden-run checkpointing and fast-forward injection.

The contract under test: a campaign executed with ``checkpoint_dir``
set produces records *byte-identical* to the same campaign executed
from scratch, for any capture interval, because every fault run
restores a full architectural snapshot taken at a cycle at or before
its injection cycle and replays only the suffix.
"""

import json

import numpy as np
import pytest

from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.targets import Structure
from repro.sim.cache import Cache
from repro.sim.cards import rtx_2060
from repro.sim.checkpoint import (CheckpointRecorder, CheckpointStore,
                                  campaign_fingerprint, state_digest,
                                  _dumps, _loads)
from repro.sim.config import CacheGeometry
from repro.sim.device import Device, RunOptions
from repro.sim.kernel import Kernel, KernelLaunch
from repro.sim.memory import SNAPSHOT_CHUNK, GlobalMemory


def run_campaign(tmp_path, benchmark, runs, checkpoint_dir=None,
                 interval=None, verify=False, seed=7):
    # early_stop="off": the byte-identical contract under test is
    # scoped to full simulation (early termination adds provenance
    # keys by design; its own parity is covered in test_early_stop.py)
    config = CampaignConfig(
        benchmark=benchmark, card="RTX2060",
        structures=(Structure.REGISTER_FILE, Structure.L2_CACHE),
        runs_per_structure=runs, seed=seed,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=interval,
        verify_restore=verify,
        early_stop="off")
    return Campaign(config).run()


class TestCampaignParity:
    """>= 32 fast-forwarded runs over two benchmarks and two
    structures must be byte-identical to from-scratch execution."""

    @pytest.mark.parametrize("bench_name,runs", [
        ("vectoradd", 8),   # 8 runs x 2 structures x 1 kernel  = 16
        ("bfs", 4),         # 4 runs x 2 structures x 2 kernels = 16
    ])
    def test_checkpointed_records_byte_identical(self, tmp_path,
                                                 bench_name, runs):
        scratch = run_campaign(tmp_path, bench_name, runs)
        ckpt = run_campaign(tmp_path, bench_name, runs,
                            checkpoint_dir=tmp_path / "ckpt")
        assert len(scratch.records) >= 16
        assert (json.dumps(scratch.records, sort_keys=True)
                == json.dumps(ckpt.records, sort_keys=True))

    def test_interval_independent(self, tmp_path):
        """Records do not depend on the capture stride."""
        baseline = run_campaign(tmp_path, "vectoradd", 4)
        for interval in (64, 256):
            got = run_campaign(tmp_path, "vectoradd", 4,
                               checkpoint_dir=tmp_path / f"i{interval}",
                               interval=interval)
            assert (json.dumps(baseline.records, sort_keys=True)
                    == json.dumps(got.records, sort_keys=True)), interval

    def test_verify_restore_cross_check(self, tmp_path):
        """--verify-restore re-runs every fast-forwarded run from
        scratch and raises on any divergence; passing is the test."""
        result = run_campaign(tmp_path, "vectoradd", 2,
                              checkpoint_dir=tmp_path / "ckpt",
                              verify=True)
        assert len(result.records) == 4


class TestCheckpointStore:
    def test_set_reused_across_plans(self, tmp_path):
        root = tmp_path / "ckpt"
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root)
        key = next(p.name for p in root.iterdir() if p.is_dir())
        meta = root / key / "meta.json"
        before = meta.stat().st_mtime_ns
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root)
        assert meta.stat().st_mtime_ns == before  # no recapture

    def test_interval_change_recaptures(self, tmp_path):
        root = tmp_path / "ckpt"
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root,
                     interval=500)
        key = next(p.name for p in root.iterdir() if p.is_dir())
        run_campaign(tmp_path, "vectoradd", 1, checkpoint_dir=root,
                     interval=100)
        meta = json.loads((root / key / "meta.json").read_text())
        assert meta["interval"] == 100

    def test_torn_set_ignored(self, tmp_path):
        """A directory without a complete meta.json (crashed capture)
        must read as absent, not as a corrupt set."""
        store = CheckpointStore(tmp_path)
        d = store.path("deadbeef")
        d.mkdir(parents=True)
        (d / "ckpt_000_000000000100.bin").write_bytes(b"partial")
        assert store.open("deadbeef") is None

    def test_format_mismatch_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        d = store.path("cafe")
        d.mkdir(parents=True)
        (d / "meta.json").write_text(json.dumps(
            {"format": -1, "interval": None, "golden_cycles": 1,
             "checkpoints": [], "complete": True}))
        assert store.open("cafe") is None

    def test_fingerprint_tracks_code_and_card(self):
        from repro.bench import make_benchmark

        bench = make_benchmark("vectoradd")
        base = campaign_fingerprint(bench, rtx_2060(), "gto")
        assert base == campaign_fingerprint(
            make_benchmark("vectoradd"), rtx_2060(), "gto")
        assert base != campaign_fingerprint(bench, rtx_2060(), "lrr")
        assert base != campaign_fingerprint(
            make_benchmark("pathfinder"), rtx_2060(), "gto")


class TestSnapshotRoundtrip:
    KERNEL = Kernel("snap_probe", """
    S2R R0, SR_TID_X
    SHL R3, R0, 2
    LDC R8, c[0x0]
    IADD R9, R8, R3
    MOV R10, 0x55
    STG [R9], R10
    EXIT
""", num_params=1)

    def test_blob_roundtrip(self):
        obj = {"a": np.arange(8, dtype=np.uint32), "b": [1, 2, 3]}
        back = _loads(_dumps(obj))
        assert np.array_equal(back["a"], obj["a"])
        assert back["b"] == obj["b"]

    def test_gpu_state_roundtrip(self):
        """snapshot -> clobber -> restore leaves memory, allocator,
        cycle and stats identical.  DRAM is clobbered with a non-zero
        pattern everywhere, so restore must also zero every chunk the
        sparse snapshot does not carry."""
        dev = Device("RTX2060")
        out = dev.malloc(128)
        dev.launch(self.KERNEL, grid=1, block=32, params=[out])
        gpu = dev.gpu
        request = KernelLaunch.create(self.KERNEL, grid=1, block=32,
                                      params=[out])
        snap = _loads(_dumps(gpu.snapshot(request, [])))
        cycle = gpu.cycle
        mem = gpu.memory.data.copy()
        mapped_end = gpu.memory.mapped_end()
        gpu.memory.reset()
        gpu.memory.data[:] = 0xA5
        gpu.cycle = 0
        gpu.restore(snap, request)
        assert gpu.cycle == cycle
        assert np.array_equal(gpu.memory.data, mem)
        assert gpu.memory.mapped_end() == mapped_end
        assert (dev.read_array(out, (32,), np.uint32) == 0x55).all()

    def test_recorder_writes_complete_set(self, tmp_path):
        rec = CheckpointRecorder(tmp_path / "set", interval=50)
        dev = Device("RTX2060", RunOptions(checkpointer=rec))
        out = dev.malloc(128)
        dev.launch(self.KERNEL, grid=1, block=32, params=[out])
        rec.finalize(dev.gpu.stats.launches, dev.cycle)
        meta = json.loads((tmp_path / "set" / "meta.json").read_text())
        assert meta["complete"] and meta["checkpoints"]
        ckpt_set = CheckpointStore(tmp_path).open("set")
        assert ckpt_set is not None
        assert ckpt_set.golden_cycles == dev.cycle

    def test_checkpointer_and_fast_forward_exclusive(self):
        rec = CheckpointRecorder("/tmp/unused")
        with pytest.raises(ValueError):
            RunOptions(checkpointer=rec, fast_forward=object())


class TestSparseSnapshots:
    """Format 3: DRAM as its non-zero chunks, caches as flat arrays."""

    def launched(self):
        dev = Device("RTX2060")
        out = dev.malloc(128)
        dev.memcpy_htod(out, np.arange(1, 33, dtype=np.uint32))
        dev.launch(TestSnapshotRoundtrip.KERNEL, grid=1, block=32,
                   params=[out])
        request = KernelLaunch.create(TestSnapshotRoundtrip.KERNEL,
                                      grid=1, block=32, params=[out])
        return dev.gpu, request

    def test_dram_snapshot_keeps_only_written_chunks(self):
        gpu, _ = self.launched()
        snap = gpu.memory.snapshot()
        written = np.flatnonzero(
            gpu.memory.data.reshape(-1, SNAPSHOT_CHUNK).any(axis=1))
        assert snap["chunks"].tolist() == written.tolist()
        assert 0 < len(written) < gpu.memory.size // SNAPSHOT_CHUNK
        assert snap["data"].shape == (len(written), SNAPSHOT_CHUNK)

    def test_write_past_mapped_end_survives_restore(self):
        """A writeback a flipped tag sends past the mapped heap still
        lands in DRAM, so the snapshot must carry it."""
        gpu, request = self.launched()
        before = state_digest(gpu.snapshot(request, []))
        addr = gpu.memory.mapped_end() + 3 * SNAPSHOT_CHUNK + 128
        assert addr + 128 <= gpu.memory.size
        gpu.memory.write_line(addr, np.full(128, 0x3C, dtype=np.uint8))
        snap = _loads(_dumps(gpu.snapshot(request, [])))
        assert state_digest(snap) != before
        mem = gpu.memory.data.copy()
        gpu.memory.reset()
        gpu.memory.data[:] = 0xA5
        gpu.restore(snap, request)
        assert np.array_equal(gpu.memory.data, mem)
        assert (gpu.memory.data[addr:addr + 128] == 0x3C).all()

    def test_pickled_snapshot_restores_to_same_digest(self, tmp_path):
        """Every mid-launch checkpoint, restored from disk and captured
        again, digests to the hash recorded at capture time -- with
        written DRAM, a dirty L2 line and an armed hook in the state."""
        kernel = TestSnapshotRoundtrip.KERNEL
        recorder = CheckpointRecorder(tmp_path / "set", interval=2)
        dev = Device("RTX2060", RunOptions(checkpointer=recorder))
        scratch, out = dev.malloc(128), dev.malloc(128)
        dev.memcpy_htod(scratch, np.arange(1, 33, dtype=np.uint32))
        l2 = dev.gpu.l2
        l2.fill(scratch, np.full(128, 0x5A, dtype=np.uint8))
        l2.write_word(l2.peek(scratch), scratch, 7)
        l2.arm_hook(l2.resident_index(scratch), [l2.tag_bits + 5])
        dev.launch(kernel, grid=1, block=32, params=[out])
        request = KernelLaunch.create(kernel, grid=1, block=32,
                                      params=[out])
        assert len(recorder.checkpoints) > 2
        for entry in recorder.checkpoints:
            snap = _loads((tmp_path / "set" / entry["file"]).read_bytes())
            assert snap["l2"]["armed"] and snap["l2"]["dirty"].any()
            assert len(snap["memory"]["chunks"])
            dev.gpu.restore(snap, request)
            again = dev.gpu.snapshot(request, [tuple(c)
                                               for c in snap["queue"]])
            assert state_digest(again) == entry["state_hash"]

    @pytest.mark.parametrize("size", [3 * SNAPSHOT_CHUNK + 100, 1000])
    def test_dram_size_not_a_chunk_multiple(self, size):
        mem = GlobalMemory(size)
        mem.write_line(size - 40, np.full(64, 0x11, dtype=np.uint8))
        mem.write_line(0, np.full(16, 0x22, dtype=np.uint8))
        expect = mem.data.copy()
        snap = _loads(_dumps(mem.snapshot()))
        mem.data[:] = 0xA5
        mem.restore(snap)
        assert np.array_equal(mem.data, expect)
        assert state_digest(mem.snapshot()) == state_digest(snap)

    def test_cache_restore_rebuilds_lines(self):
        cache = Cache("t", CacheGeometry(4 * 1024, line_bytes=128,
                                         assoc=2))
        for i, addr in enumerate((0, 128, 2048, 256, 384)):
            cache.fill(addr, np.full(128, i + 1, dtype=np.uint8))
        cache.write_word(cache.peek(128), 132, 0xDEADBEEF)
        cache.invalidate(2048)
        cache.arm_hook(cache.resident_index(0), [3, 70])
        snap = _loads(_dumps(cache.snapshot()))
        back = Cache("t", cache.geometry)
        back.restore(snap)
        assert sorted(back._sets) == sorted(cache._sets)
        for set_idx, ways in cache._sets.items():
            for line, got in zip(ways, back._sets[set_idx]):
                assert got.valid == line.valid
                assert got.last_use == line.last_use
                if line.valid:
                    assert (got.dirty, got.tag, got.armed) \
                        == (line.dirty, line.tag, line.armed)
                    assert np.array_equal(got.data, line.data)
        assert back._tick == cache._tick
        assert back.stats == cache.stats
