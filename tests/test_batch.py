"""Batched lockstep execution: pack grouping, record parity with the
solo path across batch/jobs/early-stop, peel-off correctness, and the
plan-time persistent-model gate."""

import json

import pytest

from repro.dist.protocol import canonical_log_text
from repro.faults.batch_executor import (batch_eligible, execute_pack,
                                         group_packs)
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.executor import CampaignExecutor
from repro.faults.targets import Structure
from repro.obs.metrics import metrics_path_for
from repro.sim.batch import PackAbort

BATCHABLE = (Structure.REGISTER_FILE, Structure.SHARED_MEM,
             Structure.LOCAL_MEM)


def make_config(**overrides):
    kwargs = dict(benchmark="vectoradd", card="RTX2060",
                  structures=(Structure.REGISTER_FILE,),
                  runs_per_structure=6, seed=11, early_stop="off")
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestEligibilityAndGrouping:
    def test_cache_structures_stay_solo(self):
        campaign = Campaign(make_config(
            structures=(Structure.L2_CACHE, Structure.REGISTER_FILE)))
        specs = campaign.plan()
        for spec in specs:
            eligible = batch_eligible(spec)
            assert eligible == (spec.structure
                                is Structure.REGISTER_FILE)

    def test_persistent_model_stays_solo(self):
        campaign = Campaign(make_config(fault_model="stuck_at_0"))
        specs = campaign.plan()
        assert specs and not any(batch_eligible(s) for s in specs)
        units = group_packs(specs, 4)
        assert all(kind == "solo" for kind, _ in units)

    def test_groups_chunk_to_batch_size(self):
        campaign = Campaign(make_config(runs_per_structure=10))
        specs = campaign.plan()
        units = group_packs(specs, 4)
        packs = [payload for kind, payload in units if kind == "pack"]
        solos = [payload for kind, payload in units if kind == "solo"]
        assert all(2 <= len(p) <= 4 for p in packs)
        # every spec appears exactly once across units
        keys = ([s.key for p in packs for s in p]
                + [s.key for s in solos])
        assert sorted(keys) == sorted(s.key for s in specs)

    def test_batch_one_never_packs(self):
        campaign = Campaign(make_config())
        executor = CampaignExecutor(batch=1)
        units = executor._build_units(campaign.plan())
        assert all(kind == "solo" for kind, _ in units)


class TestRecordParity:
    """batch=1 and batch=N produce canonically identical records at
    any jobs count, with and without prescreening, checkpointed."""

    @pytest.fixture(scope="class")
    def baselines(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("batch_parity")
        out = {}
        for early in ("off", "full"):
            cfg = self._config(root, early, batch=1, label="base")
            result = Campaign(cfg).run(jobs=1)
            out[early] = canonical_log_text(result.records)
        return root, out

    @staticmethod
    def _config(root, early, batch, label, jobs_label=""):
        log = root / f"{early}-{label}{jobs_label}.jsonl"
        return CampaignConfig(
            benchmark="vectoradd", card="RTX2060",
            structures=BATCHABLE, runs_per_structure=8, seed=7,
            early_stop=early, batch=batch, log_path=log,
            metrics=True, checkpoint_dir=root / "ckpts")

    @pytest.mark.parametrize("early", ["off", "full"])
    @pytest.mark.parametrize("batch", [4, 16])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_canonical_identity(self, baselines, early, batch, jobs):
        root, base = baselines
        cfg = self._config(root, early, batch,
                           label=f"b{batch}", jobs_label=f"-j{jobs}")
        result = Campaign(cfg).run(jobs=jobs)
        assert canonical_log_text(result.records) == base[early]

    def test_metrics_sidecar_batch_section(self, baselines):
        root, base = baselines
        cfg = self._config(root, "off", batch=4, label="metrics")
        Campaign(cfg).run(jobs=1)
        doc = json.loads(metrics_path_for(cfg.log_path).read_text())
        batch = doc["batch"]
        assert batch["packs"] >= 1
        assert batch["members"] == (batch["completed_in_pack"]
                                    + batch["converged"]
                                    + batch["peeled"]
                                    + batch["solo_fallback"])
        assert set(batch["peel_cycle_histogram"])
        if batch["lockstep_fraction"] is not None:
            assert 0.0 <= batch["lockstep_fraction"] <= 1.0


class TestPeelOff:
    """A member whose fault steers control flow peels to the solo path
    and still lands the exact solo record."""

    def test_branchy_kernel_peels_and_matches(self, tmp_path):
        # pathfinder's kernel branches on data the injected registers
        # feed, so register faults regularly diverge from column 0
        def run(batch):
            cfg = CampaignConfig(
                benchmark="pathfinder", card="RTX2060",
                structures=(Structure.REGISTER_FILE,),
                runs_per_structure=10, seed=3, early_stop="off",
                batch=batch)
            campaign = Campaign(cfg)
            specs = campaign.plan()
            executor = CampaignExecutor(batch=batch)
            records = executor.execute(specs)
            return records, executor.batch_stats

        solo_records, _ = run(1)
        batched_records, stats = run(8)
        assert (canonical_log_text(batched_records)
                == canonical_log_text(solo_records))
        assert stats["packs"] >= 1
        assert stats["peeled"] >= 1, stats
        assert stats["solo_fallback"] == 0, stats
        assert len(stats["peel_cycles"]) == stats["peeled"]

    @staticmethod
    def _first_pack():
        units = group_packs(Campaign(make_config()).plan(), 4)
        return next(payload for kind, payload in units if kind == "pack")

    def test_pack_falls_back_solo_on_internal_error(self, monkeypatch):
        pack = self._first_pack()

        import repro.faults.batch_executor as bx

        def abort(specs):
            raise PackAbort("injected pack abort")

        monkeypatch.setattr(bx, "_run_pack", abort)
        records, stats = execute_pack(pack)
        assert len(records) == len(pack)
        assert stats["solo_fallback"] == len(pack)
        solo = [bx.execute_run(spec) for spec in pack]
        assert (canonical_log_text(records)
                == canonical_log_text(solo))

    def test_pack_bug_propagates(self, monkeypatch):
        # only PackAbort is a fallback contract; anything else is a bug
        # that a silent solo re-run would hide behind lost speed
        pack = self._first_pack()

        import repro.faults.batch_executor as bx

        def boom(specs):
            raise RuntimeError("injected pack failure")

        monkeypatch.setattr(bx, "_run_pack", boom)
        with pytest.raises(RuntimeError, match="injected pack failure"):
            execute_pack(pack)


class TestPlanGate:
    def test_plan_rejects_batched_persistent_model(self):
        cfg = make_config(fault_model="stuck_at_0", batch=2)
        with pytest.raises(ValueError, match="persistent"):
            Campaign(cfg).plan()

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="batch"):
            make_config(batch=0)
        with pytest.raises(ValueError, match="batch"):
            CampaignExecutor(batch=0)

    def test_config_file_round_trip(self):
        from repro.faults.config_file import (dump_config,
                                              parse_config_text)

        cfg = make_config(batch=8)
        parsed = parse_config_text(dump_config(cfg))
        assert parsed.batch == 8
        default = parse_config_text(dump_config(make_config()))
        assert default.batch == 1
