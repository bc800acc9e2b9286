"""Tests for campaigns: grids, dedup, resume, pool execution, manifests."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import Experiment
from repro.errors import CampaignError, StoreError
from repro.store import (
    Campaign,
    CampaignCell,
    CampaignRunner,
    ResultStore,
)


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


@pytest.fixture
def experiment() -> Experiment:
    return Experiment.from_distribution({"1": 0.5, "2": 0.5}, gamma=100)


@pytest.fixture
def campaign(experiment) -> Campaign:
    return Campaign.grid(
        "demo",
        experiment,
        trials=40,
        engines=("direct", "batch-direct"),
        seeds=(1, 2),
    )


class CountingRunner(CampaignRunner):
    """Runner that records every payload actually computed (the spy)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.computed: list[dict] = []

    def _compute(self, payload):
        self.computed.append(dict(payload))
        return super()._compute(payload)


class TestCampaignConstruction:
    def test_grid_builds_product(self, experiment):
        campaign = Campaign.grid(
            "grid",
            experiment,
            engines=("direct",),
            backends=("auto", "numpy"),
            seeds=(1, 2, 3),
        )
        assert len(campaign.cells) == 6
        assert campaign.cells[0].name == "engine=direct/backend=auto/seed=1"

    def test_grid_with_programs(self):
        base = Experiment.from_distribution({"a": 0.5, "b": 0.5}, gamma=50)
        campaign = Campaign.grid(
            "programmed",
            base,
            programs=({"e_a": 10}, {"e_a": 50}),
            seeds=(1,),
        )
        assert len(campaign.cells) == 2
        keys = [key for _, _, key in campaign.resolve()]
        assert keys[0] != keys[1]  # programs change the fingerprint

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError, match="no cells"):
            Campaign("empty", [])
        with pytest.raises(CampaignError, match="no cells"):
            Campaign.grid("empty", None, engines=())

    def test_duplicate_cell_names_rejected(self, experiment):
        cell = CampaignCell("same", experiment, trials=10)
        with pytest.raises(CampaignError, match="duplicate"):
            Campaign("dupes", [cell, CampaignCell("same", experiment, trials=20)])

    def test_campaign_id_is_stable(self, experiment, campaign):
        rebuilt = Campaign.grid(
            "demo",
            experiment,
            trials=40,
            engines=("direct", "batch-direct"),
            seeds=(1, 2),
        )
        assert campaign.campaign_id() == rebuilt.campaign_id()

    def test_workers_validation(self, store):
        with pytest.raises(CampaignError, match="workers"):
            CampaignRunner(store, workers=0)


class TestCampaignRun:
    def test_first_run_computes_everything(self, store, campaign):
        events = []
        result = CampaignRunner(store).run(campaign, progress=events.append)
        assert len(result.outcomes) == 4
        assert {o.status for o in result.outcomes} == {"computed"}
        assert len(result.computed_keys()) == 4
        assert result.cached_keys() == []
        assert len(store.keys()) == 4
        # streaming progress: one event per cell, completed counts monotonic
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)

    def test_second_run_is_all_cache(self, store, campaign):
        CampaignRunner(store).run(campaign)
        runner = CountingRunner(store)
        result = runner.run(campaign)
        assert runner.computed == []
        assert {o.status for o in result.outcomes} == {"cached"}

    def test_duplicate_cells_computed_once(self, store, experiment):
        cells = [
            CampaignCell("one", experiment, trials=30, seed=1),
            CampaignCell("two", experiment, trials=30, seed=1),  # same identity
        ]
        runner = CountingRunner(store)
        result = runner.run(Campaign("dedup", cells))
        assert len(runner.computed) == 1
        assert len(store.keys()) == 1
        one, two = result.outcomes
        assert one.key == two.key
        assert one.result.to_json() == two.result.to_json()

    def test_results_by_cell_name(self, store, campaign):
        result = CampaignRunner(store).run(campaign)
        assert set(result.results) == {cell.name for cell in campaign.cells}
        rows = result.rows()
        assert rows[0]["status"] == "computed"
        assert {row["engine"] for row in rows} == {"direct", "batch-direct"}

    def test_manifest_persisted_and_updated(self, store, campaign):
        runner = CampaignRunner(store)
        result = runner.run(campaign)
        manifest = store.load_campaign(result.campaign_id)
        assert manifest["name"] == "demo"
        assert {cell["status"] for cell in manifest["cells"]} == {"computed"}
        assert store.campaign_ids() == [result.campaign_id]
        rerun = runner.run(campaign)
        manifest = store.load_campaign(rerun.campaign_id)
        assert {cell["status"] for cell in manifest["cells"]} == {"cached"}

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "not json"])
    def test_manifest_that_is_not_an_object_is_a_store_error(self, store, campaign, text):
        campaign_id = CampaignRunner(store).run(campaign).campaign_id
        path = store.root / "campaigns" / f"{campaign_id}.json"
        path.write_text(text)
        with pytest.raises(StoreError, match=f"corrupt campaign manifest .*{campaign_id}"):
            store.load_campaign(campaign_id)
        with pytest.raises(StoreError, match="corrupt campaign manifest"):
            CampaignRunner(store).run(campaign)

    def test_interrupted_campaign_resumes_only_missing(self, store, campaign):
        # Interrupt: the runner dies after two successful computes.
        class Dying(CountingRunner):
            def _compute(self, payload):
                if len(self.computed) == 2:
                    raise RuntimeError("simulated crash")
                return super()._compute(payload)

        dying = Dying(store)
        with pytest.raises(CampaignError, match="failed"):
            dying.run(campaign)
        assert len(store.keys()) == 2  # the finished cells persisted

        # Resume: the spy proves only the missing cells are computed.
        resumed = CountingRunner(store)
        result = resumed.run(campaign)
        assert len(resumed.computed) == 2
        statuses = sorted(o.status for o in result.outcomes)
        assert statuses == ["cached", "cached", "computed", "computed"]
        assert len(store.keys()) == 4

    def test_campaign_results_match_store_path_simulation(
        self, store, campaign, tmp_path
    ):
        # Campaign cells execute the canonical store path (misses simulate
        # the canonical network representative, so isomorphic cells share
        # one realization); the reference is therefore simulate(store=...),
        # which follows the same path, on an independent store.
        result = CampaignRunner(store).run(campaign)
        cell = campaign.cells[0]
        direct = cell.experiment.simulate(
            trials=cell.trials,
            engine=cell.engine,
            seed=cell.seed,
            store=ResultStore(tmp_path / "reference"),
        )
        assert result.results[cell.name].to_json() == direct.to_json()

    def test_pool_execution_matches_inline(self, tmp_path, experiment):
        campaign_a = Campaign.grid(
            "pool", experiment, trials=40, engines=("direct",), seeds=(1, 2, 3)
        )
        inline_store = ResultStore(tmp_path / "inline")
        pool_store = ResultStore(tmp_path / "pool")
        inline = CampaignRunner(inline_store, workers=1).run(campaign_a)
        pooled = CampaignRunner(pool_store, workers=2).run(campaign_a)
        for name, run in inline.results.items():
            assert pooled.results[name].to_json() == run.to_json()

    def test_arun_async(self, store, campaign):
        result = asyncio.run(CampaignRunner(store).arun(campaign))
        assert len(result.computed_keys()) == 4
