"""The budget-aware auto-tuner and its TunedProfile artifact.

Four contracts:

1. ``TunedProfile``/``TunedCandidate`` JSON round-trips exactly for
   arbitrary valid instances (hypothesis) and rejects foreign schema
   versions — the house versioned-payload rule.
2. Candidate enumeration is validated, deterministic, and cheapest-first;
   pruning only fires on proof; the frontier is the exact Pareto set.
3. The disk cache is deterministic: one config hash maps to one byte
   representation, a warm rerun evaluates nothing, and a stale code
   fingerprint is a miss.
4. End to end, a tuned profile's chosen config is what a deployment
   created with it actually plans (and reshards) with.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PlanStore,
    ReshardConfig,
    ShardingEngine,
    ShardingService,
    WorkloadDelta,
)
from repro.config import SearchConfig
from repro.evaluation.production import REPLAY_SEARCH_CONFIG
from repro.tuning import (
    DEFAULT_SEARCH_SPACE,
    PROFILE_SCHEMA_VERSION,
    EvaluationCache,
    TunedCandidate,
    TunedProfile,
    candidate_work,
    default_candidate,
    enumerate_candidates,
    list_profiles,
    load_profile,
    pareto_frontier,
    profile_path,
    proven_dominated,
    save_profile,
    tune_scenario,
)

_SETTINGS = settings(max_examples=25, deadline=None)

#: A 3-candidate space (+ the always-evaluated default) that keeps the
#: end-to-end tuning tests fast.
TINY_SPACE = {
    "top_n": (2,),
    "beam_width": (1,),
    "max_steps": (2, 4),
    "grid_points": (3,),
    "grid_end_factor": (1.5,),
    "migration_lambda": (1e-4, 1e-3),
    "migration_budget_ms": (None,),
}


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

search_st = st.builds(
    SearchConfig,
    top_n=st.integers(min_value=1, max_value=12),
    beam_width=st.integers(min_value=1, max_value=4),
    max_steps=st.integers(min_value=0, max_value=10),
    grid_points=st.integers(min_value=1, max_value=11),
    grid_end_factor=st.floats(min_value=1.0, max_value=3.0,
                              allow_nan=False, allow_infinity=False),
)

reshard_st = st.builds(
    ReshardConfig,
    migration_budget_ms=st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=1e4,
                  allow_nan=False, allow_infinity=False),
    ),
    migration_lambda=st.floats(min_value=0.0, max_value=1.0,
                               allow_nan=False, allow_infinity=False),
    allow_full_search=st.booleans(),
    max_refine_steps=st.integers(min_value=0, max_value=64),
)

costs_st = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
)

candidate_st = st.builds(
    TunedCandidate,
    search=search_st,
    reshard=reshard_st,
    cost_ms=costs_st,
    peak_cost_ms=costs_st,
    feasible=st.booleans(),
    from_cache=st.booleans(),
)


@st.composite
def profile_st(draw):
    return TunedProfile(
        scenario=draw(st.sampled_from(["flash_crowd", "table_churn", "x"])),
        chosen=draw(candidate_st),
        default=draw(candidate_st),
        frontier=tuple(draw(st.lists(candidate_st, max_size=3))),
        seed=draw(st.integers(min_value=0, max_value=99)),
        num_devices=draw(st.integers(min_value=1, max_value=8)),
        memory_bytes=draw(st.integers(min_value=1, max_value=2**40)),
        num_tables=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=64))),
        steps=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=64))),
        budget_s=draw(st.floats(min_value=0.1, max_value=1e4,
                                allow_nan=False, allow_infinity=False)),
        elapsed_s=draw(st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False, allow_infinity=False)),
        code_fingerprint=draw(st.sampled_from(["", "abc123"])),
        bundle_key=draw(st.sampled_from(["", "prod@v1", "shape:2dev"])),
        evaluated=draw(st.integers(min_value=0, max_value=999)),
        pruned=draw(st.integers(min_value=0, max_value=999)),
        skipped=draw(st.integers(min_value=0, max_value=999)),
        cache_hits=draw(st.integers(min_value=0, max_value=999)),
        created_at=draw(st.floats(min_value=0.0, max_value=2e9,
                                  allow_nan=False, allow_infinity=False)),
        scenario_kwargs=draw(st.dictionaries(
            st.sampled_from(["spike_factor", "churn"]),
            st.integers(min_value=0, max_value=9),
            max_size=2,
        )),
    )


# ----------------------------------------------------------------------
# 1. profile round-trips
# ----------------------------------------------------------------------


class TestProfileSchema:
    @_SETTINGS
    @given(candidate_st)
    def test_candidate_round_trip(self, candidate):
        payload = json.loads(json.dumps(candidate.to_dict()))
        assert TunedCandidate.from_dict(payload) == candidate

    @_SETTINGS
    @given(profile_st())
    def test_profile_round_trip(self, profile):
        payload = json.loads(json.dumps(profile.to_dict()))
        assert TunedProfile.from_dict(payload) == profile

    def test_infinite_cost_serializes_as_null(self):
        candidate = TunedCandidate(
            search=SearchConfig(), reshard=ReshardConfig(),
            cost_ms=math.inf, peak_cost_ms=math.inf, feasible=False,
        )
        payload = candidate.to_dict()
        assert payload["cost_ms"] is None
        assert payload["peak_cost_ms"] is None
        assert TunedCandidate.from_dict(payload).cost_ms == math.inf

    @pytest.mark.parametrize("version", [0, 2, None, "1"])
    def test_foreign_schema_version_is_rejected(self, version):
        payload = _profile_fixture().to_dict()
        payload["schema_version"] = version
        with pytest.raises(ValueError, match="schema version"):
            TunedProfile.from_dict(payload)

    def test_out_of_range_knob_in_payload_fails_loudly(self):
        payload = _profile_fixture().to_dict()
        payload["chosen"]["search"]["top_n"] = 0
        with pytest.raises(ValueError, match="top_n must be >= 1, got 0"):
            TunedProfile.from_dict(payload)

    def test_unknown_knob_in_payload_fails_loudly(self):
        payload = _profile_fixture().to_dict()
        payload["chosen"]["search"]["beem_width"] = 2
        with pytest.raises(ValueError, match="unknown SearchConfig knobs"):
            TunedProfile.from_dict(payload)

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("max_refine_step", 4, "unknown ReshardConfig knobs"),
            ("allow_full_search", "false", "allow_full_search must be a bool"),
            ("migration_budget_ms", "50", "migration_budget_ms must be a number"),
            ("max_refine_steps", 4.5, "max_refine_steps must be an int"),
        ],
    )
    def test_bad_reshard_knob_in_payload_fails_loudly(self, knob, value, message):
        payload = _profile_fixture().to_dict()
        payload["chosen"]["reshard"][knob] = value
        with pytest.raises(ValueError, match=message):
            TunedProfile.from_dict(payload)

    def test_retired_batch_scoring_knob_still_loads(self):
        """Profiles saved while ``SearchConfig`` had ``use_batch_scoring``
        carry it in every candidate; loading drops exactly that key."""
        payload = _pre_batch_retirement_payload()
        assert TunedProfile.from_dict(payload) == _profile_fixture()
        assert SearchConfig.from_dict(
            {"top_n": 4, "use_batch_scoring": False}
        ) == SearchConfig(top_n=4)
        payload["chosen"]["search"]["use_batch_scorin"] = True
        with pytest.raises(ValueError, match="use_batch_scorin'"):
            TunedProfile.from_dict(payload)

    def test_profile_path_rejects_traversal(self, tmp_path):
        for name in ("", "../etc", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="invalid scenario name"):
                profile_path(tmp_path, name)

    def test_save_load_list(self, tmp_path):
        profile = _profile_fixture()
        path = save_profile(profile, tmp_path)
        assert path == tmp_path / "flash_crowd.json"
        assert load_profile(path) == profile
        assert list_profiles(tmp_path) == [profile]
        assert list_profiles(tmp_path / "missing") == []


def _profile_fixture() -> TunedProfile:
    search, reshard = default_candidate(16)
    candidate = TunedCandidate(
        search=search, reshard=reshard, cost_ms=10.0, peak_cost_ms=12.0,
    )
    return TunedProfile(
        scenario="flash_crowd",
        chosen=candidate,
        default=candidate,
        frontier=(candidate,),
        seed=0,
        num_devices=2,
        memory_bytes=2 * 1024**3,
        num_tables=8,
        steps=6,
        budget_s=30.0,
        elapsed_s=1.0,
        code_fingerprint="abc",
        bundle_key="shape:2dev:b65536",
        evaluated=1,
        pruned=0,
        skipped=0,
        cache_hits=0,
        created_at=0.0,
    )


def _pre_batch_retirement_payload() -> dict:
    """``_profile_fixture()`` as saved while ``SearchConfig`` still had
    the ``use_batch_scoring`` knob (``to_dict`` wrote every field)."""
    payload = _profile_fixture().to_dict()
    for candidate in (
        payload["chosen"], payload["default"], *payload["frontier"]
    ):
        candidate["search"]["use_batch_scoring"] = True
    return payload


# ----------------------------------------------------------------------
# 2. enumeration / pruning / frontier
# ----------------------------------------------------------------------


class TestEnumeration:
    def test_default_space_size_and_order(self):
        candidates = enumerate_candidates()
        expected = 1
        for values in DEFAULT_SEARCH_SPACE.values():
            expected *= len(values)
        assert len(candidates) == expected
        works = [candidate_work(search) for search, _ in candidates]
        assert works == sorted(works)

    def test_deterministic(self):
        assert enumerate_candidates() == enumerate_candidates()

    def test_unknown_knob_fails(self):
        with pytest.raises(ValueError, match="unknown tuning knobs"):
            enumerate_candidates({"beem_width": (1,)})

    def test_empty_grid_fails(self):
        with pytest.raises(ValueError, match="empty value grid"):
            enumerate_candidates({"top_n": ()})

    def test_out_of_range_value_fails(self):
        with pytest.raises(ValueError, match="top_n must be >= 1, got 0"):
            enumerate_candidates({"top_n": (0,)})
        with pytest.raises(ValueError,
                           match="migration_lambda must be >= 0"):
            enumerate_candidates({"migration_lambda": (-1.0,)})

    def test_shared_refine_steps(self):
        for _, reshard in enumerate_candidates(TINY_SPACE,
                                               max_refine_steps=7):
            assert reshard.max_refine_steps == 7


class TestPruning:
    def _cand(self, cost, **knobs):
        return TunedCandidate(
            search=SearchConfig(**knobs), reshard=ReshardConfig(),
            cost_ms=cost, peak_cost_ms=cost,
        )

    def test_plateau_proves_domination(self):
        # Cost did not improve from work 40 -> 160 along the pending
        # config's own knob directions: the pending 640 is pruned.
        evidence = [
            self._cand(10.0, top_n=2, beam_width=2, max_steps=1,
                       grid_points=5),
            self._cand(10.0, top_n=4, beam_width=2, max_steps=2,
                       grid_points=10),
        ]
        assert proven_dominated(
            SearchConfig(top_n=8, beam_width=2, max_steps=4,
                         grid_points=10),
            ReshardConfig(), evidence,
        )

    def test_improving_cost_is_not_proof(self):
        evidence = [
            self._cand(10.0, top_n=2, beam_width=2, max_steps=1,
                       grid_points=5),
            self._cand(9.0, top_n=4, beam_width=2, max_steps=2,
                       grid_points=10),
        ]
        assert not proven_dominated(
            SearchConfig(top_n=8, beam_width=2, max_steps=4,
                         grid_points=10),
            ReshardConfig(), evidence,
        )

    def test_other_reshard_pair_is_no_evidence(self):
        evidence = [
            self._cand(10.0, top_n=2, beam_width=2, max_steps=1,
                       grid_points=5),
            self._cand(10.0, top_n=4, beam_width=2, max_steps=2,
                       grid_points=10),
        ]
        assert not proven_dominated(
            SearchConfig(top_n=8, beam_width=2, max_steps=4,
                         grid_points=10),
            ReshardConfig(migration_lambda=0.5), evidence,
        )

    def test_frontier_is_the_pareto_set(self):
        a = self._cand(10.0, top_n=1, beam_width=1, max_steps=1,
                       grid_points=1)
        b = self._cand(8.0, top_n=2, beam_width=1, max_steps=1,
                       grid_points=1)
        c = self._cand(9.0, top_n=4, beam_width=1, max_steps=1,
                       grid_points=1)  # dominated by b
        assert pareto_frontier([a, b, c]) == (a, b)


# ----------------------------------------------------------------------
# 3. tuning runs + cache determinism
# ----------------------------------------------------------------------


def _tune(tiny_bundle, small_pool, **kwargs):
    kwargs.setdefault("budget_s", 600.0)
    kwargs.setdefault("steps", 6)
    kwargs.setdefault("num_tables", 8)
    kwargs.setdefault("search_space", TINY_SPACE)
    return tune_scenario("flash_crowd", tiny_bundle, small_pool, **kwargs)


class TestTuneScenario:
    def test_input_validation(self, tiny_bundle, small_pool):
        with pytest.raises(ValueError, match="budget_s must be > 0"):
            _tune(tiny_bundle, small_pool, budget_s=0.0)
        with pytest.raises(ValueError, match="max_candidates must be >= 1"):
            _tune(tiny_bundle, small_pool, max_candidates=0)

    def test_chosen_never_loses_to_default(self, tiny_bundle, small_pool):
        profile = _tune(tiny_bundle, small_pool)
        assert profile.chosen.feasible
        assert profile.chosen.cost_ms <= profile.default.cost_ms
        assert profile.default.search == REPLAY_SEARCH_CONFIG
        # The frontier is non-dominated and ascending in work.
        works = [c.work for c in profile.frontier]
        costs = [c.cost_ms for c in profile.frontier]
        assert works == sorted(works)
        assert costs == sorted(costs, reverse=True)

    def test_deterministic_across_runs(self, tiny_bundle, small_pool):
        first = _tune(tiny_bundle, small_pool)
        second = _tune(tiny_bundle, small_pool)
        # Wall-clock provenance aside, reruns are bit-identical.
        for field in ("chosen", "default", "frontier", "evaluated",
                      "pruned", "code_fingerprint", "bundle_key"):
            assert getattr(first, field) == getattr(second, field)

    def test_max_candidates_caps_evaluations(self, tiny_bundle, small_pool):
        profile = _tune(tiny_bundle, small_pool, max_candidates=1)
        assert profile.evaluated == 1
        assert profile.skipped > 0
        # The only evaluation is the always-first default baseline.
        assert profile.chosen == profile.default

    def test_cache_hash_maps_to_one_byte_representation(
        self, tiny_bundle, small_pool, tmp_path
    ):
        cold = _tune(tiny_bundle, small_pool, cache_dir=tmp_path / "a")
        again = _tune(tiny_bundle, small_pool, cache_dir=tmp_path / "b")
        assert cold.cache_hits == again.cache_hits == 0
        files_a = sorted(p.name for p in (tmp_path / "a").glob("*.json"))
        files_b = sorted(p.name for p in (tmp_path / "b").glob("*.json"))
        assert files_a and files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_warm_rerun_evaluates_nothing(self, tiny_bundle, small_pool,
                                          tmp_path):
        cold = _tune(tiny_bundle, small_pool, cache_dir=tmp_path)
        warm = _tune(tiny_bundle, small_pool, cache_dir=tmp_path)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.evaluated == cold.evaluated
        # Identical outcome; only the cache provenance flag differs.
        assert warm.chosen.search == cold.chosen.search
        assert warm.chosen.reshard == cold.chosen.reshard
        assert warm.chosen.cost_ms == cold.chosen.cost_ms
        assert all(c.from_cache for c in (warm.chosen, warm.default))

    def test_stale_code_fingerprint_re_evaluates(
        self, tiny_bundle, small_pool, tmp_path, monkeypatch
    ):
        cold = _tune(tiny_bundle, small_pool, cache_dir=tmp_path)
        assert cold.cache_hits == 0
        import repro.tuning.tuner as tuner_module

        monkeypatch.setattr(
            tuner_module, "tuning_code_fingerprint", lambda: "stale"
        )
        rerun = _tune(tiny_bundle, small_pool, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.code_fingerprint == "stale"
        assert rerun.chosen.search == cold.chosen.search

    def test_cache_ignores_garbage_entries(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        cache.path("deadbeef").write_text("{not json")
        assert cache.get("deadbeef", "fp") is None
        cache.put("deadbeef", {"code_fingerprint": "fp", "cost_ms": 1.0})
        assert cache.get("deadbeef", "fp")["cost_ms"] == 1.0
        assert cache.get("deadbeef", "other-fp") is None


# ----------------------------------------------------------------------
# 4. end to end: tune -> save -> create --profile -> plan
# ----------------------------------------------------------------------


class TestProfileApplication:
    @pytest.fixture()
    def tuned_profile(self, tiny_bundle, small_pool, tmp_path):
        profile = _tune(tiny_bundle, small_pool)
        return load_profile(save_profile(profile, tmp_path / "profiles"))

    def _service(self, cluster2, tiny_bundle, tmp_path, name):
        engine = ShardingEngine(cluster2, tiny_bundle)
        return ShardingService(PlanStore(tmp_path / name)), engine

    def test_plan_uses_the_chosen_search_config(
        self, tuned_profile, cluster2, tiny_bundle, small_pool, tmp_path
    ):
        service, engine = self._service(
            cluster2, tiny_bundle, tmp_path, "store"
        )
        tables = tuple(small_pool.tables[:6])
        service.create_deployment(
            "tuned", engine, tables=tables, profile=tuned_profile
        )
        service.create_deployment("plain", engine, tables=tables)

        injected = service.plan("tuned")
        explicit = service.plan(
            "plain",
            options={"search": tuned_profile.chosen.search.to_dict()},
        )
        assert injected.feasible and explicit.feasible
        assert injected.plan == explicit.plan
        assert injected.simulated_cost_ms == explicit.simulated_cost_ms
        # An explicit per-request search config still wins.
        override = service.plan(
            "tuned", options={"search": SearchConfig().to_dict()}
        )
        assert override.feasible

    def test_reshard_defaults_to_the_chosen_reshard_config(
        self, tuned_profile, cluster2, tiny_bundle, small_pool, tmp_path
    ):
        service, engine = self._service(
            cluster2, tiny_bundle, tmp_path, "store"
        )
        tables = tuple(small_pool.tables[:6])
        service.create_deployment(
            "tuned", engine, tables=tables, profile=tuned_profile
        )
        service.plan("tuned")
        service.apply("tuned")
        record = service.reshard(
            "tuned", WorkloadDelta(add_tables=(small_pool.tables[7],))
        )
        assert record.metadata["reshard_config"] == \
            tuned_profile.chosen.reshard.to_dict()

    def test_profile_survives_service_restart(
        self, tuned_profile, cluster2, tiny_bundle, small_pool, tmp_path
    ):
        service, engine = self._service(
            cluster2, tiny_bundle, tmp_path, "store"
        )
        tables = tuple(small_pool.tables[:6])
        service.create_deployment(
            "tuned", engine, tables=tables, profile=tuned_profile
        )
        first = service.plan("tuned")

        reopened = ShardingService.open(
            PlanStore(tmp_path / "store"), lambda meta: engine
        )
        assert reopened.status("tuned")["tuned_profile"] == "flash_crowd"
        second = reopened.plan("tuned")
        assert second.plan == first.plan
        assert second.simulated_cost_ms == first.simulated_cost_ms

    def test_stored_profile_with_retired_knob_reopens(
        self, cluster2, tiny_bundle, small_pool, tmp_path
    ):
        """Deployment metadata written while ``use_batch_scoring`` existed
        still reopens, and the profile's search config applies."""
        service, engine = self._service(
            cluster2, tiny_bundle, tmp_path, "store"
        )
        service.create_deployment(
            "tuned", engine, tables=tuple(small_pool.tables[:6]),
            profile=_profile_fixture(),
        )
        store = PlanStore(tmp_path / "store")
        meta = store.read_deployment("tuned").meta
        meta["tuned_profile"] = _pre_batch_retirement_payload()
        store.save_meta("tuned", meta)

        reopened = ShardingService.open(store, lambda meta: engine)
        assert reopened.skipped_deployments == {}
        assert reopened.status("tuned")["tuned_profile"] == "flash_crowd"
        assert reopened._get("tuned").profile == _profile_fixture()

    def test_device_count_mismatch_is_rejected(
        self, tuned_profile, cluster4, tiny_bundle, small_pool, tmp_path
    ):
        service = ShardingService(PlanStore(tmp_path / "store"))
        engine = ShardingEngine(cluster4)
        with pytest.raises(ValueError, match="tuned for 2 devices"):
            service.create_deployment(
                "tuned",
                engine,
                tables=tuple(small_pool.tables[:6]),
                profile=tuned_profile,
            )

    def test_profile_type_is_validated(self, cluster2, tiny_bundle,
                                       small_pool, tmp_path):
        service, engine = self._service(
            cluster2, tiny_bundle, tmp_path, "store"
        )
        with pytest.raises(TypeError, match="profile must be a TunedProfile"):
            service.create_deployment(
                "bad",
                engine,
                tables=tuple(small_pool.tables[:6]),
                profile="profiles/flash_crowd.json",
            )
