"""Shared-memory artifact hand-off: round-trip fidelity and segment lifetime."""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import ReproError
from repro.runtime import shm
from repro.runtime.cache import ComputeCache, get_compute_cache, set_compute_cache
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.shm import (
    ArtifactExport,
    SharedArtifactRunner,
    adopt_artifacts,
    content_fingerprint,
    export_session_artifacts,
    set_artifact_sharing,
    sharing_enabled,
)
from repro.sim.policies import MParetoPolicy, NoMigrationPolicy
from repro.sim.runner import RunConfig, run_replications
from repro.topology.fattree import fat_tree
from repro.workload.diurnal import DiurnalModel
from repro.workload.traffic import FacebookTrafficModel


def _segment_names(export: ArtifactExport) -> list[str]:
    return [segment.name for segment in export._segments]


def _assert_unlinked(names: list[str]) -> None:
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.fixture()
def fresh_adoption_state():
    """Isolate the worker-side adoption registry and compute cache."""
    saved_adopted = dict(shm._ADOPTED)
    shm._ADOPTED.clear()
    previous = get_compute_cache()
    set_compute_cache(ComputeCache())
    yield
    shm._ADOPTED.clear()
    shm._ADOPTED.update(saved_adopted)
    set_compute_cache(previous)


class TestContentFingerprint:
    def test_stable_across_pickle_round_trips(self):
        topo = fat_tree(2)
        clone = pickle.loads(pickle.dumps(topo))
        assert topo is not clone
        assert content_fingerprint(topo) == content_fingerprint(clone)

    def test_distinguishes_topologies(self):
        assert content_fingerprint(fat_tree(2)) != content_fingerprint(fat_tree(4))

    def test_unpicklable_rejected(self):
        with pytest.raises(ReproError, match="unpicklable"):
            content_fingerprint(lambda: None)


class TestExportAdoptRoundTrip:
    def test_adopted_arrays_bitwise_equal(self, fresh_adoption_state):
        topo = fat_tree(2)
        dist, pred = topo.graph._apsp()
        export = export_session_artifacts(topo, chain_sizes=(3,))
        try:
            worker_topo = pickle.loads(pickle.dumps(topo))
            canonical = adopt_artifacts(export.shared, worker_topo)
            assert canonical is worker_topo
            cache = get_compute_cache()
            got_dist, got_pred = cache.get_or_compute(
                worker_topo.graph, "apsp", lambda: pytest.fail("apsp not seeded")
            )
            assert np.array_equal(got_dist, dist)
            assert np.array_equal(got_pred, pred)
            assert len(export.shared.strolls) == 1  # n=3 has one interior VNF
            key, _refs = export.shared.strolls[0]
            seeded = cache.get_or_compute(
                worker_topo, key, lambda: pytest.fail("stroll matrix not seeded")
            )
            from repro.core.placement import _stroll_matrix

            fresh = _stroll_matrix(topo, topo.switches, 1, "second-best", 18)
            for got, want in zip(seeded, fresh):
                assert np.array_equal(got, want)
        finally:
            export.close()

    def test_adoption_is_idempotent_and_canonicalizing(self, fresh_adoption_state):
        topo = fat_tree(2)
        export = export_session_artifacts(topo)
        try:
            first = pickle.loads(pickle.dumps(topo))
            second = pickle.loads(pickle.dumps(topo))
            assert adopt_artifacts(export.shared, first) is first
            # same fingerprint -> later identity-distinct copies are rewritten
            assert adopt_artifacts(export.shared, second) is first
        finally:
            export.close()

    def test_runner_rewrites_matching_tasks(self, fresh_adoption_state):
        topo = fat_tree(2)
        export = export_session_artifacts(topo)
        try:
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Task:
                topology: object

            seen = []
            runner = SharedArtifactRunner(
                lambda task: seen.append(task.topology), export.shared
            )
            runner(Task(topology=pickle.loads(pickle.dumps(topo))))
            runner(Task(topology=pickle.loads(pickle.dumps(topo))))
            assert seen[0] is seen[1]  # both rewritten onto the canonical copy
            foreign = fat_tree(4)
            runner(Task(topology=foreign))
            assert seen[2] is foreign  # fingerprint mismatch: left untouched
        finally:
            export.close()


class TestSegmentLifetime:
    def test_close_unlinks_everything_and_is_idempotent(self):
        export = export_session_artifacts(fat_tree(2), chain_sizes=(3,))
        names = _segment_names(export)
        assert len(names) == 5  # dist, pred + (closure, b_cost, b_edges)
        export.close()
        export.close()
        _assert_unlinked(names)

    def test_context_manager_unlinks_on_exception(self):
        names = []
        with pytest.raises(RuntimeError):
            with export_session_artifacts(fat_tree(2)) as export:
                names = _segment_names(export)
                raise RuntimeError("boom")
        assert names
        _assert_unlinked(names)

    def test_failed_export_leaves_no_segments(self, monkeypatch):
        created = []
        original = shm._export_array

        def tracking_export(arr):
            ref, segment = original(arr)
            created.append(segment.name)
            return ref, segment

        monkeypatch.setattr(shm, "_export_array", tracking_export)
        monkeypatch.setattr(
            shm,
            "content_fingerprint",
            lambda obj: (_ for _ in ()).throw(ReproError("injected")),
        )
        with pytest.raises(ReproError, match="injected"):
            export_session_artifacts(fat_tree(2))
        assert created  # the APSP segments were created before the failure
        _assert_unlinked(created)

    def test_sharing_toggle(self):
        assert sharing_enabled()
        assert set_artifact_sharing(False) is True
        try:
            assert not sharing_enabled()
        finally:
            set_artifact_sharing(True)


class KillOncePolicy(NoMigrationPolicy):
    """Hard-kill the worker on the first step ever taken (marker file)."""

    name = "kill-once"

    def __init__(self, topology, mu, marker=None):
        super().__init__(topology, mu)
        self.marker = marker

    def step(self, rates):
        import os

        if self.marker and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(13)
        return super().step(rates)


def _tiny_config(replications=2):
    return RunConfig(
        num_pairs=2,
        num_vnfs=3,
        mu=10.0,
        diurnal=DiurnalModel(num_hours=4),
        replications=replications,
        seed=3,
    )


class TestParallelRuns:
    def test_parallel_bit_identical_to_serial_and_no_leaks(self, monkeypatch):
        from repro.sim import runner as runner_mod

        exports = []
        original = runner_mod.export_session_artifacts

        def tracking(*args, **kwargs):
            export = original(*args, **kwargs)
            exports.append(_segment_names(export))
            return export

        monkeypatch.setattr(runner_mod, "export_session_artifacts", tracking)
        topo = fat_tree(2)
        model = FacebookTrafficModel()
        factories = {"mpareto": MParetoPolicy, "nomig": NoMigrationPolicy}
        serial, _ = run_replications(topo, model, _tiny_config(), factories, workers=1)
        parallel, _ = run_replications(
            topo, model, _tiny_config(), factories, workers=2
        )
        assert exports and all(exports)  # workers=2 actually shipped artifacts
        for names in exports:
            _assert_unlinked(names)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.placement, b.placement)
            for name in factories:
                assert a.days[name].total_cost == b.days[name].total_cost
                assert a.days[name].total_migrations == b.days[name].total_migrations

    def test_broken_pool_salvage_reships_artifacts(self, monkeypatch, tmp_path):
        """A worker death mid-run rebuilds the pool; the rebuilt workers get
        the same shared artifacts and the recovered run stays bit-identical."""
        from functools import partial

        from repro.sim import runner as runner_mod

        exports = []
        original = runner_mod.export_session_artifacts

        def tracking(*args, **kwargs):
            export = original(*args, **kwargs)
            exports.append(_segment_names(export))
            return export

        monkeypatch.setattr(runner_mod, "export_session_artifacts", tracking)
        topo = fat_tree(2)
        model = FacebookTrafficModel()
        clean, _ = run_replications(
            topo,
            model,
            _tiny_config(),
            {"kill": partial(KillOncePolicy, marker=None)},
            workers=1,
        )
        marker = str(tmp_path / "killed")
        salvaged, _ = run_replications(
            topo,
            model,
            _tiny_config(),
            {"kill": partial(KillOncePolicy, marker=marker)},
            workers=2,
            resilience=ResilienceConfig(max_retries=1, backoff_base=0.0),
        )
        import os

        assert os.path.exists(marker)  # a worker really died
        for a, b in zip(clean, salvaged):
            assert a.days["kill"].total_cost == b.days["kill"].total_cost
        assert exports
        for names in exports:
            _assert_unlinked(names)

    def test_segments_unlinked_when_run_fails(self, monkeypatch, tmp_path):
        from repro.sim import runner as runner_mod

        exports = []
        original = runner_mod.export_session_artifacts

        def tracking(*args, **kwargs):
            export = original(*args, **kwargs)
            exports.append(_segment_names(export))
            return export

        monkeypatch.setattr(runner_mod, "export_session_artifacts", tracking)

        class ExplodingExecutor:
            workers = 2

            def map(self, fn, tasks):
                raise RuntimeError("simulated BrokenProcessPool salvage failure")

            def close(self):
                pass

        monkeypatch.setattr(
            runner_mod, "get_executor", lambda *a, **k: ExplodingExecutor()
        )
        with pytest.raises(RuntimeError, match="salvage failure"):
            run_replications(
                fat_tree(2),
                FacebookTrafficModel(),
                _tiny_config(),
                {"nomig": NoMigrationPolicy},
                workers=2,
                resilience=ResilienceConfig(),
            )
        assert exports
        for names in exports:
            _assert_unlinked(names)
