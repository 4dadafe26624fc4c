"""Tests for the experiment orchestrator: specs, cache, parallel runner, CLI."""

import dataclasses
import functools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, SpecFailedError
from repro.orchestrate.cache import MISS, CacheStats, ResultCache
from repro.orchestrate.parallel import ParallelRunner
from repro.orchestrate.serialize import (
    system_run_result_from_dict,
    system_run_result_to_dict,
)
from repro.orchestrate.spec import (
    RunSpec,
    UtilizationSpec,
    WorkloadSpec,
    canonicalize,
    fingerprint_key,
)
from repro.orchestrate.sweep import expand_sweep, run_sweep
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import compare_systems, compare_systems_many, run_workload
from repro.workloads.registry import make_workload


def _tiny_spec(kind=SystemKind.PACK, size=16, verify=True, **kwargs) -> RunSpec:
    return RunSpec(workload=WorkloadSpec.create("gemv", size=size),
                   kind=kind, verify=verify, **kwargs)


def _exit_worker() -> None:
    """Kill the current pool worker abruptly — never the test process itself."""
    if multiprocessing.parent_process() is None:
        raise RuntimeError("refusing to os._exit the test process")
    os._exit(13)


@dataclasses.dataclass(frozen=True)
class StubSpec:
    """A picklable spec returning ``float(n)`` — unless it hangs, dies or raises.

    ``behaviour`` stays out of the fingerprint, so rerunning with healthy
    stubs finds exactly the results a failed batch cached.
    """

    n: int
    behaviour: str = "ok"  # ok | hang | die | raise

    def fingerprint(self):
        return {"type": "stub", "n": self.n}

    def cache_key(self):
        return fingerprint_key(self.fingerprint())

    def execute(self):
        if self.behaviour == "hang":
            time.sleep(60)
        elif self.behaviour == "die":
            _exit_worker()
        elif self.behaviour == "raise":
            raise ValueError(f"stub {self.n} failed")
        return float(self.n)

    def result_to_json(self, result):
        return result

    def result_from_json(self, data):
        return float(data)

    def label(self):
        return f"stub/{self.n}"


def _rerun_healthy(cache_dir, count):
    """Rerun ``count`` healthy stubs serially; return (results, cache)."""
    cache = ResultCache(cache_dir)
    results = ParallelRunner(jobs=1, cache=cache).run(
        [StubSpec(n) for n in range(count)])
    return results, cache


@pytest.fixture
def fork_pool(monkeypatch):
    """Fork the runner's workers, so patches a test makes reach them."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    from repro.orchestrate import parallel as parallel_module

    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


class TestSpecs:
    def test_cache_key_is_stable_and_param_order_independent(self):
        a = RunSpec(workload=WorkloadSpec(name="spmv",
                                          params=(("avg_nnz_per_row", 8.0), ("size", 16))))
        b = RunSpec(workload=WorkloadSpec.create("spmv", size=16, avg_nnz_per_row=8.0))
        assert a.cache_key() == b.cache_key()
        assert len(a.cache_key()) == 64

    def test_cache_key_changes_with_inputs(self):
        base = _tiny_spec()
        keys = {
            base.cache_key(),
            _tiny_spec(kind=SystemKind.BASE).cache_key(),
            _tiny_spec(size=17).cache_key(),
            dataclasses.replace(base, config=SystemConfig(num_banks=11)).cache_key(),
            dataclasses.replace(base, version="0.0.0-test").cache_key(),
        }
        assert len(keys) == 5

    def test_cache_key_ignores_dead_config_kind(self):
        # execute() overrides config.kind with spec.kind, so configs that
        # differ only there describe the same measurement
        a = dataclasses.replace(_tiny_spec(),
                                config=SystemConfig(kind=SystemKind.BASE))
        b = dataclasses.replace(_tiny_spec(), config=SystemConfig())
        assert a.cache_key() == b.cache_key()

    def test_cache_key_ignores_verify(self):
        # verification never changes the measurements, so verified and
        # unverified runs share one cache entry
        assert _tiny_spec(verify=True).cache_key() == _tiny_spec(verify=False).cache_key()

    def test_canonicalize_handles_dataclasses_and_enums(self):
        data = canonicalize(SystemConfig())
        assert data["kind"] == "pack"
        assert json.dumps(data)  # JSON-safe all the way down

    def test_canonicalize_rejects_callables(self):
        with pytest.raises(TypeError):
            canonicalize(lambda: None)

    def test_run_spec_execute_matches_run_workload(self):
        spec = _tiny_spec()
        direct = run_workload(make_workload("gemv", size=16), kind=SystemKind.PACK)
        assert spec.execute().cycles == direct.cycles

    def test_utilization_spec_executes(self):
        spec = UtilizationSpec.strided(elem_bits=32, stride_elems=1, num_banks=17,
                                       num_beats=4, queue_depth=4)
        value = spec.execute()
        assert 0.0 < value <= 1.0
        assert spec.cache_key() != UtilizationSpec.strided(
            elem_bits=32, stride_elems=2, num_banks=17,
            num_beats=4, queue_depth=4).cache_key()


class TestSerialize:
    def test_system_run_result_roundtrip(self):
        result = _tiny_spec().execute()
        data = json.loads(json.dumps(system_run_result_to_dict(result)))
        back = system_run_result_from_dict(data)
        assert back.workload == result.workload
        assert back.kind is result.kind
        assert back.cycles == result.cycles
        assert back.verified == result.verified
        assert back.engine == result.engine
        assert dict(back.stats) == dict(result.stats)


class TestResultCache:
    def test_roundtrip_store_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_spec()
        assert cache.get(spec) is MISS
        result = spec.execute()
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not MISS
        assert hit.cycles == result.cycles
        assert hit.engine == result.engine
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

    def test_miss_on_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_spec()
        cache.put(spec, spec.execute())
        changed = dataclasses.replace(spec, config=SystemConfig(num_banks=11))
        assert cache.get(changed) is MISS

    def test_verified_entry_serves_unverified_request_but_not_vice_versa(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        verified_spec = _tiny_spec(verify=True)
        unverified_spec = _tiny_spec(verify=False)
        cache.put(unverified_spec, unverified_spec.execute())
        assert cache.get(verified_spec) is MISS  # can't upgrade to verified
        cache.put(verified_spec, verified_spec.execute())
        hit = cache.get(unverified_spec)  # downgrade is fine
        assert hit is not MISS and hit.verified is True

    def test_multi_engine_result_survives_warm_cache_reload(self, tmp_path):
        """A 2-engine run's per-engine breakdown must come back bit-identical
        from a *fresh* cache instance reading the on-disk entry — the warm
        path a second CLI invocation takes."""
        spec = _tiny_spec(config=SystemConfig(num_engines=2))
        result = spec.execute()
        assert result.engines is not None and len(result.engines) == 2
        ResultCache(tmp_path).put(spec, result)

        reloaded = ResultCache(tmp_path).get(spec)  # cold instance, warm disk
        assert reloaded is not MISS
        assert reloaded == result
        assert reloaded.engines == result.engines
        # The aggregate equals its parts after the round-trip too.
        from repro.vector.engine import EngineResult
        assert reloaded.engine == EngineResult.aggregate(
            reloaded.engines, reloaded.cycles)
        # And the JSON on disk is canonical: a second encode is a fixpoint.
        assert system_run_result_to_dict(reloaded) == \
            system_run_result_to_dict(result)

    def test_miss_on_version_bump(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_spec()
        cache.put(spec, spec.execute())
        bumped = dataclasses.replace(spec, version="0.0.0-test")
        assert cache.get(bumped) is MISS

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_spec()
        cache.put(spec, spec.execute())
        cache.path_for(spec).write_text("not json")
        assert cache.get(spec) is MISS
        assert cache.stats.errors == 1
        # The damaged file was moved aside, not silently left in place.
        assert cache.stats.corrupt == 1
        assert not cache.path_for(spec).exists()
        assert cache.corrupt_entries() == 1
        assert "1 quarantined" in cache.stats.summary()
        cache.path_for(spec).write_text("[1, 2]")  # valid JSON, not an entry
        assert cache.get(spec) is MISS
        cache.path_for(spec).write_bytes(b"\xff\xfe")  # invalid UTF-8
        assert cache.get(spec) is MISS
        assert cache.stats.corrupt == 3
        assert cache.prune() == 1  # and prune removes the sidecar

    def test_quarantined_entry_heals_on_next_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_spec()
        result = spec.execute()
        cache.put(spec, result)
        # Truncate mid-file, as a crashed disk or the corrupt-cache fault
        # would: the key quarantines, then the re-store heals it.
        path = cache.path_for(spec)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get(spec) is MISS
        assert cache.corrupt_entries() == 1
        cache.put(spec, result)
        assert cache.get(spec) == result
        assert cache.corrupt_entries() == 1  # sidecar still there as evidence
        assert cache.clear() == 2  # entry + sidecar
        assert cache.corrupt_entries() == 0

    def test_clear_and_prune_sweep_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "interrupted-write.tmp").write_text("partial")
        assert cache.clear() == 1
        (tmp_path / "interrupted-write.tmp").write_text("partial")
        assert cache.prune() == 1

    def test_falsy_results_are_still_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = UtilizationSpec.strided(elem_bits=32, stride_elems=0, num_banks=17)
        cache.put(spec, 0.0)
        assert cache.get(spec) == 0.0

    def test_prune_removes_other_versions(self, tmp_path):
        old = ResultCache(tmp_path, version="0.9.0")
        spec = _tiny_spec()
        old.put(spec, spec.execute())
        current = ResultCache(tmp_path)
        assert current.prune() == 1
        assert len(current) == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_spec()
        cache.put(spec, spec.execute())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_stats_summary(self):
        stats = CacheStats(hits=2, misses=1, stores=1)
        assert "2 hits" in stats.summary()


class TestParallelRunner:
    def test_parallel_matches_serial(self):
        specs = [_tiny_spec(kind=kind) for kind in SystemKind]
        serial = ParallelRunner(jobs=1).run(specs)
        parallel = ParallelRunner(jobs=2).run(specs)
        assert [r.cycles for r in serial] == [r.cycles for r in parallel]
        assert [r.kind for r in parallel] == list(SystemKind)
        assert all(r.verified for r in parallel)

    def test_cache_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_tiny_spec(kind=kind) for kind in SystemKind]
        first = ParallelRunner(jobs=1, cache=cache).run(specs)
        second = ParallelRunner(jobs=2, cache=cache).run(specs)
        assert [r.cycles for r in first] == [r.cycles for r in second]
        assert cache.stats.hits == 3 and cache.stats.stores == 3

    def test_progress_callback_sees_every_spec(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        specs = [_tiny_spec(kind=kind) for kind in SystemKind]
        runner = ParallelRunner(jobs=1, cache=cache, progress=events.append)
        runner.run(specs)
        runner.run(specs)
        assert len(events) == 6
        assert [e.done for e in events] == [1, 2, 3, 1, 2, 3]
        assert [e.cached for e in events] == [False] * 3 + [True] * 3
        assert all(e.total == 3 for e in events)
        assert "(cache)" in events[-1].render()

    def test_jobs_zero_means_cpu_count(self):
        assert ParallelRunner(jobs=0).jobs >= 1
        assert ParallelRunner(jobs=None).jobs >= 1

    @pytest.mark.parametrize("where", ["future", "second-submit"])
    def test_pool_breaking_under_work_is_a_worker_loss(self, monkeypatch, where):
        # A pool that breaks after accepting work is a worker loss, not a
        # platform without pools: no serial fallback, the batch fails.
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.orchestrate import parallel as parallel_module

        class BreakingExecutor:
            def __init__(self, max_workers):
                self.submits = 0

            def submit(self, fn, spec):
                self.submits += 1
                future = Future()
                if where == "future":
                    future.set_exception(BrokenProcessPool("worker died"))
                elif self.submits > 1:
                    raise BrokenProcessPool("worker died")
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", BreakingExecutor)
        runner = ParallelRunner(jobs=2)
        with pytest.raises(SpecFailedError) as failed:
            runner.run([StubSpec(n) for n in range(3)])
        assert [f["status"] for f in failed.value.failures] == ["worker-lost"] * 2
        assert [o.status for o in runner.outcomes] == \
            ["worker-lost", "worker-lost", "pending"]
        assert runner._executor is None and not runner._pool_unavailable

    def test_pool_breaking_during_submit_degrades_to_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.orchestrate import parallel as parallel_module

        class FlakySubmitExecutor:
            def __init__(self, max_workers):
                self.calls = 0

            def submit(self, fn, spec):
                self.calls += 1
                raise BrokenProcessPool("worker spawn failed")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            FlakySubmitExecutor)
        specs = [_tiny_spec(kind=kind) for kind in SystemKind]
        runner = ParallelRunner(jobs=2)
        results = runner.run(specs)
        assert [r.cycles for r in results] == \
            [r.cycles for r in ParallelRunner(jobs=1).run(specs)]
        assert runner._pool_unavailable

    def test_pool_is_reused_across_batches(self):
        specs = [_tiny_spec(kind=kind) for kind in SystemKind]
        with ParallelRunner(jobs=2) as runner:
            runner.run(specs)
            first_pool = runner._executor
            runner.run(specs)
            assert first_pool is not None
            assert runner._executor is first_pool
        assert runner._executor is None  # closed on exit


class TestRunnerFailures:
    """Timeouts, lost workers and Ctrl-C end in records, not hangs."""

    def test_hung_spec_times_out(self, tmp_path):
        specs = [StubSpec(n, "hang" if n == 0 else "ok") for n in range(4)]
        runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                                timeout_s=1.0)
        started = time.monotonic()
        with pytest.raises(SpecFailedError) as failed:
            runner.run(specs)
        assert time.monotonic() - started < 5.0
        [failure] = failed.value.failures
        assert failure["label"] == "stub/0" and failure["status"] == "timeout"
        assert "1s per-spec timeout" in failure["error"]
        assert runner._executor is None
        statuses = [outcome.status for outcome in runner.outcomes]
        assert statuses[0] == "timeout"
        assert set(statuses[1:]) <= {"completed", "pending"}
        # Rerun to resume: only what the aborted batch did not cache runs.
        results, cache = _rerun_healthy(tmp_path, len(specs))
        assert results == [0.0, 1.0, 2.0, 3.0]
        assert cache.stats.hits == statuses.count("completed")
        assert cache.stats.stores == len(specs) - cache.stats.hits

    def test_killed_worker_marks_in_flight_specs_lost(self, tmp_path):
        specs = [StubSpec(n, "die" if n == 0 else "ok") for n in range(4)]
        # The timeout turns a missed worker loss into a failure, not a hang.
        runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                                timeout_s=30.0)
        with pytest.raises(SpecFailedError) as failed:
            runner.run(specs)
        failures = failed.value.failures
        assert "stub/0" in [failure["label"] for failure in failures]
        assert {failure["status"] for failure in failures} == {"worker-lost"}
        assert runner._executor is None
        results, cache = _rerun_healthy(tmp_path, len(specs))
        assert results == [0.0, 1.0, 2.0, 3.0]
        completed = [o.status for o in runner.outcomes].count("completed")
        assert cache.stats.hits == completed
        assert cache.stats.stores == len(specs) - completed

    def test_spec_error_propagates_unchanged(self):
        with ParallelRunner(jobs=2) as runner:
            with pytest.raises(ValueError, match="stub 1 failed"):
                runner.run([StubSpec(0), StubSpec(1, "raise")])
        record = runner.outcomes[1].to_json()
        assert record["status"] == "error"
        assert record["error"] == "ValueError: stub 1 failed"

    def test_keyboard_interrupt_kills_pool_and_keeps_cache(self, tmp_path):
        def interrupt(event):
            if not event.cached:
                raise KeyboardInterrupt

        specs = [StubSpec(n) for n in range(4)]
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=2, cache=cache, progress=interrupt)
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
        assert runner._executor is None
        assert len(cache) == 1  # stored before the progress callback fired
        _results, rerun_cache = _rerun_healthy(tmp_path, len(specs))
        assert rerun_cache.stats.hits == 1 and rerun_cache.stats.stores == 3

    def test_journal_records_cached_and_completed(self, tmp_path):
        specs = [StubSpec(0), StubSpec(1)]
        with ParallelRunner(jobs=2, cache=ResultCache(tmp_path),
                            timeout_s=30.0) as runner:
            runner.run(specs)
            runner.run(specs)
        journal = json.loads(json.dumps(runner.journal()))
        assert journal["journal_schema"] == 2 and journal["timeout_s"] == 30.0
        records = journal["specs"]
        assert [r["status"] for r in records] == ["completed"] * 2 + ["cached"] * 2
        assert [r["source"] for r in records] == ["pool"] * 2 + ["cache"] * 2
        assert [r["label"] for r in records] == ["stub/0", "stub/1"] * 2
        assert [r["key"] for r in records] == [s.cache_key() for s in specs] * 2
        assert all(r["duration_s"] >= 0 and "error" not in r for r in records)

    def test_cli_reports_lost_worker_and_exits_4(self, fork_pool, monkeypatch,
                                                 capsys, tmp_path):
        from repro.orchestrate import spec as spec_module

        victim = RunSpec(
            workload=WorkloadSpec.create("gemv", size=16, dataflow="col"),
            kind=SystemKind.PACK, verify=True,
        ).cache_key()
        original = spec_module.RunSpec.execute

        def die_on_victim(self):
            if self.cache_key() == victim:
                _exit_worker()
            return original(self)

        monkeypatch.setattr(spec_module.RunSpec, "execute", die_on_victim)
        journal_path = tmp_path / "journal.json"
        assert main(["run", "fig3b", "--scale", "tiny", "--jobs", "2",
                     "--journal", str(journal_path)]) == 4
        assert "error: gemv/pack: worker-lost" in capsys.readouterr().err
        records = json.loads(journal_path.read_text())["specs"]
        [lost] = [r for r in records if r["key"] == victim]
        assert lost["status"] == "worker-lost"

        assert main(["sweep", "fig3b", "--scale", "tiny", "--jobs", "2",
                     "--no-cache", "--json"]) == 4
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert victim in [failure["key"] for failure in failures]


class TestRunnerIntegration:
    def test_compare_systems_accepts_workload_spec(self):
        via_spec = compare_systems(WorkloadSpec.create("gemv", size=16))
        via_factory = compare_systems(lambda: make_workload("gemv", size=16))
        assert via_spec.pack.cycles == via_factory.pack.cycles
        assert via_spec.base.cycles == via_factory.base.cycles

    def test_compare_systems_many_orders_and_keys(self):
        specs = [WorkloadSpec.create("gemv", size=16),
                 WorkloadSpec.create("ismt", size=16)]
        comparisons = compare_systems_many(specs, runner=ParallelRunner(jobs=2))
        assert list(comparisons) == ["gemv", "ismt"]
        assert comparisons["ismt"].pack_speedup > 0

    def test_compare_systems_many_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            compare_systems_many([WorkloadSpec.create("gemv", size=16),
                                  WorkloadSpec.create("gemv", size=32)])


class TestSweep:
    def test_expand_all_and_dedupe(self):
        from repro.analysis.experiments import EXPERIMENTS

        assert expand_sweep(["fig3a", "fig3a", "fig5c"]) == ["fig3a", "fig5c"]
        assert expand_sweep(["all"]) == sorted(EXPERIMENTS)

    def test_expand_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            expand_sweep(["fig99"])
        with pytest.raises(ConfigurationError):
            expand_sweep([])

    def test_run_sweep_returns_tables_in_order(self):
        tables = run_sweep(["fig5c", "fig4b"])
        assert list(tables) == ["fig5c", "fig4b"]
        assert tables["fig5c"].experiment == "fig5c"

    def test_sweep_dedupes_across_experiments_without_persistent_cache(
            self, monkeypatch):
        from repro.orchestrate import spec as spec_module

        calls = []
        original = spec_module.RunSpec.execute

        def counting_execute(self):
            calls.append(self.cache_key())
            return original(self)

        monkeypatch.setattr(spec_module.RunSpec, "execute", counting_execute)
        from repro.orchestrate.cache import MemoryCache

        runner = ParallelRunner(jobs=1, cache=MemoryCache())
        tables = run_sweep(["fig3a", "fig4c"], scale="tiny", runner=runner)
        assert list(tables) == ["fig3a", "fig4c"]
        # fig4c reuses fig3a's 18 runs via the in-memory cache.
        assert len(calls) == 18
        assert runner.cache.stats.hits == 18

    def test_run_sweep_leaves_caller_runner_untouched(self):
        runner = ParallelRunner(jobs=1)
        run_sweep(["fig5c"], runner=runner)
        assert runner.cache is None


class TestCliOrchestration:
    def test_sweep_caches_across_invocations(self, capsys, tmp_path):
        argv = ["sweep", "fig3b", "--scale", "tiny",
                "--cache-dir", str(tmp_path), "--jobs", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first and "6 stored" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "6 hits, 0 misses" in second

    def test_sweep_no_cache_writes_nothing(self, capsys, tmp_path):
        assert main(["sweep", "fig3b", "--scale", "tiny", "--no-cache",
                     "--cache-dir", str(tmp_path), "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        # intra-sweep dedup still reports, but only in memory: no disk writes
        assert "in-memory" in out
        assert list(tmp_path.glob("*.json")) == []

    def test_sweep_unknown_experiment_fails_cleanly(self, capsys, tmp_path):
        assert main(["sweep", "fig99", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_progress_lines(self, capsys, tmp_path):
        assert main(["sweep", "fig3b", "--scale", "tiny", "--no-cache",
                     "--cache-dir", str(tmp_path), "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[6/6]" in err and "gemv" in err

    def test_run_accepts_jobs_flag(self, capsys):
        assert main(["run", "fig4b", "--jobs", "2"]) == 0
        assert "fig4b" in capsys.readouterr().out

    def test_cache_dir_implies_cache_for_run(self, capsys, tmp_path):
        assert main(["run", "fig3b", "--scale", "tiny",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "6 stored" in capsys.readouterr().out
        assert main(["run", "fig3b", "--scale", "tiny", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_workloads_with_jobs_and_cache(self, capsys, tmp_path):
        argv = ["workloads", "--size", "12", "--no-verify", "--jobs", "2",
                "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The full 7-workload registry x 3 systems = 21 runs.
        assert "speedup" in out and "21 stored" in out
        assert main(argv) == 0
        assert "21 hits" in capsys.readouterr().out

    def test_cache_subcommand(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:   0" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "removed 0" in capsys.readouterr().out
