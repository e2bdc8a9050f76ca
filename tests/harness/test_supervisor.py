"""Supervision layer: retry/backoff, timeouts, chaos, checkpoint/resume."""

import pytest

from repro.harness import configs
from repro.harness.journal import SweepJournal, spec_fingerprint
from repro.harness.parallel import JobResult, JobSpec, run_jobs
from repro.harness.supervisor import (
    ChaosPlan,
    SupervisorConfig,
    _advance,
    _Job,
    _Supervisor,
    run_supervised,
)
from repro.telemetry import MetricRegistry


def _ra_spec(key, variant="hv-sorting", **kwargs):
    return JobSpec(
        key, "ra", configs.test_workload_params("ra"), variant,
        num_locks=64, **kwargs
    )


def _counters(registry):
    return registry.as_dict()["counters"]


def _no_sleep(_):
    raise AssertionError("supervisor slept on a path that must not back off")


def _tuple_executor(spec):
    """Module-level custom executor returning a bare (non-JobResult) value."""
    return ("done", spec.key)


def _explode(spec):
    raise RuntimeError("executor ran for %r but every job was journaled" % spec.key)


def _lambda_executor(spec):
    """Module-level executor whose result cannot cross the worker pipe."""
    return lambda: spec.key


class TestHappyPath:
    def test_results_identical_to_unsupervised(self):
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        plain = run_jobs(specs, jobs=1)
        registry = MetricRegistry()
        supervised = run_supervised(
            specs, jobs=1, config=SupervisorConfig(max_retries=3),
            metrics=registry, sleep=_no_sleep,
        )
        assert [r.key for r in supervised] == [r.key for r in plain]
        assert [r.run.cycles for r in supervised] == [r.run.cycles for r in plain]
        assert [r.run.commits for r in supervised] == [r.run.commits for r in plain]

    def test_counters_exact_on_clean_sweep(self):
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        registry = MetricRegistry()
        run_supervised(specs, jobs=1, metrics=registry, sleep=_no_sleep)
        counters = _counters(registry)
        assert counters["supervisor.jobs.total"] == 2
        assert counters["supervisor.jobs.executed"] == 2
        assert counters["supervisor.jobs.succeeded"] == 2
        assert counters["supervisor.first_attempt_successes"] == 2
        assert counters["supervisor.attempts"] == 2
        assert "supervisor.retries" not in counters
        assert "supervisor.jobs.failed" not in counters

    def test_run_jobs_routes_to_supervisor(self):
        specs = [_ra_spec("one")]
        registry = MetricRegistry()
        results = run_jobs(specs, jobs=1, supervise=dict(max_retries=1),
                           metrics=registry)
        assert not results[0].failed
        assert _counters(registry)["supervisor.jobs.total"] == 1


class TestRetry:
    def test_transient_chaos_error_is_retried_to_success(self):
        specs = [_ra_spec("flaky"), _ra_spec("calm")]
        plain = run_jobs(specs, jobs=1)
        plan = ChaosPlan().add("flaky", "error")
        registry = MetricRegistry()
        delays = []
        results = run_supervised(
            specs, jobs=1, config=SupervisorConfig(max_retries=2),
            chaos=plan, metrics=registry, sleep=delays.append,
        )
        assert not any(r.failed for r in results)
        assert [r.run.cycles for r in results] == [r.run.cycles for r in plain]
        counters = _counters(registry)
        assert counters["supervisor.retries"] == 1
        # the acceptance identity: every job is either a first-attempt
        # success or accounted for by a retry
        assert (counters["supervisor.first_attempt_successes"]
                + counters["supervisor.retries"]) == counters["supervisor.jobs.total"]
        assert len(delays) == 1 and delays[0] > 0

    def test_retries_exhausted_is_structured_failure(self):
        plan = ChaosPlan().add("flaky", "error", attempts=(0, 1, 2, 3, 4))
        registry = MetricRegistry()
        results = run_supervised(
            [_ra_spec("flaky")], jobs=1,
            config=SupervisorConfig(max_retries=2, backoff_base=0),
            chaos=plan, metrics=registry,
        )
        failure = results[0].failure
        assert results[0].failed
        assert failure.category == "transient"
        assert failure.transient
        assert failure.attempts == 3  # 1 + max_retries
        counters = _counters(registry)
        assert counters["supervisor.jobs.failed"] == 1
        assert counters["supervisor.failures.transient"] == 1
        assert counters["supervisor.retries"] == 2

    def test_backoff_is_deterministic_and_capped(self):
        config = SupervisorConfig(backoff_base=0.5, backoff_cap=2.0, jitter=0.5)
        fp = "deadbeef" * 8
        first = config.backoff_delay(fp, 1)
        assert first == config.backoff_delay(fp, 1)
        assert 0.5 <= first <= 0.75
        # attempt 10 is capped at backoff_cap plus at most jitter of it
        assert config.backoff_delay(fp, 10) <= 2.0 * 1.5


class TestWatchdogClassification:
    def test_livelocked_unsorted_run_is_not_retried(self):
        # the section 2.2 strawman under a tight simulated-cycle budget:
        # the watchdog trips with all stuck lanes still stepping, the
        # failure is classified `livelock`, and — because replaying a
        # deterministic simulation replays the livelock — it is NOT
        # retried despite max_retries
        registry = MetricRegistry()
        results = run_supervised(
            [_ra_spec("doomed", variant="unsorted")], jobs=1,
            config=SupervisorConfig(max_retries=3, cycle_budget=200),
            metrics=registry, sleep=_no_sleep,
        )
        failure = results[0].failure
        assert results[0].failed
        assert failure.category == "livelock"
        assert not failure.transient
        assert failure.attempts == 1
        counters = _counters(registry)
        assert "supervisor.retries" not in counters
        assert counters["supervisor.timeouts.cycle"] == 1
        assert counters["supervisor.failures.livelock"] == 1

    def test_warp_stall_transient_is_retried_and_succeeds(self):
        # a chaos-armed warp_stall fault (plus a tight step budget) fails
        # the first attempt as transient; the clean retry must converge
        # to the same result as an undisturbed run
        spec = _ra_spec("stalled")
        plain = run_jobs([_ra_spec("stalled")], jobs=1)[0]
        plan = ChaosPlan().add(
            "stalled", "fault",
            faults=["warp_stall:sm=0,warp=0,after=5,duration=1000000"],
            gpu_overrides=dict(max_steps=2000),
        )
        registry = MetricRegistry()
        results = run_supervised(
            [spec], jobs=1,
            config=SupervisorConfig(max_retries=2, backoff_base=0),
            chaos=plan, metrics=registry,
        )
        assert not results[0].failed
        assert results[0].run.cycles == plain.run.cycles
        assert results[0].run.commits == plain.run.commits
        counters = _counters(registry)
        assert counters["supervisor.retries"] == 1
        assert counters["supervisor.jobs.succeeded"] == 1

    def test_cycle_budget_overlays_max_steps(self):
        registry = MetricRegistry()
        results = run_supervised(
            [_ra_spec("budgeted")], jobs=1,
            config=SupervisorConfig(cycle_budget=50), metrics=registry,
        )
        failure = results[0].failure
        assert results[0].failed
        assert failure.category in ("livelock", "deadlock")
        assert _counters(registry)["supervisor.timeouts.cycle"] == 1

    def test_explicit_gpu_override_wins_over_cycle_budget(self):
        spec = _ra_spec("explicit", gpu_overrides=dict(max_steps=2_000_000))
        results = run_supervised(
            [spec], jobs=1, config=SupervisorConfig(cycle_budget=50),
        )
        assert not results[0].failed


class TestChaosGuards:
    def test_serial_mode_rejects_process_chaos(self):
        plan = ChaosPlan().add("k", "sigkill")
        with pytest.raises(ValueError, match="worker processes"):
            run_supervised([_ra_spec("k")], jobs=1, chaos=plan)

    def test_unknown_chaos_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosPlan().add("k", "meteor-strike")


class TestCustomExecutor:
    def test_bare_results_count_as_success(self):
        specs = [_ra_spec("a"), _ra_spec("b")]
        registry = MetricRegistry()
        results = run_supervised(
            specs, jobs=1, executor=_tuple_executor, metrics=registry,
        )
        assert results == [("done", "a"), ("done", "b")]
        assert _counters(registry)["supervisor.jobs.succeeded"] == 2


class TestJournalResume:
    def test_resume_skips_completed_jobs_bit_identically(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        first = run_supervised(specs, jobs=1, journal=path)
        # resume with an executor that refuses to run: every job must be
        # served from the journal, and the merged output must match
        registry = MetricRegistry()
        resumed = run_supervised(
            specs, jobs=1, journal=path, executor=_explode, metrics=registry,
        )
        counters = _counters(registry)
        assert counters["supervisor.jobs.resumed"] == 2
        assert counters["supervisor.jobs.executed"] == 0
        assert "supervisor.attempts" not in counters
        assert [r.key for r in resumed] == [r.key for r in first]
        assert [r.run.cycles for r in resumed] == [r.run.cycles for r in first]
        assert [r.run.stats for r in resumed] == [r.run.stats for r in first]

    def test_partial_journal_reruns_only_missing_jobs(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        full = run_supervised(specs, jobs=1)
        with SweepJournal(path) as journal:
            journal.record(spec_fingerprint(specs[0]), specs[0].key, full[0])
        registry = MetricRegistry()
        resumed = run_supervised(specs, jobs=1, journal=path, metrics=registry)
        counters = _counters(registry)
        assert counters["supervisor.jobs.resumed"] == 1
        assert counters["supervisor.jobs.executed"] == 1
        assert [r.run.cycles for r in resumed] == [r.run.cycles for r in full]

    def test_failed_jobs_are_journaled_too(self, tmp_path):
        # a deterministic failure is durable: resuming does not re-run it
        path = str(tmp_path / "sweep.journal")
        spec = _ra_spec("doomed", variant="unsorted")
        config = SupervisorConfig(cycle_budget=200)
        first = run_supervised([spec], jobs=1, config=config, journal=path)
        assert first[0].failed
        registry = MetricRegistry()
        resumed = run_supervised(
            [spec], jobs=1, config=config, journal=path,
            executor=_explode, metrics=registry,
        )
        assert _counters(registry)["supervisor.jobs.resumed"] == 1
        assert resumed[0].failed
        assert resumed[0].failure.category == "livelock"

    def test_cycle_budget_changes_invalidate_journal_entries(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        spec = _ra_spec("one")
        run_supervised([spec], jobs=1, journal=path)
        registry = MetricRegistry()
        run_supervised(
            [spec], jobs=1, journal=path,
            config=SupervisorConfig(cycle_budget=2_000_000),
            metrics=registry,
        )
        # the budget is overlaid before fingerprinting, so the budget-less
        # journal entry must not be reused
        counters = _counters(registry)
        assert "supervisor.jobs.resumed" not in counters
        assert counters["supervisor.jobs.executed"] == 1


@pytest.mark.slow
class TestProcessMode:
    def test_sigkilled_worker_is_retried_as_worker_lost(self):
        specs = [_ra_spec("victim"), _ra_spec("bystander")]
        plain = run_jobs(specs, jobs=1)
        plan = ChaosPlan().add("victim", "sigkill")
        registry = MetricRegistry()
        results = run_supervised(
            specs, jobs=2,
            config=SupervisorConfig(max_retries=2, backoff_base=0.01,
                                    backoff_cap=0.05),
            chaos=plan, metrics=registry,
        )
        assert not any(r.failed for r in results)
        assert [r.run.cycles for r in results] == [r.run.cycles for r in plain]
        assert _counters(registry)["supervisor.retries"] >= 1

    def test_hung_worker_is_reaped_at_wall_timeout(self):
        specs = [_ra_spec("sleeper")]
        plan = ChaosPlan().add("sleeper", "hang", hang_seconds=60.0)
        registry = MetricRegistry()
        results = run_supervised(
            specs, jobs=2,
            config=SupervisorConfig(wall_timeout=3.0, max_retries=1,
                                    backoff_base=0.01, backoff_cap=0.05),
            chaos=plan, metrics=registry,
        )
        assert not results[0].failed
        counters = _counters(registry)
        assert counters["supervisor.timeouts.wall"] == 1
        assert counters["supervisor.retries"] == 1

    def test_unpicklable_result_is_terminal_not_retried(self):
        registry = MetricRegistry()
        results = run_supervised(
            [_ra_spec("opaque")], jobs=2,
            config=SupervisorConfig(max_retries=2, backoff_base=0),
            executor=_lambda_executor, metrics=registry,
        )
        failure = results[0].failure
        assert results[0].failed
        assert failure.category == "unpicklable"
        assert "'opaque'" in failure.message
        counters = _counters(registry)
        assert "supervisor.retries" not in counters
        assert counters["supervisor.failures.unpicklable"] == 1

    def test_pool_results_match_serial_supervised(self):
        specs = [_ra_spec(("ra", v), variant=v)
                 for v in ("cgl", "hv-sorting", "optimized")]
        serial = run_supervised(specs, jobs=1)
        pooled = run_supervised(specs, jobs=2)
        assert [r.key for r in pooled] == [r.key for r in serial]
        assert [r.run.cycles for r in pooled] == [r.run.cycles for r in serial]


class _FakeConn:
    """A worker pipe whose ``poll()`` answers from a script."""

    def __init__(self, polls, result=None):
        self.polls = list(polls)
        self.result = result
        self.closed = False

    def poll(self):
        return self.polls.pop(0)

    def recv(self):
        return self.result

    def close(self):
        self.closed = True


class _DeadProc:
    exitcode = 0

    def is_alive(self):
        return False

    def join(self):
        pass


class TestPoolReaping:
    """The pool's per-attempt check, driven with a scripted pipe."""

    def _advance(self, conn):
        registry = MetricRegistry()
        sup = _Supervisor(SupervisorConfig(max_retries=2), None, None, None,
                          registry, _no_sleep)
        sup.results = [None]
        job = _Job(0, _ra_spec("job"), "0123abcd")
        sup.start_attempt(job)
        queue = []
        record = {"job": job, "proc": _DeadProc(), "conn": conn, "deadline": None}
        assert _advance(sup, record, 0.0, queue) is False
        assert conn.closed
        return sup, queue, _counters(registry)

    def test_result_sent_just_before_exit_is_not_worker_lost(self):
        """The worker sent its result and exited between the first poll and
        the liveness check: the result is taken, not retried."""
        result = JobResult("job")
        sup, queue, counters = self._advance(_FakeConn([False, True], result))
        assert sup.results == [result]
        assert queue == []
        assert counters["supervisor.jobs.succeeded"] == 1
        assert "supervisor.failures.worker-lost" not in counters

    def test_dead_worker_without_result_is_retried_as_worker_lost(self):
        sup, queue, counters = self._advance(_FakeConn([False, False]))
        assert sup.results == [None]
        assert [job.index for job in queue] == [0]
        assert "supervisor.jobs.succeeded" not in counters
