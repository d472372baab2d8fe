"""The log-structured result cache: segments, discovery, maintenance.

Contract: one ``put_many`` publishes one immutable segment atomically;
readers find records through an in-process index that a miss refreshes
from segments other processes published, without listing the directory
on every miss; every read is verified; ``stats``/``prune`` account for
old-layout files and rewrite a segment only when they drop records.
"""

import gzip
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.montecarlo import montecarlo_jobs
from repro.runner import CampaignRunner, ResultCache, SystemRef, execute_job
from repro.runner import cache as cache_module

from .cache_helpers import find_record, replace_record, segment_files

SRC = Path(__file__).resolve().parents[1] / "src"


def analytic_jobs(samples: int = 4, k: int = 2):
    return montecarlo_jobs(
        SystemRef.baseline4(), "rc", k, samples, seed=0, metric="reachability"
    )


def pairs(jobs):
    return [(job, execute_job(job)) for job in jobs]


class TestSegments:
    def test_one_campaign_run_writes_one_segment(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = analytic_jobs(6)
        cold = CampaignRunner(cache=cache).run(jobs)
        assert cold.executed == 6
        assert len(segment_files(cache)) == 1
        warm = CampaignRunner(cache=ResultCache(tmp_path)).run(jobs)
        assert warm.cache_hits == 6 and warm.executed == 0
        assert warm.results == cold.results
        assert len(segment_files(cache)) == 1  # a pure replay writes nothing

    def test_failed_only_batch_writes_nothing(self, tmp_path):
        from repro.runner import JobResult

        cache = ResultCache(tmp_path)
        job = analytic_jobs(1)[0]
        failed = JobResult(job_key=job.key(), ok=False, error="boom")
        assert cache.put_many([(job, failed)]) == 0
        assert not (tmp_path / "segments").exists()

    def test_deleting_a_segment_turns_its_gets_into_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = analytic_jobs(3)
        cache.put_many(pairs(jobs))
        assert cache.get(jobs[0]) is not None
        (segment,) = segment_files(cache)
        segment.unlink()
        assert [cache.get(job) for job in jobs] == [None] * 3
        assert cache.corrupt == 3
        assert cache.stats().entries == 0

    def test_garbled_framing_keeps_the_records_before_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, second = analytic_jobs(2)
        cache.put_many(pairs([first, second]))
        _, raw = find_record(cache, second)
        replace_record(cache, second, b"\xff" * 64 + raw[64:])
        reader = ResultCache(tmp_path)
        assert reader.get(first) is not None
        assert reader.get(second) is None
        stats = reader.stats()
        assert (stats.entries, stats.corrupt) == (1, 1)

    def test_writers_in_one_forked_family_never_share_names(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        cache = ResultCache(tmp_path)
        first, second = analytic_jobs(2)
        cache.put(first, execute_job(first))
        child = multiprocessing.get_context("fork").Process(
            target=cache.put, args=(second, execute_job(second))
        )
        child.start()
        child.join(30)
        assert child.exitcode == 0
        assert len(segment_files(cache)) == 2
        reader = ResultCache(tmp_path)
        assert reader.get(first) is not None and reader.get(second) is not None


WRITER = """
import sys
from repro.montecarlo import montecarlo_jobs
from repro.runner import ResultCache, SystemRef, execute_job
root, k = sys.argv[1], int(sys.argv[2])
jobs = montecarlo_jobs(SystemRef.baseline4(), "rc", k, 3, seed=0, metric="reachability")
ResultCache(root).put_many((job, execute_job(job)) for job in jobs)
"""


class TestDiscovery:
    def test_two_writer_processes_are_found_by_a_third(self, tmp_path):
        reader = ResultCache(tmp_path)
        ones, twos = analytic_jobs(3, k=1), analytic_jobs(3, k=2)
        seed = analytic_jobs(1, k=3)[0]
        ResultCache(tmp_path).put(seed, execute_job(seed))
        assert reader.get(ones[0]) is None  # lists one writer's folder
        env = dict(os.environ, PYTHONPATH=str(SRC))
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER, str(tmp_path), str(k)], env=env
            )
            for k in (1, 2)
        ]
        assert [proc.wait(timeout=120) for proc in writers] == [0, 0]
        assert len(segment_files(reader)) == 3
        for job in ones + twos:
            hit = reader.get(job)
            assert hit is not None and hit == execute_job(job)

    def test_rename_hidden_by_a_restored_mtime_is_found(self, tmp_path):
        """A coarse clock can leave the directory mtime where the reader's
        last listing saw it; a miss inside the window still looks again."""
        writer, reader = ResultCache(tmp_path), ResultCache(tmp_path)
        first, second = analytic_jobs(2)
        writer.put(first, execute_job(first))
        assert reader.get(second) is None  # lists segments/
        listed = os.stat(tmp_path / "segments")
        writer.put(second, execute_job(second))
        os.utime(tmp_path / "segments", ns=(listed.st_atime_ns, listed.st_mtime_ns))
        assert os.stat(tmp_path / "segments").st_mtime_ns == listed.st_mtime_ns
        assert reader.get(second) is not None

    def test_misses_on_a_quiet_directory_do_not_list_it(self, tmp_path, monkeypatch):
        writer, reader = ResultCache(tmp_path), ResultCache(tmp_path)
        first, second = analytic_jobs(2)
        writer.put(first, execute_job(first))
        old = time.time_ns() - 10 * 10**9
        os.utime(tmp_path / "segments", ns=(old, old))
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            cache_module.os, "listdir",
            lambda path: listings.append(path) or real_listdir(path),
        )
        assert reader.get(second) is None  # the first look lists
        first_look = len(listings)
        assert first_look > 0
        for _ in range(5):
            assert reader.get(second) is None
        assert len(listings) == first_look  # one stat each, no listing
        writer.put(second, execute_job(second))  # moves the mtime
        assert reader.get(second) is not None
        assert len(listings) == first_look + 1  # segments/ only: a probe found it

    def test_refresh_indexes_other_writers(self, tmp_path):
        reader = ResultCache(tmp_path)
        job = analytic_jobs(1)[0]
        assert not reader.refresh() and not reader.indexed(job.key())
        ResultCache(tmp_path).put(job, execute_job(job))
        assert not reader.indexed(job.key())  # no I/O: not seen until a look
        assert reader.refresh()
        assert reader.indexed(job.key())


class TestMaintenance:
    def test_old_layout_files_are_stale_and_pruned(self, tmp_path):
        job = analytic_jobs(1)[0]
        key = job.key()
        payload = {"version": 1, "job": job.canonical(),
                   "result": execute_job(job).to_dict()}
        (tmp_path / key[:2]).mkdir()
        (tmp_path / key[:2] / f"{key}.json").write_text(json.dumps(payload))
        (tmp_path / "zz").mkdir()
        (tmp_path / "zz" / f"{'f' * 64}.json.gz").write_bytes(
            gzip.compress(json.dumps(payload).encode())
        )
        (tmp_path / "zz" / "dead.tmp").write_text("partial")
        cache = ResultCache(tmp_path)
        assert cache.get(job) is None  # no read path for the old layout
        stats = cache.stats()
        assert (stats.entries, stats.stale, stats.tmp_files) == (0, 2, 1)
        removed = cache.prune()
        assert (removed.stale, removed.tmp_files) == (2, 1)
        assert not any(path.is_dir() for path in tmp_path.iterdir())

    def test_prune_rewrites_a_segment_only_when_it_drops_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = analytic_jobs(3)
        cache.put_many(pairs(jobs))
        (segment,) = segment_files(cache)
        stamp = time.time_ns() - 5 * 86_400 * 10**9
        os.utime(segment, ns=(stamp, stamp))

        # Nothing to drop: the segment is left exactly as it is.
        assert cache.prune().entries == 0
        assert segment_files(cache) == [segment]

        _, raw = find_record(cache, jobs[1])
        replace_record(cache, jobs[1], raw[:-10] + b"{not json\n")
        os.utime(segment, ns=(stamp, stamp))
        removed = cache.prune()
        assert (removed.corrupt, removed.entries) == (1, 0)
        (rewritten,) = segment_files(cache)
        assert rewritten != segment
        assert rewritten.stat().st_mtime_ns == stamp  # keeps its write time
        for reader in (cache, ResultCache(tmp_path)):
            assert reader.get(jobs[0]) is not None
            assert reader.get(jobs[2]) is not None
        assert cache.stats().entries == 2

        # The survivors still age by their original write time.
        assert cache.prune(older_than_days=3).entries == 2
        assert segment_files(cache) == []

    def test_duplicate_copies_count_once_and_are_pruned(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = analytic_jobs(1)[0]
        result = execute_job(job)
        cache.put(job, result)
        ResultCache(tmp_path).put(job, result)
        assert len(segment_files(cache)) == 2
        assert cache.stats().entries == 1
        cache.prune()
        assert len(segment_files(cache)) == 1
        assert ResultCache(tmp_path).get(job) == result
