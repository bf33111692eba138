"""The one parallel fold: range cutting, ordering and the worker bound."""

import multiprocessing
import operator
from types import SimpleNamespace

import pytest

import hooklab.cli as cli
import hooklab.hookformula as hf
import hooklab.kerov as kv
import hooklab.parallel as par
from hooklab.parallel import fold_chunks


def _range_of(args):
    lo, hi = args
    return [(lo, hi)]


def _assert_covers(ranges, total):
    assert ranges[0][0] == 0 and ranges[-1][1] == total
    for (lo, hi), (nxt, _) in zip(ranges, ranges[1:]):
        assert hi == nxt
    assert all(lo < hi for lo, hi in ranges)


@pytest.mark.parametrize("total", [1, 7, 8, 9, 100])
def test_one_worker_runs_the_whole_range(total):
    assert fold_chunks(_range_of, (), total, 1, operator.add) == [(0, total)]


@pytest.mark.parametrize("total", [1, 7, 8, 9, 100])
def test_two_workers_fold_contiguous_ranges_in_order(total, monkeypatch):
    monkeypatch.setattr(par.os, "cpu_count", lambda: 2)
    ranges = fold_chunks(_range_of, (), total, 2, operator.add)
    _assert_covers(ranges, total)
    assert len(ranges) == min(total, 8)


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the process pool; records the size and the multiprocessing
    context of every pool started."""
    started = SimpleNamespace(sizes=[], contexts=[])

    class FakeExecutor:
        def __init__(self, max_workers, mp_context):
            started.sizes.append(max_workers)
            started.contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(par, "ProcessPoolExecutor", FakeExecutor)
    return started


@pytest.mark.parametrize(
    "cpus, workers, total, started",
    [
        (3, 1000, 100, [3]),  # capped at the CPU count
        (3, 3, 2, [2]),  # capped at the number of ranges
        (3, 4, 1, []),  # one range: in-process
        (None, 4, 100, []),  # unknown CPU count counts as one
        (8, 1, 100, []),  # one worker asked for
    ],
)
def test_worker_count_is_bounded(fake_pool, monkeypatch, cpus, workers, total, started):
    monkeypatch.setattr(par.os, "cpu_count", lambda: cpus)
    ranges = fold_chunks(_range_of, (), total, workers, operator.add)
    assert fake_pool.sizes == started
    _assert_covers(ranges, total)


@pytest.mark.parametrize("platform, method", [("linux", "fork"), ("darwin", None)])
def test_start_method_is_fork_on_linux(fake_pool, monkeypatch, platform, method):
    monkeypatch.setattr(par.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(par.sys, "platform", platform)
    fold_chunks(_range_of, (), 8, 2, operator.add)
    assert fake_pool.contexts == [multiprocessing.get_context(method)]


def test_small_sweeps_start_no_pool(fake_pool, monkeypatch):
    monkeypatch.setattr(par.os, "cpu_count", lambda: 4)
    hf.cayley_degree_identity(2, threads=4)
    assert fake_pool.sizes == []
    lhs, rhs = hf.cayley_degree_identity(4, threads=4)
    assert fake_pool.sizes == [4] and lhs == rhs
    mu = kv.IntPartition((3, 2))  # 4! long cycles: under POOL_THRESHOLD
    assert kv.count_factorizations(mu, threads=4) == kv.factorization_count_closed_form(mu)
    assert fake_pool.sizes == [4]


def test_theorem1_starts_no_pool_but_cayley_does(fake_pool, monkeypatch):
    monkeypatch.setattr(par.os, "cpu_count", lambda: 2)
    assert cli.main(["verify", "theorem1", "--r", "8", "--threads", "2"]) == 0
    assert fake_pool.sizes == []
    # cayley_count is 1, 3 and 16 at r = 2, 3, 4: one range cannot be split
    assert cli.main(["verify", "cayley", "--r", "4", "--threads", "2"]) == 0
    assert fake_pool.sizes == [2, 2]
