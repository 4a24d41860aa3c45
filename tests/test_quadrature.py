"""Node blocks: the split, the order of the joined results, the caller's
floating-point context and exceptions on the thread pool; and the radial
rule's one node count per segment."""

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ahmass import quadrature
from ahmass.quadrature import NODE_BLOCK, map_node_blocks, radial_rule


@pytest.fixture
def pooled(monkeypatch):
    """Blocks on a pool of two workers, whatever the machine's CPU count."""
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: 2)
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(quadrature, "_node_pool", pool)
    yield
    pool.shutdown()


def test_blocks_join_in_node_order(pooled):
    count = 2 * NODE_BLOCK + 37
    seen = []

    def fn(rows):
        seen.append((rows.start, rows.stop))
        nodes = np.arange(rows.start, rows.stop)
        return nodes, np.stack([nodes, -nodes], axis=1)

    nodes, pairs = map_node_blocks(fn, count)
    assert sorted(seen) == [(0, NODE_BLOCK), (NODE_BLOCK, 2 * NODE_BLOCK),
                            (2 * NODE_BLOCK, count)]
    assert np.array_equal(nodes, np.arange(count))
    assert np.array_equal(pairs, np.stack([nodes, -nodes], axis=1))


def test_blocks_run_under_the_callers_errstate(pooled):
    def fn(rows):
        m = rows.stop - rows.start
        return (np.ones(m) / np.zeros(m),)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(divide="ignore"):
            (out,) = map_node_blocks(fn, 3 * NODE_BLOCK)
        assert np.all(np.isinf(out))
        # outside the errstate the same division warns, from a worker thread
        with pytest.raises(RuntimeWarning):
            map_node_blocks(fn, 3 * NODE_BLOCK)


def test_a_block_error_reaches_the_caller_unchanged(pooled):
    error = ArithmeticError("not finite in one block")

    def fn(rows):
        if rows.start == NODE_BLOCK:
            raise error
        return (np.zeros(rows.stop - rows.start),)

    with pytest.raises(ArithmeticError) as caught:
        map_node_blocks(fn, 3 * NODE_BLOCK)
    assert caught.value is error


def test_one_usable_cpu_runs_the_blocks_inline(monkeypatch):
    import threading
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: 1)
    threads = set()

    def fn(rows):
        threads.add(threading.current_thread())
        return (np.arange(rows.start, rows.stop),)

    (nodes,) = map_node_blocks(fn, 2 * NODE_BLOCK + 1)
    assert threads == {threading.current_thread()}
    assert np.array_equal(nodes, np.arange(2 * NODE_BLOCK + 1))


def test_radial_rule_needs_a_count_per_segment():
    r, _ = radial_rule([1.0, 2.0, 3.0], [4, 5])
    assert r.size == 9 and 1.0 < r.min() and r.max() < 3.0
    # 4 segments with 3 counts: the outer segment is not dropped silently
    with pytest.raises(ValueError):
        radial_rule([1.0, 2.0, 3.0, 4.0, 5.0], [4, 4, 4])
