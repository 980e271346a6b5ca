"""Tests of the benchmark's own rules: percentiles, self time, the
accounting identity and the computed IPC volume.

Run with ``python3 -m pytest perfbench -q`` from the repository root,
and the multiprocessing check with ``-m multiproc``.
"""

import pickle
from collections import Counter
from multiprocessing.reduction import ForkingPickler

import pytest

from perfbench import checks, inputs, programs, spans, stats


# -- the percentile rule and the sample count -------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.beyond(1000, 99.0) == 10
    assert stats.supported(1000, 99.0)
    assert stats.beyond(999, 99.0) == 9
    assert not stats.supported(999, 99.0)
    assert stats.percentile(list(range(1000)), 99.0) == 989


def test_spread_is_iqr_over_median():
    row = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert row["median"] == 3.0
    assert row["q1"] == 1.5 and row["q3"] == 4.5
    assert row["iqr_share"] == pytest.approx(1.0)


# -- self time on a synthetic span tree -----------------------------------------


class _Ticker:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Inner:
    def work(self, items):
        return len(items)


class _Outer:
    def __init__(self, inner):
        self.inner = inner

    def run(self):
        return self.inner.work([1, 2]) + self.inner.work([3])


def test_self_time_subtracts_children():
    tracer = spans.Tracer(clock=_Ticker())
    inner = _Inner()
    outer = _Outer(inner)
    tracer.wrap(outer, "run", "control", "control.step")
    tracer.wrap(inner, "work", "runtime", "runtime.drain", 0)
    tracer.begin()  # t=0
    assert outer.run() == 3  # outer 1..6, inner 2..3 and 4..5
    tracer.finish()  # t=7
    result = tracer.aggregate()
    groups = result["groups"]
    assert groups[("runtime", "runtime.drain")] == [2, 3, 2.0]
    assert groups[("control", "control.step")] == [1, 1, 3.0]
    assert result["wall"] == 7.0
    assert result["root_self"] == 2.0
    assert tracer.parent == [spans.ROOT, 0, 0]


def test_aggregate_handles_deep_trees():
    groups = [("a", "a"), ("b", "b")]
    # root -> 0 (0..10) -> 1 (1..9) -> 2 (2..3); 2 is group a again
    result = spans.aggregate(
        groups,
        [0, 1, 0],
        [0.0, 1.0, 2.0],
        [10.0, 9.0, 3.0],
        [-1, 0, 1],
        [1, 1, 1],
        12.0,
    )
    assert result["groups"][("a", "a")] == [2, 2, 2.0 + 1.0]
    assert result["groups"][("b", "b")] == [1, 1, 7.0]
    assert result["root_self"] == 2.0


# -- the accounting identity ------------------------------------------------------


def _counts(**overrides):
    counts = {key: 0 for key in checks.OUTCOMES}
    counts.update(inputs=0, planted=0, delivered=0)
    counts.update(overrides)
    return counts


def test_accounting_identity_on_synthetic_counts():
    counts = _counts(
        inputs=10, drained=6, dropped=1, discarded=1, rejected=2, planted=2
    )
    assert checks.accounting_gap(counts) == 0
    assert checks.check(counts, Counter(), Counter()) == (0, [])
    counts["drained"] = 5
    failed, problems = checks.check(counts, Counter(), Counter())
    assert failed == 1 and problems[0].startswith("accounting")


def test_planted_rejections_and_multisets_are_checked():
    counts = _counts(inputs=3, drained=2, rejected=1, planted=2)
    failed, problems = checks.check(counts, Counter({"a": 1}), Counter({"a": 2}))
    assert checks.accounting_gap(counts) == 0
    assert failed == 2  # one planted payload let through, one row missing
    assert any("planted" in p for p in problems)
    assert any("multiset" in p for p in problems)


def test_accounting_holds_on_an_edge_replay():
    edge = inputs.edge_inputs(3)
    replay = programs.EdgeProgram(edge).replay(edge)
    counts = replay.counts
    assert counts["inputs"] == sum(len(tick.payloads) for tick in edge.ticks)
    assert checks.accounting_gap(counts) == 0
    assert counts["rejected"] == edge.planted > 0
    assert counts["dropped"] > 0
    reference = programs.EdgeProgram(edge, interpreted=True).replay(edge)
    assert checks.check(counts, replay.rows(), reference.rows()) == (0, [])


# -- computed IPC bytes on a tiny input ---------------------------------------------


class _CountingPipe:
    """The coordinator's end of a shard worker's pipe, counting the
    pickled bytes of every message each way and every reply."""

    def __init__(self, conn):
        self._conn = conn
        self.bytes = 0
        self.replies = 0

    def send(self, message):
        raw = ForkingPickler.dumps(message)
        self.bytes += len(raw)
        self._conn.send_bytes(raw)

    def recv(self):
        raw = self._conn.recv_bytes()
        self.bytes += len(raw)
        self.replies += 1
        return pickle.loads(raw)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _drive(engine):
    """A few datums through every shard-handle call."""
    from repro.core.data import Datum, Kind

    def datum(target, n):
        return Datum(
            kind=Kind.POSITION_WGS84,
            payload={"ap": float(n), "rssi_dbm": -60.0 - n},
            timestamp=float(n),
            attributes={"format": inputs.WIFI_FORMAT, "target": target},
        )

    targets = ("dev-1", "dev-2", "dev-3")
    for n, target in enumerate(targets):
        engine.track(target, programs.EDGE_SOURCE, shard=n % 2)
    engine.set_policy("dev-1", capacity=4)
    engine.submit("dev-1", datum("dev-1", 1))
    engine.submit_batch(
        [(target, datum(target, n)) for n, target in enumerate(targets, 2)]
    )
    engine.drain_round()
    engine.submit("dev-3", datum("dev-3", 5))
    engine.migrate_target("dev-3", 1)
    engine.ingestion_lanes()
    engine.drain_all()
    engine.untrack("dev-2")


@pytest.mark.multiproc
def test_ipc_count_equals_the_multiprocessing_pipes():
    from repro.runtime.sharding import ShardedEngine

    with ShardedEngine(programs.edge_recipe, 2, executor="inprocess") as twin:
        counter = spans.IpcCounter()
        counter.attach(twin)
        _drive(twin)
    assert set(counter.calls) == set(spans.HANDLE_METHODS)
    with ShardedEngine(programs.edge_recipe, 2, executor="multiprocessing") as real:
        pipes = []
        for shard in real.shards():
            shard._conn = _CountingPipe(shard._conn)
            pipes.append(shard._conn)
        _drive(real)
        sent = sum(pipe.bytes for pipe in pipes)
        replies = sum(pipe.replies for pipe in pipes)
    assert counter.bytes == sent
    assert counter.round_trips == replies
