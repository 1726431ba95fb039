"""Property tests for the shared-memory transport layer.

Two contracts carry the process backend's byte-identity guarantee:

* :class:`~repro.detailed.deltas.OverlayDelta` must survive its canonical
  payload form losslessly — operation *order* included, because the
  merge loop replays ops in overlay insertion order;
* :class:`~repro.parallel.SharedStateChannel` must deliver every
  published array bit-exactly and every journal frame exactly once, in
  order, across epoch gaps and journal regrowth — and must never leak
  a segment, on success or error paths alike
  (:func:`repro.parallel.active_segments`).
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

# The module-wide leak-check fixture is function-scoped; it wraps the
# whole hypothesis test (all examples), which is exactly the guarantee
# we want here — suppress the per-example health check.
relaxed = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

from repro.detailed.deltas import OverlayDelta
from repro.parallel import (
    SharedArraySpec,
    SharedStateChannel,
    active_segments,
)

# ----------------------------------------------------------------------
# OverlayDelta payload round-trip
# ----------------------------------------------------------------------
nodes = st.tuples(
    st.integers(0, 3), st.integers(0, 200), st.integers(0, 200)
)
owners = st.one_of(st.none(), st.text(min_size=1, max_size=8))


def deltas():
    return st.builds(
        OverlayDelta,
        ops=st.lists(st.tuples(nodes, owners), max_size=40),
        read_nodes=st.sets(nodes, max_size=40),
        write_nodes=st.sets(nodes, max_size=40),
        cost_evaluations=st.integers(0, 10**9),
    )


class TestOverlayDeltaRoundTrip:
    @relaxed
    @given(delta=deltas())
    def test_payload_round_trip_is_lossless(self, delta):
        back = OverlayDelta.from_payload(delta.to_payload())
        assert back.ops == delta.ops  # order preserved, not just content
        assert back.read_nodes == delta.read_nodes
        assert back.write_nodes == delta.write_nodes
        assert back.cost_evaluations == delta.cost_evaluations

    @relaxed
    @given(delta=deltas())
    def test_payload_survives_pickle(self, delta):
        # The payload is what actually crosses the process boundary.
        wire = pickle.loads(pickle.dumps(delta.to_payload()))
        back = OverlayDelta.from_payload(wire)
        assert back == delta

    @relaxed
    @given(delta=deltas())
    def test_payload_is_canonical(self, delta):
        # Same delta, same payload — footprint set iteration order
        # must never show through.
        rebuilt = OverlayDelta.from_payload(delta.to_payload())
        assert rebuilt.to_payload() == delta.to_payload()


# ----------------------------------------------------------------------
# SharedStateChannel
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def no_segment_leaks():
    assert active_segments() == frozenset()
    yield
    assert active_segments() == frozenset()


SPECS = (
    SharedArraySpec(key="demand", shape=(7, 5), dtype="<f8"),
    SharedArraySpec(key="history", shape=(3, 4, 2), dtype="<i8"),
)


def fill(seed):
    rng = np.random.default_rng(seed)
    return {
        "demand": rng.random((7, 5)),
        "history": rng.integers(0, 1000, (3, 4, 2), dtype=np.int64),
    }


class TestChannelLifecycle:
    def test_owner_close_unlinks_everything(self):
        channel = SharedStateChannel.create("test", SPECS)
        assert active_segments()  # segments exist while live
        channel.close()
        assert active_segments() == frozenset()

    def test_close_is_idempotent(self):
        channel = SharedStateChannel.create("test", SPECS)
        channel.close()
        channel.close()
        channel.unlink()

    def test_create_failure_cleans_up_partial_segments(self):
        bad = (SharedArraySpec(key="bad", shape=(-1,), dtype="<f8"),)
        with pytest.raises(ValueError):
            SharedStateChannel.create("test", bad)
        assert active_segments() == frozenset()

    def test_consumer_close_leaves_owner_segments(self):
        channel = SharedStateChannel.create("test", SPECS)
        try:
            consumer = SharedStateChannel.attach(channel.handle)
            consumer.close()
            assert active_segments()  # owner still live
        finally:
            channel.close()

    def test_side_restrictions(self):
        channel = SharedStateChannel.create("test", SPECS)
        try:
            consumer = SharedStateChannel.attach(channel.handle)
            with pytest.raises(RuntimeError, match="worker-side"):
                channel.sync()
            with pytest.raises(RuntimeError, match="owner-side"):
                consumer.publish({})
            consumer.close()
        finally:
            channel.close()


class TestChannelTransport:
    def test_arrays_arrive_bit_exact(self):
        channel = SharedStateChannel.create("test", SPECS)
        consumer = SharedStateChannel.attach(channel.handle)
        try:
            sent = fill(seed=1)
            channel.publish(sent, b"frame-0")
            synced = consumer.sync()
            assert synced is not None
            arrays, frames = synced
            for key, value in sent.items():
                assert np.array_equal(arrays[key], value)
            assert frames == [b"frame-0"]
        finally:
            consumer.close()
            channel.close()

    def test_unchanged_epoch_syncs_to_none(self):
        channel = SharedStateChannel.create("test", SPECS)
        consumer = SharedStateChannel.attach(channel.handle)
        try:
            channel.publish(fill(seed=2), b"once")
            assert consumer.sync() is not None
            assert consumer.sync() is None  # nothing new
        finally:
            consumer.close()
            channel.close()

    def test_multi_epoch_catch_up_delivers_every_frame_in_order(self):
        channel = SharedStateChannel.create("test", SPECS)
        consumer = SharedStateChannel.attach(channel.handle)
        try:
            expected = [f"frame-{i}".encode() for i in range(5)]
            for i, frame in enumerate(expected):
                channel.publish(fill(seed=i), frame)
            synced = consumer.sync()
            assert synced is not None
            arrays, frames = synced
            assert frames == expected  # oldest first, none dropped
            assert np.array_equal(arrays["demand"], fill(seed=4)["demand"])
        finally:
            consumer.close()
            channel.close()

    def test_journal_growth_past_initial_capacity(self):
        # Each frame is bigger than the whole initial 64 KiB journal,
        # so every publish forces a new generation; the consumer must
        # follow the regrowth and still read every frame intact.
        channel = SharedStateChannel.create("test", ())
        consumer = SharedStateChannel.attach(channel.handle)
        try:
            big = [bytes([i]) * (1 << 17) for i in range(3)]
            channel.publish({}, big[0])
            synced = consumer.sync()
            assert synced is not None and synced[1] == [big[0]]
            channel.publish({}, big[1])
            channel.publish({}, big[2])
            synced = consumer.sync()
            assert synced is not None and synced[1] == big[1:]
        finally:
            consumer.close()
            channel.close()

    def test_publish_counters_accumulate(self):
        channel = SharedStateChannel.create("test", SPECS)
        try:
            channel.publish(fill(seed=0), b"x")
            channel.publish(fill(seed=1), b"yy")
            assert channel.publishes == 2
            assert channel.published_bytes > 0
        finally:
            channel.close()

    @settings(
        parent=relaxed, max_examples=20
    )
    @given(frames=st.lists(st.binary(max_size=2048), max_size=12))
    def test_any_frame_sequence_round_trips(self, frames):
        channel = SharedStateChannel.create("prop", ())
        consumer = SharedStateChannel.attach(channel.handle)
        try:
            for frame in frames:
                channel.publish({}, frame)
            synced = consumer.sync()
            if frames:
                assert synced is not None
                assert synced[1] == frames
            else:
                assert synced is None
        finally:
            consumer.close()
            channel.close()
        assert active_segments() == frozenset()
