"""Unit tests for topology, links, and the transfer ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import NetworkError
from repro.net import GBE_1, IB_QDR, Node, NodeKind, TransferLedger
from repro.net.topology import Transfer


class TestLinkProfiles:
    def test_gbe_payload_rate(self):
        # 1 Gb/s at 90% efficiency = 112.5 MB/s
        assert GBE_1.bytes_per_s == pytest.approx(112.5e6)

    def test_ib_faster_than_gbe(self):
        assert IB_QDR.bytes_per_s > 10 * GBE_1.bytes_per_s

    def test_transfer_time_scales_with_bytes(self):
        assert GBE_1.transfer_time(2_000_000) > GBE_1.transfer_time(1_000_000)

    def test_transfer_time_includes_latency(self):
        assert GBE_1.transfer_time(0) == pytest.approx(GBE_1.latency_s)

    def test_streams_share_bandwidth(self):
        one = GBE_1.transfer_time(10_000_000, streams=1)
        four = GBE_1.transfer_time(10_000_000, streams=4)
        assert four > 3 * one

    def test_negative_size_rejected(self):
        with pytest.raises(NetworkError):
            GBE_1.transfer_time(-1)

    def test_100mb_diff_multicasts_in_seconds_on_gbe(self):
        """Section 3.2: an O(100 MB) diff takes no more than a couple of
        seconds on commodity 1 GbE."""
        assert GBE_1.transfer_time(100 << 20) < 2.0


class TestLedger:
    def test_record_and_query(self):
        ledger = TransferLedger()
        ledger.record("s1", "c1", 1000, "boot-read")
        ledger.record("s1", "c2", 500, "boot-read")
        ledger.record("c1", "s1", 200, "upload")
        assert ledger.bytes_into("c1") == 1000
        assert ledger.bytes_out_of("s1") == 1500
        assert ledger.total_bytes() == 1700

    def test_purpose_filter(self):
        ledger = TransferLedger()
        ledger.record("s1", "c1", 1000, "boot-read")
        ledger.record("s1", "c1", 111, "cache-propagation")
        assert ledger.bytes_into("c1", purpose="boot-read") == 1000
        assert ledger.bytes_into("c1", purpose="cache-propagation") == 111

    def test_compute_ingress(self):
        ledger = TransferLedger()
        compute = [Node(f"c{i}", NodeKind.COMPUTE) for i in range(3)]
        for node in compute:
            ledger.record("s1", node.name, 100, "boot-read")
        ledger.record("s1", "other", 999, "boot-read")
        assert ledger.compute_ingress_bytes(compute) == 300

    def test_compute_ingress_accepts_names(self):
        ledger = TransferLedger()
        ledger.record("s1", "c0", 100, "boot-read")
        assert ledger.compute_ingress_bytes(["c0"]) == 100

    def test_negative_rejected(self):
        ledger = TransferLedger()
        with pytest.raises(NetworkError):
            ledger.record("a", "b", -1, "x")

    def test_clear(self):
        ledger = TransferLedger()
        ledger.record("a", "b", 10, "x")
        ledger.clear()
        assert ledger.total_bytes() == 0

    def test_fanout_matches_per_receiver_record(self):
        # the batched path a 10k-node multicast takes must be
        # indistinguishable from per-receiver record() calls
        fanout, scalar = TransferLedger(), TransferLedger()
        dsts = [f"c{i}" for i in range(5)]
        fanout.record_fanout("s1", dsts, 1000, "cache-propagation", 0.25)
        for dst in dsts:
            scalar.record("s1", dst, 1000, "cache-propagation", 0.25)
        assert fanout.transfers == scalar.transfers
        assert fanout.bytes_out_of("s1") == scalar.bytes_out_of("s1") == 5000
        for dst in dsts:
            assert fanout.bytes_into(dst) == scalar.bytes_into(dst)
            assert fanout.bytes_into(
                dst, purpose="cache-propagation"
            ) == scalar.bytes_into(dst, purpose="cache-propagation")
        assert fanout.total_bytes() == scalar.total_bytes()
        assert fanout.total_bytes(purpose="cache-propagation") == 5000

    def test_fanout_negative_rejected(self):
        ledger = TransferLedger()
        with pytest.raises(NetworkError):
            ledger.record_fanout("a", ["b"], -1, "x")

    def test_fanout_is_one_entry(self):
        ledger = TransferLedger()
        dsts = [f"c{i}" for i in range(64)]
        ledger.record_fanout("s1", dsts, 10, "cache-propagation")
        ledger.record("s1", "c0", 5, "boot-read")
        assert len(ledger.entries) == 2
        assert ledger.entries[0] == ("s1", tuple(dsts), 10, "cache-propagation", 0.0)
        assert len(ledger.transfers) == 65
        assert list(ledger.transfers)[-1] == Transfer("s1", "c0", 5, "boot-read")


class ReferenceLedger:
    """The per-receiver ledger semantics, as a plain list of rows."""

    def __init__(self):
        self.rows = []

    def record(self, src, dst, n_bytes, purpose, duration_s=0.0):
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        self.rows.append(Transfer(src, dst, n_bytes, purpose, duration_s))

    def record_fanout(self, src, dsts, n_bytes, purpose, duration_s=0.0):
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        for dst in dsts:
            self.rows.append(Transfer(src, dst, n_bytes, purpose, duration_s))

    def clear(self):
        self.rows.clear()

    def _sum(self, keep):
        return sum(t.n_bytes for t in self.rows if keep(t))

    def bytes_into(self, name, purpose):
        return self._sum(
            lambda t: t.dst == name and purpose in (None, t.purpose)
        )

    def bytes_out_of(self, name, purpose):
        return self._sum(
            lambda t: t.src == name and purpose in (None, t.purpose)
        )

    def total_bytes(self, purpose):
        return self._sum(lambda t: purpose in (None, t.purpose))

    def compute_ingress_bytes(self, names, purpose):
        return sum(self.bytes_into(name, purpose) for name in set(names))


_NAMES = ("s0", "s1", "c0", "c1", "c2", "c3")
_PURPOSES = ("boot-read", "cache-propagation")
#: fixed, overlapping receiver sets so fan-outs repeat a set often
_FLEETS = (("c0", "c1", "c2"), ("c1", "c2"), ("c0", "c1", "c2", "c3"))
_sizes = st.integers(min_value=-1, max_value=1 << 40)
_ledger_ops = st.one_of(
    st.tuples(
        st.just("record"), st.sampled_from(_NAMES), st.sampled_from(_NAMES),
        _sizes, st.sampled_from(_PURPOSES), st.sampled_from((0.0, 0.5)),
    ),
    st.tuples(
        st.just("record_fanout"), st.sampled_from(_NAMES),
        st.one_of(
            st.sampled_from(_FLEETS),
            st.lists(st.sampled_from(_NAMES), max_size=5),
        ),
        _sizes, st.sampled_from(_PURPOSES), st.sampled_from((0.0, 0.25)),
    ),
    st.tuples(st.just("clear")),
    st.tuples(st.just("query"), st.booleans()),
)


def _assert_ingress_agrees(ledger, reference, purpose):
    for fleet in _FLEETS + (_NAMES,):
        assert ledger.compute_ingress_bytes(list(fleet), purpose=purpose) == (
            reference.compute_ingress_bytes(fleet, purpose)
        )
    nodes = [Node(name, NodeKind.COMPUTE) for name in _FLEETS[0]]
    assert ledger.compute_ingress_bytes(nodes, purpose=purpose) == (
        reference.compute_ingress_bytes(_FLEETS[0], purpose)
    )


def _assert_ledgers_agree(ledger, reference, ingress_first=False):
    # either query kind may be the first after a fan-out, and each must
    # fold the pending tally itself
    for purpose in _PURPOSES + (None,):
        if ingress_first:
            _assert_ingress_agrees(ledger, reference, purpose)
        for name in _NAMES:
            assert ledger.bytes_into(name, purpose=purpose) == (
                reference.bytes_into(name, purpose)
            )
            assert ledger.bytes_out_of(name, purpose=purpose) == (
                reference.bytes_out_of(name, purpose)
            )
        assert ledger.total_bytes(purpose=purpose) == reference.total_bytes(purpose)
        _assert_ingress_agrees(ledger, reference, purpose)
    assert len(ledger.transfers) == len(reference.rows)
    assert list(ledger.transfers) == reference.rows
    assert ledger.transfers == reference.rows


class TestLedgerEquivalence:
    """The grouped ledger answers every query exactly like a ledger that
    keeps one row per receiver, whatever the interleaving of records,
    fan-outs (repeated and overlapping receiver sets), clears and the
    queries that fold pending fan-outs."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_ledger_ops, max_size=30))
    def test_matches_per_receiver_reference(self, ops):
        ledger, reference = TransferLedger(), ReferenceLedger()
        for op in ops:
            kind, args = op[0], op[1:]
            if kind == "query":
                _assert_ledgers_agree(ledger, reference, *args)
            elif kind == "clear":
                ledger.clear()
                reference.clear()
            else:
                n_bytes = args[2]
                if n_bytes < 0:
                    with pytest.raises(NetworkError, match="negative"):
                        getattr(ledger, kind)(*args)
                    with pytest.raises(NetworkError, match="negative"):
                        getattr(reference, kind)(*args)
                else:
                    getattr(ledger, kind)(*args)
                    getattr(reference, kind)(*args)
        _assert_ledgers_agree(ledger, reference)
