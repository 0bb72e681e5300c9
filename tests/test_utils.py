"""Utility helpers: varints, byte ops, timers."""

import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    StageTimer,
    Stopwatch,
    bytes_to_int,
    ceil_div,
    decode_uvarint,
    encode_uvarint,
    int_to_bytes,
    xor_bytes,
)
from repro.utils.varint import decode_vectors, encode_vectors


class TestVarint:
    @given(st.integers(0, 2**63 - 1))
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        decoded, offset = decode_uvarint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_single_byte_values(self):
        assert encode_uvarint(0) == b"\x00"
        assert encode_uvarint(127) == b"\x7f"

    def test_multi_byte_boundary(self):
        assert encode_uvarint(128) == b"\x80\x01"

    def test_offset_decoding(self):
        data = b"\xff" + encode_uvarint(300)
        value, offset = decode_uvarint(data, 1)
        assert value == 300
        assert offset == len(data)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_rejects_truncated(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80")

    def test_rejects_overlong(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80" * 11 + b"\x01")

    @given(st.lists(st.lists(st.integers(0, 2**40))))
    def test_vectors_roundtrip_at_an_offset(self, vectors):
        data = b"\xff" + encode_vectors(vectors)
        assert decode_vectors(data, 1) == (vectors, len(data))

    def test_truncated_vectors_rejected(self):
        data = encode_vectors([[1, 300], [7]])
        for end in range(len(data)):
            with pytest.raises(ValueError):
                decode_vectors(data[:end])


class TestBytesUtil:
    def test_xor(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_xor_self_is_zero(self):
        assert xor_bytes(b"abc", b"abc") == b"\x00\x00\x00"

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"a", b"ab")

    @given(st.integers(0, 2**64 - 1))
    def test_int_bytes_roundtrip(self, value):
        assert bytes_to_int(int_to_bytes(value, 8)) == value

    def test_int_to_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1, 4)

    @pytest.mark.parametrize(
        "n,d,expected", [(0, 5, 0), (1, 5, 1), (5, 5, 1), (6, 5, 2)]
    )
    def test_ceil_div(self, n, d, expected):
        assert ceil_div(n, d) == expected

    def test_ceil_div_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(5, 0)


class TestTimers:
    def test_stage_accumulation(self):
        timer = StageTimer()
        with timer.stage("a"):
            time.sleep(0.01)
        with timer.stage("a"):
            pass
        assert timer.total("a") >= 0.01
        assert timer.total("missing") == 0.0

    def test_stage_records_on_exception(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("x"):
                raise RuntimeError("boom")
        assert timer.total("x") >= 0.0
        assert "x" in timer.totals()

    def test_manual_add(self):
        timer = StageTimer()
        timer.add("s", 1.0)
        timer.add("s", 2.0)
        timer.add("t", 3.0)
        assert timer.total("s") == 3.0
        assert timer.totals() == {"s": 3.0, "t": 3.0}

    def test_concurrent_adds_are_not_lost(self):
        """Worker threads charge one timer; no update may be lost."""
        timer = StageTimer()
        start = threading.Barrier(8)

        def charge():
            start.wait()
            for _ in range(2000):
                timer.add("encryption", 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=charge) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timer.total("encryption") == 16000.0

    def test_reset(self):
        timer = StageTimer()
        timer.add("s", 1.0)
        timer.reset()
        assert timer.totals() == {}

    def test_stopwatch(self):
        watch = Stopwatch()
        time.sleep(0.01)
        first = watch.elapsed()
        assert first >= 0.01
        watch.restart()
        assert watch.elapsed() < first
