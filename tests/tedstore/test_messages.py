"""Wire protocol: framing and message serialization."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.tedstore import messages as m
from repro.utils.varint import encode_uvarint


def _loop_reader(data: bytes):
    """recv_exact over an in-memory buffer."""
    state = {"pos": 0}

    def recv(n):
        start = state["pos"]
        if start + n > len(data):
            raise m.ProtocolError("short read")
        state["pos"] = start + n
        return data[start : start + n]

    return recv


class TestFraming:
    def test_roundtrip(self):
        framed = m.frame(m.MSG_OK, b"payload")
        message_type, payload = m.read_frame(_loop_reader(framed))
        assert message_type == m.MSG_OK
        assert payload == b"payload"

    def test_empty_payload(self):
        framed = m.frame(m.MSG_OK, b"")
        message_type, payload = m.read_frame(_loop_reader(framed))
        assert (message_type, payload) == (m.MSG_OK, b"")

    def test_rejects_zero_length(self):
        with pytest.raises(m.ProtocolError):
            m.read_frame(_loop_reader(b"\x00\x00\x00\x00"))

    def test_rejects_oversized_frame(self):
        header = (m.MAX_MESSAGE_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(m.ProtocolError):
            m.read_frame(_loop_reader(header))

    def test_rejects_truncated_body(self):
        # Header promises 10 body bytes; the stream ends after 4.
        framed = (10).to_bytes(4, "big") + b"\x06abc"
        with pytest.raises(m.ProtocolError):
            m.read_frame(_loop_reader(framed))

    def test_busy_frame_roundtrip(self):
        framed = m.frame(m.MSG_BUSY, m.encode_error("server busy"))
        message_type, payload = m.read_frame(_loop_reader(framed))
        assert message_type == m.MSG_BUSY
        assert m.decode_error(payload) == "server busy"

    def test_message_type_codes_are_unique(self):
        codes = [
            value
            for name, value in vars(m).items()
            if name.startswith("MSG_")
        ]
        assert len(codes) == len(set(codes))


class TestKeyGenMessages:
    def test_request_roundtrip(self):
        request = m.KeyGenRequest(hash_vectors=[[1, 2, 3, 4], [5, 6, 7, 8]])
        assert m.KeyGenRequest.decode(request.encode()) == request

    def test_empty_request(self):
        request = m.KeyGenRequest()
        assert m.KeyGenRequest.decode(request.encode()) == request

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
            max_size=20,
        )
    )
    def test_request_roundtrip_property(self, vectors):
        request = m.KeyGenRequest(hash_vectors=vectors)
        assert m.KeyGenRequest.decode(request.encode()) == request

    def test_response_roundtrip(self):
        response = m.KeyGenResponse(seeds=[b"s1", b"s2" * 16], current_t=42)
        assert m.KeyGenResponse.decode(response.encode()) == response

    def test_decode_rejects_trailing_bytes(self):
        payload = m.KeyGenRequest(hash_vectors=[[1]]).encode() + b"extra"
        with pytest.raises(m.ProtocolError):
            m.KeyGenRequest.decode(payload)

    def test_decode_rejects_truncated_blob(self):
        payload = m.KeyGenResponse(seeds=[b"seed"], current_t=1).encode()
        with pytest.raises((m.ProtocolError, ValueError)):
            m.KeyGenResponse.decode(payload[:-3])

    # Wire bytes pinned for fixed inputs, so the shared hash-vector
    # codec cannot drift: an empty vector, multi-byte varints and a
    # 2**21 - 1 short hash.
    _VECTORS = [[1, 2, 300, 2**21 - 1], [], [0, 127, 128, 16384]]
    _VECTOR_BYTES = "03040102ac02ffff7f0004007f8001808001"

    @pytest.mark.parametrize(
        "message, golden",
        [
            (m.KeyGenRequest(hash_vectors=_VECTORS), _VECTOR_BYTES),
            (m.KeyGenRequest(hash_vectors=[]), "00"),
            (
                m.BatchedKeyGenRequest(sequence=7, hash_vectors=_VECTORS),
                "07" + _VECTOR_BYTES,
            ),
            (
                m.ShardObserveRequest(
                    client_id="front", sequence=300, hash_vectors=_VECTORS
                ),
                "0566726f6e74ac02" + _VECTOR_BYTES,
            ),
        ],
    )
    def test_hash_vector_messages_golden_bytes(self, message, golden):
        assert message.encode().hex() == golden
        assert type(message).decode(bytes.fromhex(golden)) == message

    def test_batched_request_golden_bytes_at_the_varint_edges(self):
        # One- to ten-byte varints, 2**64 - 1 included, and an empty
        # vector; frozen from the per-value encoder.
        request = m.BatchedKeyGenRequest(
            sequence=300,
            hash_vectors=[
                [0, 127, 128, 2**21 - 1],
                [16383, 16384, 2**32, 2**64 - 1],
                [],
                [5],
            ],
        )
        golden = (
            "ac020404007f8001ffff7f04ff7f8080018080808010"
            "ffffffffffffffffff01000105"
        )
        assert request.encode().hex() == golden
        assert m.BatchedKeyGenRequest.decode(bytes.fromhex(golden)) == request


class TestHostileVectors:
    """``_Reader.vectors`` fails typed on hostile payloads, allocating by
    what the payload holds, never by what it claims."""

    @staticmethod
    def _vectors(payload):
        """Decode, with the peak allocation bounded by 64 KiB."""
        tracemalloc.start()
        try:
            return m._Reader(payload).vectors()
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 64 * 1024

    def test_huge_count_in_twelve_bytes(self):
        payload = encode_uvarint(2**40) + b"\x01\x07" * 3
        assert len(payload) == 12
        with pytest.raises(m.ProtocolError, match="truncated varint"):
            self._vectors(payload)

    def test_huge_length_in_a_short_payload(self):
        payload = b"\x01" + encode_uvarint(2**40) + b"\x05" * 5
        with pytest.raises(m.ProtocolError, match="truncated varint"):
            self._vectors(payload)

    def test_eleven_byte_varint(self):
        payload = b"\x01\x01" + b"\x80" * 10 + b"\x01"
        with pytest.raises(m.ProtocolError, match="varint too long"):
            self._vectors(payload)

    def test_ten_byte_varint_is_the_edge(self):
        payload = b"\x01\x01" + b"\xff" * 9 + b"\x01"
        assert self._vectors(payload) == [[2**64 - 1]]

    @pytest.mark.parametrize("cut", range(1, 8))
    def test_truncated_mid_vector(self, cut):
        payload = m.KeyGenRequest(hash_vectors=[[1, 300, 2**20]]).encode()
        assert len(payload) == 8
        with pytest.raises(m.ProtocolError, match="truncated varint"):
            self._vectors(payload[:cut])

    def test_trailing_bytes_are_left_for_expect_end(self):
        body = m.KeyGenRequest(hash_vectors=[[1, 2], [300]]).encode()
        reader = m._Reader(body + b"\x80\xff")
        assert reader.vectors() == [[1, 2], [300]]
        with pytest.raises(m.ProtocolError, match="trailing bytes"):
            reader.expect_end()


class TestChunkMessages:
    def test_put_chunks_roundtrip(self):
        request = m.PutChunks(chunks=[(b"fp1", b"data1"), (b"fp2", b"")])
        assert m.PutChunks.decode(request.encode()) == request

    def test_put_chunks_response_roundtrip(self):
        response = m.PutChunksResponse(stored=10, duplicates=5)
        assert m.PutChunksResponse.decode(response.encode()) == response

    def test_get_chunks_roundtrip(self):
        request = m.GetChunks(fingerprints=[b"a" * 32, b"b" * 32])
        assert m.GetChunks.decode(request.encode()) == request

    def test_chunks_roundtrip(self):
        response = m.Chunks(chunks=[b"x" * 1000, b""])
        assert m.Chunks.decode(response.encode()) == response

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(max_size=32), st.binary(max_size=200)),
            max_size=10,
        )
    )
    def test_put_chunks_property(self, chunks):
        request = m.PutChunks(chunks=chunks)
        assert m.PutChunks.decode(request.encode()) == request


class TestRecipeMessages:
    def test_put_recipes_roundtrip(self):
        request = m.PutRecipes(
            file_name="backups/2026-07-06.tar",
            sealed_file_recipe=b"sealed-fr",
            sealed_key_recipe=b"sealed-kr",
        )
        assert m.PutRecipes.decode(request.encode()) == request

    def test_unicode_file_name(self):
        request = m.PutRecipes(file_name="файл.bin")
        assert m.PutRecipes.decode(request.encode()).file_name == "файл.bin"

    def test_get_recipes_roundtrip(self):
        request = m.GetRecipes(file_name="f")
        assert m.GetRecipes.decode(request.encode()) == request


class TestMiscMessages:
    def test_error_roundtrip(self):
        assert m.decode_error(m.encode_error("boom: not found")) == \
            "boom: not found"

    def test_stats_roundtrip(self):
        pairs = [("requests", 100), ("current_t", 7)]
        assert m.decode_stats(m.encode_stats(pairs)) == pairs

    def test_stats_empty(self):
        assert m.decode_stats(m.encode_stats([])) == []

    def test_stats_floats_roundtrip_exactly(self):
        pairs = [
            ("ted_h_seconds_p95", 0.0012345678901234567),
            ("ted_dedup_ratio", 1.9999999999999998),
            ("tiny", 5e-324),
        ]
        assert m.decode_stats(m.encode_stats(pairs)) == pairs

    def test_stats_mixed_int_and_float_payload(self):
        pairs = [
            ("requests", 100),
            ("ted_h_seconds_p50", 0.25),
            ("current_t", 7),
            ("negative", -3),  # negative ints ride the float encoding
            ("zero", 0),
        ]
        decoded = dict(m.decode_stats(m.encode_stats(pairs)))
        assert decoded["requests"] == 100
        assert isinstance(decoded["requests"], int)
        assert decoded["ted_h_seconds_p50"] == 0.25
        assert decoded["current_t"] == 7
        assert decoded["negative"] == -3.0
        assert decoded["zero"] == 0
        assert isinstance(decoded["zero"], int)

    def test_stats_truncated_payloads_raise_protocol_error(self):
        payload = m.encode_stats(
            [("requests", 100), ("ted_h_seconds_p95", 0.125)]
        )
        for cut in range(1, len(payload)):
            truncated = payload[:cut]
            try:
                m.decode_stats(truncated)
            except m.ProtocolError:
                continue
            # Prefixes that happen to parse must decode to a strict prefix
            # of the pairs, never garbage — but most cuts must raise.
            assert cut < len(payload)

    def test_stats_unknown_value_tag_rejected(self):
        # A single pair whose value tag is neither int (0) nor float (1).
        from repro.utils.varint import encode_uvarint

        payload = (
            encode_uvarint(1)            # one pair
            + encode_uvarint(3) + b"abc"  # name
            + encode_uvarint(9)           # bogus tag
        )
        with pytest.raises(m.ProtocolError):
            m.decode_stats(payload)
