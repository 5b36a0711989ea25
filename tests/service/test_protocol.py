"""Wire framing for the detection service: self-verifying frames,
torn/corrupt rejection, and the structured-error contract."""

import io

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (
    ProtocolError,
    RETRYABLE_ERRORS,
    error_frame,
    ok_frame,
    raise_for_error,
    recv_frame,
    send_frame,
    valid_name,
)


def _roundtrip(doc, body=b""):
    buf = io.BytesIO()
    send_frame(buf, doc, body)
    buf.seek(0)
    return buf


class TestFraming:
    def test_roundtrip_without_body(self):
        buf = _roundtrip({"verb": "status"})
        doc, body = recv_frame(buf)
        assert doc == {"verb": "status"}
        assert body == b""

    def test_roundtrip_with_body(self):
        payload = bytes(range(256)) * 17
        buf = _roundtrip({"verb": "segment", "index": 3}, payload)
        doc, body = recv_frame(buf)
        assert doc["index"] == 3
        assert doc["body"] == len(payload)
        assert body == payload

    def test_clean_eof_returns_none(self):
        assert recv_frame(io.BytesIO(b"")) is None

    def test_multiple_frames_on_one_stream(self):
        buf = io.BytesIO()
        send_frame(buf, {"n": 1})
        send_frame(buf, {"n": 2}, b"xyz")
        buf.seek(0)
        assert recv_frame(buf)[0]["n"] == 1
        doc, body = recv_frame(buf)
        assert doc["n"] == 2 and body == b"xyz"
        assert recv_frame(buf) is None

    def test_crc_mismatch_is_protocol_error(self):
        raw = bytearray(_roundtrip({"verb": "status"}).getvalue())
        raw[-3] ^= 0xFF  # flip a payload byte; header CRC now lies
        with pytest.raises(ProtocolError):
            recv_frame(io.BytesIO(bytes(raw)))

    def test_torn_header_is_protocol_error(self):
        raw = _roundtrip({"verb": "status"}).getvalue()
        with pytest.raises(ProtocolError):
            recv_frame(io.BytesIO(raw[:10]))

    def test_torn_body_is_protocol_error(self):
        raw = _roundtrip({"verb": "segment"}, b"a" * 100).getvalue()
        with pytest.raises(ProtocolError):
            recv_frame(io.BytesIO(raw[:-40]))

    def test_unrecognized_magic_is_protocol_error(self):
        raw = _roundtrip({"verb": "status"}).getvalue()
        with pytest.raises(ProtocolError):
            recv_frame(io.BytesIO(b"G " + raw[2:]))

    def test_oversized_json_refused_before_read(self):
        header = b"F %08x %08x " % (1 << 24, 0)
        with pytest.raises(ProtocolError):
            recv_frame(io.BytesIO(header))


class TestErrors:
    def test_ok_passes_through(self):
        doc = raise_for_error(ok_frame(credits=7))
        assert doc["credits"] == 7

    def test_error_becomes_service_error_with_code_and_retry(self):
        with pytest.raises(ServiceError) as err:
            raise_for_error(
                error_frame("over_queue", "queue full", retry_after_s=0.25)
            )
        assert err.value.code == "over_queue"
        assert err.value.retry_after_s == 0.25

    def test_terminal_codes_are_not_retryable(self):
        for code in ("quarantined", "bad_segment", "out_of_order",
                     "unknown_stream", "bad_request", "incomplete"):
            assert code not in RETRYABLE_ERRORS

    def test_protocol_error_is_a_service_error(self):
        assert issubclass(ProtocolError, ServiceError)
        assert ProtocolError("torn").code == "protocol"


class TestTenantIds:
    def test_boring_ids_pass(self):
        for tenant in ("alpha", "team-7", "a.b_c-d", "X" * 64):
            assert valid_name(tenant)

    def test_path_tricks_fail(self):
        for tenant in ("", "../up", "a/b", ".hidden", "-lead", "X" * 65):
            assert not valid_name(tenant)
