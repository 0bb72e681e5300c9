"""Fault injection: deterministic schedules and recovery."""

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import SHACTR
from repro.tedstore.client import TedStoreClient
from repro.tedstore.faults import (
    FaultPlan,
    FaultyKeyManager,
    FaultyProvider,
    InjectedFault,
)
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.messages import (
    GetChunks,
    KeyGenRequest,
    ProtocolError,
    PutChunks,
)
from repro.tedstore.provider import ProviderService
from repro.traces.workload import unique_file

_W = 2**14


def _stack():
    key_manager = KeyManagerService(
        TedKeyManager(secret=b"fault-secret", t=50, sketch_width=_W)
    )
    provider = ProviderService(in_memory=True)
    return LocalKeyManager(key_manager), LocalProvider(provider)


class TestFaultPlan:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(delay_seconds=-1)

    def test_with_seed_changes_only_the_seed(self):
        plan = FaultPlan(drop_rate=0.5, seed=1)
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.drop_rate == 0.5


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def run():
            km, _ = _stack()
            faulty = FaultyKeyManager(km, FaultPlan(drop_rate=0.4, seed=11))
            outcomes = []
            for _ in range(40):
                try:
                    faulty.keygen(KeyGenRequest(hash_vectors=[[1, 2, 3, 4]]))
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("drop")
            return outcomes, faulty.fault_counters

        outcomes_a, counters_a = run()
        outcomes_b, counters_b = run()
        assert outcomes_a == outcomes_b
        assert counters_a == counters_b
        assert "drop" in outcomes_a and "ok" in outcomes_a


class TestFaultModes:
    def test_drop_raises_injected_fault(self):
        _, prov = _stack()
        faulty = FaultyProvider(prov, FaultPlan(drop_rate=1.0, seed=0))
        with pytest.raises(InjectedFault, match="drop"):
            faulty.put_chunks(PutChunks(chunks=[(b"fp", b"data")]))
        assert faulty.fault_counters["drops"] == 1

    def test_close_loses_reply_but_state_changed(self):
        # The dangerous case: the request was delivered, the reply lost.
        _, prov = _stack()
        faulty = FaultyProvider(prov, FaultPlan(close_rate=1.0, seed=0))
        with pytest.raises(InjectedFault, match="close"):
            faulty.put_chunks(PutChunks(chunks=[(b"fp", b"data")]))
        # The chunk really was stored despite the lost reply.
        assert prov.get_chunks(GetChunks(fingerprints=[b"fp"])).chunks == [
            b"data"
        ]

    def test_delay_uses_injected_sleep(self):
        slept = []
        _, prov = _stack()
        faulty = FaultyProvider(
            prov,
            FaultPlan(
                delay_rate=1.0, delay_seconds=3.0, seed=0, sleep=slept.append
            ),
        )
        prov.put_chunks(PutChunks(chunks=[(b"fp", b"data")]))
        faulty.get_chunks(GetChunks(fingerprints=[b"fp"]))
        assert slept == [3.0]

    def test_corrupt_surfaces_as_protocol_error_or_garbage(self):
        _, prov = _stack()
        prov.put_chunks(PutChunks(chunks=[(b"fp", b"payload-bytes")]))
        faulty = FaultyProvider(prov, FaultPlan(corrupt_rate=1.0, seed=3))
        good = prov.get_chunks(GetChunks(fingerprints=[b"fp"])).chunks
        outcomes = set()
        for _ in range(30):
            try:
                reply = faulty.get_chunks(GetChunks(fingerprints=[b"fp"]))
                outcomes.add("garbage" if reply.chunks != good else "clean")
            except ProtocolError:
                outcomes.add("protocol_error")
        # Every delivery was corrupted: either the frame failed to decode
        # or the decoded data differs from the truth.
        assert "clean" not in outcomes
        assert outcomes  # at least one corruption observed


class TestClientUnderFaults:
    def test_upload_fails_cleanly_on_unrecovered_fault(self):
        # Without a retrying transport underneath, an injected drop
        # surfaces as ConnectionError — never silent data loss.
        km, prov = _stack()
        client = TedStoreClient(
            km,
            FaultyProvider(prov, FaultPlan(drop_rate=1.0, seed=0)),
            profile=SHACTR,
            sketch_width=_W,
            batch_size=100,
        )
        with pytest.raises(ConnectionError):
            client.upload("f", unique_file(20_000))


class TestPauseAndPartition:
    """Stateful whole-process fault kinds for the chaos harness."""

    def test_pause_blocks_calls_until_resume(self):
        import threading

        _, prov = _stack()
        prov.put_chunks(PutChunks(chunks=[(b"fp", b"data")]))
        faulty = FaultyProvider(prov, FaultPlan())
        faulty.pause()
        assert faulty.paused
        replies = []

        def blocked_call():
            replies.append(
                faulty.get_chunks(GetChunks(fingerprints=[b"fp"]))
            )

        thread = threading.Thread(target=blocked_call)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # SIGSTOP analogue: alive but silent
        assert replies == []
        faulty.resume()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert replies[0].chunks == [b"data"]
        assert faulty.fault_counters["paused_calls"] == 1

    def test_partition_fails_instantly_until_heal(self):
        km, _ = _stack()
        faulty = FaultyKeyManager(km, FaultPlan())
        request = KeyGenRequest(hash_vectors=[[1, 2, 3, 4]])
        faulty.keygen(request)
        faulty.partition()
        assert faulty.partitioned
        with pytest.raises(InjectedFault, match="partition"):
            faulty.keygen(request)
        with pytest.raises(InjectedFault):
            faulty.stats()
        faulty.heal()
        assert not faulty.partitioned
        assert len(faulty.keygen(request).seeds) == 1
        assert faulty.fault_counters["partition_rejects"] == 2

    def test_partition_wins_over_a_concurrent_resume(self):
        """pause → partition → resume: woken callers see the partition."""
        import threading

        _, prov = _stack()
        faulty = FaultyProvider(prov, FaultPlan())
        faulty.pause()
        errors = []

        def blocked_call():
            try:
                faulty.stats()
            except InjectedFault as exc:
                errors.append(exc)

        thread = threading.Thread(target=blocked_call)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()
        faulty.partition()
        faulty.resume()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1
