"""Multiprocessing encrypt pool: byte-identical stored state.

``crypto_workers > 0`` moves encryption into a pool of OS processes
(DESIGN.md §16). Encryption is a pure function of (profile, key, chunk)
and chunks are re-sequenced by index, so the provider's on-disk state,
the recipes, and the upload results must be byte-identical to the
reference oracle's — the same contract every scheduling honours.
"""

import pytest

from tests.harness import differential as diff

from repro.tedstore.pipeline import _mp_encrypt_job


@pytest.mark.parametrize("mode", ["mle", "bted", "fted"])
def test_crypto_workers_matches_oracle(mode, tmp_path):
    files = diff.make_workload(seed=3, files=5, chunks_per_file=80)
    names = [name for name, _ in files]
    serial = diff.make_deployment(mode, tmp_path / "oracle", oracle=True)
    pooled = diff.make_deployment(
        mode, tmp_path / "pooled", crypto_workers=2
    )
    results_serial = diff.run_workload(serial, files)
    results_pooled = diff.run_workload(pooled, files)
    serial.close()
    pooled.close()
    diff.assert_equivalent(serial, pooled, names)
    assert [r.__dict__ for r in results_serial] == [
        r.__dict__ for r in results_pooled
    ]


def test_crypto_workers_with_threads_and_cache(tmp_path):
    # The pool composes with the existing pipeline features: multiple
    # worker threads and the fingerprint cache (aliases + cache hits).
    files = diff.make_workload(seed=9, files=4, chunks_per_file=60)
    names = [name for name, _ in files]
    serial = diff.make_deployment("bted", tmp_path / "oracle", oracle=True)
    combined = diff.make_deployment(
        "bted",
        tmp_path / "combined",
        workers=3,
        crypto_workers=2,
        cache_capacity=4096,
    )
    diff.run_workload(serial, files)
    diff.run_workload(combined, files)
    serial.close()
    combined.close()
    diff.assert_equivalent(
        serial, combined, names, ignore_offered_counters=True
    )


def test_mp_encrypt_job_matches_inline():
    # The pool entrypoint itself (callable in-process too) must produce
    # what encrypting with the profile directly produces.
    from repro.crypto.cipher import get_profile
    from repro.crypto.hashes import digest

    profile = get_profile("shactr")
    job = [
        (7, b"plaintext-chunk" * 10, b"fp" * 16, b"seed" * 8, b"k" * 32),
    ]
    [resolved] = _mp_encrypt_job("shactr", job)
    expected = profile.encrypt(b"k" * 32, b"plaintext-chunk" * 10)
    assert resolved.index == 7
    assert resolved.ciphertext == expected
    assert resolved.cipher_fp == digest(expected, profile.hash_algorithm)
    assert resolved.size == len(b"plaintext-chunk" * 10)


def test_client_rejects_negative_crypto_workers(tmp_path):
    with pytest.raises(ValueError):
        diff.make_deployment("bted", tmp_path / "d", crypto_workers=-1)
