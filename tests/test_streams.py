"""Stream layout v1: block-derived seed words against numpy's SeedSequence."""

import numpy as np
import pytest

from cdiqkd.devices import ClassicalRandomDevice
from cdiqkd.protocol import choose_test_tag, run_round, run_session
from cdiqkd.streams import STREAM_BLOCK, SeedWords, stream_seeds

from .test_protocol import _signature, params

# Master sequences whose round streams the block derivation must reproduce:
# int seeds across the word sizes, list entropy, a larger pool, and the
# nested spawn key of the session sequence run_experiment hands run_session.
MASTERS = {
    "int-0": np.random.SeedSequence(0),
    "int-2020": np.random.SeedSequence(2020),
    "int-2^63+5": np.random.SeedSequence(2**63 + 5),
    "int-2^128-1": np.random.SeedSequence(2**128 - 1),
    "list-entropy": np.random.SeedSequence([3, 2**40, 0, 7, 2**32 - 1]),
    "pool-size-8": np.random.SeedSequence(2020, pool_size=8),
    "run-experiment-child": np.random.SeedSequence(2020).spawn(2)[0],
}
# (start, stop) ranges: block edges, a ragged tail, and indices that take two
# uint32 words, called directly rather than by running that many rounds.
RANGES = [
    (0, STREAM_BLOCK),
    (STREAM_BLOCK, 2 * STREAM_BLOCK),
    (3 * STREAM_BLOCK, 3 * STREAM_BLOCK + 7),
    (2**32 - STREAM_BLOCK, 2**32),
    (2**32, 2**32 + 2),
]


class TestStreamSeeds:
    @pytest.mark.parametrize("name", sorted(MASTERS))
    @pytest.mark.parametrize("start, stop", RANGES)
    def test_words_and_generators_equal_numpy_seed_sequence(self, name, start, stop):
        master = MASTERS[name]
        seeds = stream_seeds(master, start, stop)
        for index in sorted({start, start + 1, stop - 2, stop - 1}):
            for stream, words in enumerate(seeds):
                oracle = np.random.SeedSequence(
                    master.entropy,
                    spawn_key=(*master.spawn_key, index, stream),
                    pool_size=master.pool_size,
                )
                row = words[index - start]
                assert row.dtype == np.uint64
                assert np.array_equal(row, oracle.generate_state(4, np.uint64))
                generator = np.random.PCG64(SeedWords(row))
                assert generator.state == np.random.PCG64(oracle).state

    def test_range_across_a_word_boundary_is_rejected(self):
        with pytest.raises(ValueError, match="straddle"):
            stream_seeds(MASTERS["int-0"], 2**32 - 1, 2**32 + 1)

    def test_seed_words_answer_only_what_pcg64_asks(self):
        row = np.arange(4, dtype=np.uint64)
        words = SeedWords(row)
        row[0] = 9  # the generator's words are a copy
        assert words.generate_state(4, np.uint64).tolist() == [0, 1, 2, 3]
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(ValueError):
                words.generate_state(n_words, dtype)

    def test_session_matches_per_round_seed_sequences(self):
        # Two blocks and a ragged tail, against the per-round spawn it replaced.
        rounds = 2 * STREAM_BLOCK + 5
        session = run_session(ClassicalRandomDevice(), params(rounds=rounds), seed=31)
        for index in (0, STREAM_BLOCK - 1, STREAM_BLOCK, rounds - 1):
            child = np.random.SeedSequence(31).spawn(rounds)[index]
            verifier_rng, device_rng = (np.random.default_rng(seq) for seq in child.spawn(2))
            record = run_round(
                ClassicalRandomDevice(), params(rounds=rounds), verifier_rng, device_rng, index
            )
            record.test_tag = choose_test_tag(record.round_type, verifier_rng)
            expected = session.records[index]
            assert _signature(record)[:3] == _signature(expected)[:3]
            assert _signature(record)[4] == _signature(expected)[4]
