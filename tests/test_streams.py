"""Stream layout v9: per-block keys, Philox streams and round seeds, block boundaries and
the coins they yield."""

import hashlib

import numpy as np
import pytest
from scipy.stats import chi2

from cdiqkd.devices import (
    ClassicalDeterministicDevice,
    ClassicalRandomDevice,
    HonestDevice,
    make_device,
)
from cdiqkd.etcf import EtcfParams
from cdiqkd.protocol import COIN_COLUMNS, ProtocolParams, RoundType, TestTag, run_session
from cdiqkd.quantum import MeasurementBasis
from cdiqkd.streams import (
    DEVICE,
    DOMAIN,
    PRIVATE,
    PUBLIC,
    STREAM_BLOCK,
    block_key,
    block_streams,
    session_words,
)

from .helpers import FIVE_SIGMA_PVALUE, assert_frequency, assert_multinomial
from .test_protocol import _signature, params


def _oracle_key(master: np.random.SeedSequence, stream: int, block: int) -> np.ndarray:
    """The documented derivation, written out with hashlib and the byte layout alone."""
    words = b"".join(int(w).to_bytes(4, "little") for w in master.generate_state(8, np.uint32))
    digest = hashlib.sha256(
        b"cdiqkd stream layout v2" + words + bytes([stream]) + block.to_bytes(8, "little")
    ).digest()
    return np.array(
        [int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little")],
        dtype=np.uint64,
    )


MASTERS = {
    "int-0": np.random.SeedSequence(0),
    "int-2^128-1": np.random.SeedSequence(2**128 - 1),
    "list-entropy": np.random.SeedSequence([3, 2**40, 0, 7, 2**32 - 1]),
    "run-experiment-child": np.random.SeedSequence(2020).spawn(2)[0],
}


class TestKeyDerivation:
    @pytest.mark.parametrize("name", sorted(MASTERS))
    @pytest.mark.parametrize("block", [0, 1, 2**32, 2**64 - 1])
    def test_block_key_is_the_documented_sha256(self, name, block):
        master = MASTERS[name]
        assert DOMAIN == b"cdiqkd stream layout v2"
        for stream in (PUBLIC, PRIVATE, DEVICE):
            key = block_key(session_words(master), stream, block)
            assert key.dtype == np.uint64
            assert np.array_equal(key, _oracle_key(master, stream, block))

    def test_generators_are_philox_keyed_by_block(self):
        master = MASTERS["run-experiment-child"]
        blocks = list(block_streams(master, 2 * STREAM_BLOCK + 1))
        for index, block in enumerate(blocks):
            for stream, generator in ((PUBLIC, block.public), (DEVICE, block.device)):
                expected = np.random.Philox(key=_oracle_key(master, stream, index))
                assert isinstance(generator.bit_generator, np.random.Philox)
                assert np.array_equal(generator.bit_generator.random_raw(8), expected.random_raw(8))

    def test_round_seeds_are_the_documented_shake(self):
        # Each round's 16 bytes are its chunk of SHAKE-128 of the block's private key.
        master = MASTERS["run-experiment-child"]
        blocks = list(block_streams(master, 2 * STREAM_BLOCK + 1))
        assert [len(block.seeds) for block in blocks] == [16 * STREAM_BLOCK] * 2 + [16]
        for index, block in enumerate(blocks):
            key = _oracle_key(master, PRIVATE, index).astype("<u8").tobytes()
            assert block.seeds == hashlib.shake_128(key).digest(16 * (block.stop - block.start))
        # A shorter last block takes the first seeds of a whole one.
        whole = list(block_streams(master, 3 * STREAM_BLOCK))[2]
        assert whole.seeds[:16] == blocks[2].seeds

    def test_session_words_read_the_seed_sequence_without_advancing_it(self):
        seq = np.random.SeedSequence(2024)
        assert session_words(seq) == session_words(np.random.SeedSequence(2024))
        assert session_words(seq) == session_words(seq)
        assert seq.n_children_spawned == 0
        child = np.random.SeedSequence(2024).spawn(1)[0]
        assert session_words(child) != session_words(seq)
        assert len(session_words(seq)) == 32


class TestBlocks:
    # The block edges, and layout v7's edges (255, 256, 257, 775), now inside one block.
    @pytest.mark.parametrize("rounds", [
        1, 255, 256, 257, 775, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 3 * STREAM_BLOCK + 7
    ])
    def test_blocks_cover_the_rounds_in_order(self, rounds):
        spans = [(block.start, block.stop) for block in block_streams(MASTERS["int-0"], rounds)]
        assert spans[0][0] == 0 and spans[-1][1] == rounds
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
        assert all(stop - start == STREAM_BLOCK for start, stop in spans[:-1])
        assert 1 <= spans[-1][1] - spans[-1][0] <= STREAM_BLOCK

    def test_complete_blocks_equal_those_of_a_longer_session(self):
        # The device plays a block at a time, so a block's draws must not depend on
        # the blocks after it, for each kind of device that draws.
        for spec in ("honest", "noisy:0.1:0.1", "classical-random"):
            short = run_session(make_device(spec), params(2 * STREAM_BLOCK + 5), seed=41)
            long = run_session(make_device(spec), params(3 * STREAM_BLOCK), seed=41)
            complete = 2 * STREAM_BLOCK
            assert [_signature(r) for r in short.records[:complete]] == [
                _signature(r) for r in long.records[:complete]
            ], spec

    def test_device_draws_from_one_generator_per_block(self):
        seen = []

        class Recorder(ClassicalRandomDevice):
            def reset(self, rng):
                seen.append(rng)
                super().reset(rng)

        run_session(Recorder(), params(STREAM_BLOCK + 3), seed=5)
        assert len(seen) == 2  # one reset a block, each with that block's generator
        for index, generator in enumerate(seen):
            assert isinstance(generator, np.random.Generator)
            assert isinstance(generator.bit_generator, np.random.Philox)
            key = generator.bit_generator.state["state"]["key"]
            assert np.array_equal(key, _oracle_key(np.random.SeedSequence(5), DEVICE, index))


def _public_view(session):
    """What the public coins decide: bases, challenges, questions asked, type and tag."""
    return [
        (r.alice.theta, r.bob.theta, r.alice.ct, r.bob.ct, r.alice.question, r.bob.question,
         r.round_type, r.test_tag)
        for r in session.records
    ]


def test_public_coins_depend_on_neither_the_device_nor_the_family():
    # x, y and the tag are drawn for every round, and keys come from their own
    # stream, so the public decisions of a seed are fixed before any answer.
    rounds = STREAM_BLOCK + 9
    lattice = ProtocolParams(rounds=rounds, epsilon=0.05,
                             etcf=EtcfParams(family="toy-lattice", n=2, m=4, q=5))
    views = [
        _public_view(run_session(device, session_params, seed=12))
        for device, session_params in (
            (HonestDevice(), params(rounds)),
            (ClassicalRandomDevice(), params(rounds)),
            (ClassicalDeterministicDevice(), params(rounds, w=6)),
            (HonestDevice(), lattice),
        )
    ]
    assert all(view == views[0] for view in views[1:])


# Knobs apart from fair coins and from each other, so that a coin compared
# with the wrong probability would show.
KNOBS = dict(p_theta_hadamard=0.7, p_ct_b=0.6, p_generate_given_bell=0.3, p_question_hadamard=0.2)


def _cell_probabilities(p_theta, p_ct_b, p_generate):
    """Analytic (sifted, product, Bell test, Bell generation) probabilities of a round."""
    sifted = 2 * p_ct_b * (1 - p_ct_b)
    bell = p_ct_b**2 * p_theta**2
    product = 1 - sifted - bell
    return np.array([sifted, product, bell * (1 - p_generate), bell * p_generate])


@pytest.mark.parametrize("device_kind", [HonestDevice, ClassicalRandomDevice])
def test_round_counts_fit_their_analytic_probabilities_over_many_seeds(device_kind):
    assert COIN_COLUMNS == ("theta_a", "theta_b", "ct_a", "ct_b", "x", "y", "tag")
    probs = _cell_probabilities(KNOBS["p_theta_hadamard"], KNOBS["p_ct_b"],
                                KNOBS["p_generate_given_bell"])
    seeds = [*range(60), np.random.SeedSequence(7).spawn(3)[2]]
    totals = np.zeros(4)
    statistic = 0.0
    per_seed = set()
    questions = hadamard_questions = 0
    for seed in seeds:
        session = run_session(device_kind(), params(256, epsilon=1.0, **KNOBS), seed)
        cells = np.array([
            session.rounds - session.sifted_count,
            session.product_count,
            session.tested_count - session.product_count,
            session.generate_count,
        ])
        assert cells.sum() == session.rounds
        assert cells[2] + cells[3] == session.bell_count
        totals += cells
        expected = probs * session.rounds
        statistic += float(((cells - expected) ** 2 / expected).sum())
        per_seed.add(tuple(cells))
        for record in session.records:
            assert record.round_type is RoundType.BELL or record.test_tag is TestTag.TEST
            for side in (record.alice, record.bob):
                if side.question is not None:
                    questions += 1
                    hadamard_questions += side.question is MeasurementBasis.HADAMARD
    label = device_kind.__name__
    assert_multinomial(totals, probs, f"{label} round cells")
    rounds = int(totals.sum())
    for name, count, p in (
        ("sifted", totals[0], probs[0]),
        ("product", totals[1], probs[1]),
        ("Bell", totals[2] + totals[3], probs[2] + probs[3]),
        ("generate", totals[3], probs[3]),
        ("tested", totals[1] + totals[2], probs[1] + probs[2]),
    ):
        assert_frequency(int(count), rounds, p, f"{label} {name}")
    # The seeds' sessions scatter like independent draws, not like copies of one.
    assert statistic <= chi2.isf(FIVE_SIGMA_PVALUE, df=3 * len(seeds))
    assert len(per_seed) > len(seeds) // 2
    assert_frequency(hadamard_questions, questions, KNOBS["p_question_hadamard"], "H questions")
