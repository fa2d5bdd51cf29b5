"""Device-side strategies: honest, noisy-honest, and scripted cheaters.

A device plays a whole stream block at once: each message it gets holds
one entry per round of the block, and each reply is one array (or
sequence) per message field, with one entry per round (see
``DeviceStrategy``).  Devices get keys and never invert them.

The honest device is simulated classically: a commitment draw plus a
one-qubit descriptor per side (the closed forms the protocol analysis
gives for the post-measurement states), recorded as a retained-qubit
code.  The final teleportation and measurement step is a Clifford
circuit on those qubits, so its outcomes depend only on the two codes
and the two questions, and each of its Born probabilities is 0, 1/2 or 1
(Aaronson & Gottesman, "Improved simulation of stabilizer circuits",
PRA 2004).  It makes at most 4 measurements, so four fair coins decide
it: each of the 80 (code, question) combinations gets a table of its
answers on the 16 paths of those coins, built once from the statevector
circuits below at the first honest block, and a block reads its answers
from those tables with 4 uniforms a round.  The circuits stay here as the
table builders and test oracles.  The uniform challenge-b string rule
this relies on is validated against a full statevector oracle in the
test suite.

``honest_commit``, ``honest_challenge_a`` and ``honest_challenge_b`` are
the honest law for one round, kept as the reference the block device is
tested against.

The device's draws of a block, from the block's device generator
(``streams.Block.device``), in order:

- honest and noisy: ``on_keys`` draws each round's two branch bits, then
  its two domain points (one integer below 2**w each for the ideal
  family, n coordinates below q each for the toy-lattice family);
  ``on_challenges`` draws each round's two challenge-a coins, then its
  two d strings; ``on_questions`` draws 4 uniforms a round, then the
  noisy device 2 more, Alice's flip then Bob's;
- classical-random: each round's two commitments, then its two
  responses (uniform over the challenge-a width; a challenge-b side
  sends the top ``domain_bits`` bits), then its four answer bits
  (a, h_a, b, h_b);
- classical-table: nothing.

Each array is drawn for every round of the block, in round order and
Alice first, whether or not the round reads it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from .bits import dot, parity
from .etcf import EtcfKeyPair, IdealKeyPair, KeyKind, claw_partner, encode_vector, encode_vectors
from .quantum import (
    MeasurementBasis,
    StateVector,
    apply_gate,
    ket,
    make_bell,
    measure,
    plus_minus,
    teleport_cz,
    tensor,
    BellLabel,
)


class ChallengeType(Enum):
    A = "a"
    B = "b"


# A side's question in ``on_questions``: an index of QUESTION_BASES, or NO_QUESTION
# when the side chose challenge a.
QUESTION_BASES = (MeasurementBasis.COMPUTATIONAL, MeasurementBasis.HADAMARD)
NO_QUESTION = -1


@dataclass
class HonestInternalState:
    """Per-side state of the honest device within one round."""

    kind: KeyKind
    domain_bits: int
    c: int
    claw: tuple[int, int] | None = None  # claw-free: (x0, x1)
    point: tuple[int, int] | None = None  # injective: (b_hat, x_hat)
    challenge_used: bool = False
    code: int | None = None  # retained qubit after challenge b, see _retained_qubit


def _sample_domain(key: EtcfKeyPair, rng: np.random.Generator) -> int:
    if isinstance(key, IdealKeyPair):
        return int(rng.integers(1 << key.domain_bits))
    return encode_vector(rng.integers(0, key.q, size=key.n), key.q)


def honest_commit(key: EtcfKeyPair, rng: np.random.Generator) -> tuple[int, HonestInternalState]:
    """Sample a commitment uniformly over the image of the pair.

    Equivalent to drawing (b, x) uniformly and committing to f_b(x); the
    internal state keeps the full preimage structure of the commitment.
    """
    b = int(rng.integers(2))
    x = _sample_domain(key, rng)
    c = key.evaluate(b, x)
    state = HonestInternalState(kind=key.kind, domain_bits=key.domain_bits, c=c)
    if key.kind is KeyKind.CLAW_FREE:
        partner = claw_partner(key, b, x)
        state.claw = (x, partner) if b == 0 else (partner, x)
    else:
        state.point = (b, x)
    return c, state


def honest_challenge_a(state: HonestInternalState, rng: np.random.Generator) -> int:
    """Computational-basis read-out: z = (b || x_b), with b a fresh coin for claws."""
    if state.challenge_used:
        raise RuntimeError("challenge already consumed for this round")
    state.challenge_used = True
    if state.kind is KeyKind.CLAW_FREE:
        b = int(rng.integers(2))
        return b | (state.claw[b] << 1)
    b_hat, x_hat = state.point
    return b_hat | (x_hat << 1)


@lru_cache(maxsize=4)
def _retained_qubit(code: int) -> StateVector:
    """The one-qubit state a retained-qubit code names: 0 = |0>, 1 = |1>, 2 = |+>, 3 = |->."""
    return ket((code,)) if code < 2 else plus_minus(code - 2)


def honest_challenge_b(
    state: HonestInternalState, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Hadamard read-out of the domain register; keeps the one-qubit remainder.

    d is uniform over all domain-width bit strings.  For a claw-free side
    the retained qubit is |0> + (-1)^(d.(x0 xor x1)) |1> (normalized), code
    2 + d.(x0 xor x1); for an injective side it is |b_hat> regardless of d,
    code b_hat.  The state keeps the code for the answer step.
    """
    if state.challenge_used:
        raise RuntimeError("challenge already consumed for this round")
    state.challenge_used = True
    d = int(rng.integers(1 << state.domain_bits))
    if state.kind is KeyKind.CLAW_FREE:
        x0, x1 = state.claw
        state.code = 2 + dot(d, x0 ^ x1)
    else:
        state.code = state.point[0]
    return d, _retained_qubit(state.code)


def honest_answer(
    qubit_a: StateVector,
    qubit_b: StateVector,
    x: MeasurementBasis,
    y: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[int, int, int, int]:
    """Teleported CZ on the two retained qubits, H on the second, measure in (x, y)."""
    outcome = teleport_cz(tensor(qubit_a, qubit_b), rng)
    state = apply_gate(outcome.post_state, "H", 1)
    a, state = measure(state, 0, x, rng)
    b, _ = measure(state, 1, y, rng)
    return a, b, outcome.h_a, outcome.h_b


def _alice_half(qubit_a: StateVector, x: MeasurementBasis, rng) -> tuple[int, int]:
    # Local half of the teleportation circuit when only this side got challenge b.
    # Wires: 0 = data qubit, 1 and 2 = EPR halves (wire 1 is this side's output).
    state = tensor(qubit_a, make_bell(BellLabel(0, 0)))
    state = apply_gate(state, "H", 0)
    state = apply_gate(state, "CZ", 1, 0)
    state = apply_gate(state, "H", 0)
    h_a, state = measure(state, 0, MeasurementBasis.COMPUTATIONAL, rng)
    a, _ = measure(state, 1, x, rng)
    return a, h_a


def _bob_half(qubit_b: StateVector, y: MeasurementBasis, rng) -> tuple[int, int]:
    # Wires: 0 and 1 = EPR halves (wire 1 is this side's output), 2 = data qubit.
    state = tensor(make_bell(BellLabel(0, 0)), qubit_b)
    state = apply_gate(state, "H", 1)
    state = apply_gate(state, "H", 2)
    state = apply_gate(state, "CZ", 1, 2)
    state = apply_gate(state, "H", 2)
    h_b, state = measure(state, 2, MeasurementBasis.COMPUTATIONAL, rng)
    state = apply_gate(state, "H", 1)  # the answer-step Hadamard on the second register
    b, _ = measure(state, 1, y, rng)
    return b, h_b


# The retained-qubit code of a side without a question, in the outcome table.
_UNASKED = 4
# Coin paths of the answer step: bit k of a path is the outcome of its k-th measurement.
_COINS = 4
_PATH_WEIGHTS = 1 << np.arange(_COINS)


class _CoinRng:
    """Generator stand-in whose k-th draw is 1/4 or 3/4 as bit k of ``path`` is 0 or 1.

    A measurement of Born probability p0 = 1/2 then has bit k as its
    outcome, and one of p0 = 0 or 1 its only possible outcome.
    """

    def __init__(self, path: int) -> None:
        self._path = path

    def random(self) -> float:
        bit, self._path = self._path & 1, self._path >> 1
        return 0.75 if bit else 0.25


def _answer_circuit(code_a: int, x: MeasurementBasis, code_b: int, y: MeasurementBasis):
    """The answer step as a function of a generator: (a, h_a, b, h_b), the unasked side's 0, 0.

    A code of 4 marks a side without a question, whose question is ignored.
    """
    if code_b == _UNASKED:
        return lambda rng: (*_alice_half(_retained_qubit(code_a), x, rng), 0, 0)
    if code_a == _UNASKED:
        return lambda rng: (0, 0, *_bob_half(_retained_qubit(code_b), y, rng))

    def both(rng):
        a, b, h_a, h_b = honest_answer(_retained_qubit(code_a), _retained_qubit(code_b), x, y, rng)
        return a, h_a, b, h_b

    return both


@cache
def _outcome_table() -> np.ndarray:
    """(a, h_a, b, h_b) of the answer step, indexed [code_a, x, code_b, y, path].

    Codes are the retained-qubit codes, 4 for a side without a question
    (whose question index is then 0), questions are indices of
    ``QUESTION_BASES`` and ``path`` holds one fair coin per measurement
    (``_CoinRng``).  Built once, from the 80 circuits, on first use.
    """
    table = np.zeros((_UNASKED + 1, 2, _UNASKED + 1, 2, 1 << _COINS, 4), dtype=np.int64)
    for code_a, x, code_b, y in itertools.product(range(_UNASKED + 1), range(2), repeat=2):
        if (code_a == _UNASKED and x) or (code_b == _UNASKED and y) or code_a == code_b == _UNASKED:
            continue
        circuit = _answer_circuit(code_a, QUESTION_BASES[x], code_b, QUESTION_BASES[y])
        for path in range(1 << _COINS):
            table[code_a, x, code_b, y, path] = circuit(_CoinRng(path))
    table.flags.writeable = False
    return table


class DeviceStrategy:
    """Interface the protocol engine drives, one stream block at a time.

    Per block, ``reset(rng)`` with the block's device generator
    (``streams.Block.device``), then ``on_keys``, ``on_challenges`` and
    ``on_questions``, each once and with positional arguments.  Each
    argument holds one entry per round of the block, and each reply is a
    tuple of per-round arrays or sequences:

    - ``on_keys(keys_a, keys_b)``: the two sides' keys, which in one block
      share a family and its sizes; reply ``(c_a, c_b)``;
    - ``on_challenges(ct_a, ct_b)``: boolean arrays, True where that side's
      challenge is b; reply ``(resp_a, resp_b)``, z for challenge a and d
      for challenge b;
    - ``on_questions(x, y)``: integer arrays, an index of
      ``QUESTION_BASES``, or ``NO_QUESTION`` where the side chose challenge
      a; reply ``(a, h_a, b, h_b)``.  The entries of a side without a
      question are ignored.
    """

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def on_keys(self, keys_a, keys_b):
        raise NotImplementedError

    def on_challenges(self, ct_a, ct_b):
        raise NotImplementedError

    def on_questions(self, x, y):
        raise NotImplementedError


def _ideal_commit(keys, branch: list[int], points: list[int]):
    """Each key's f_b(x), and each claw-free key's claw partner of x: the x' with
    f_{1-b}(x') = f_b(x), found in its other table; 0 for an injective key.  Reads
    only the entries it needs, and stacks no tables."""
    images = [key.tables.item(b, x) for key, b, x in zip(keys, branch, points)]
    partners = [
        int((key.tables[1 - b] == c).argmax()) if key.kind is KeyKind.CLAW_FREE else 0
        for key, b, c in zip(keys, branch, images)
    ]
    return np.array(images, dtype=np.int64), np.array(partners, dtype=np.int64)


def _toy_commit(keys, branch: np.ndarray, vectors: np.ndarray):
    """Each key's A x + b shift mod q, and the claw partner x -+ s (s the first n
    coordinates of a claw-free shift A s), each encoded, from one stack of the keys'
    small (m, n) matrices."""
    q = keys[0].q
    matrices = np.stack([key.matrix for key in keys])
    shifts = np.stack([key.shift for key in keys])
    images = (matrices @ vectors[..., None])[..., 0] + branch[:, None] * shifts
    secret = shifts[:, :vectors.shape[1]]
    partners = np.where(branch[:, None] == 0, vectors - secret, vectors + secret)
    return encode_vectors(images % q, q), encode_vectors(partners % q, q)


class HonestDevice(DeviceStrategy):
    """Plays the intended strategy; wins every check under the ideal family."""

    def on_keys(self, keys_a, keys_b):
        rng, rounds = self._rng, len(keys_a)
        keys = [key for pair in zip(keys_a, keys_b) for key in pair]  # round by round, Alice first
        first = keys[0]
        branch = rng.integers(2, size=2 * rounds)
        if isinstance(first, IdealKeyPair):
            points = rng.integers(1 << first.domain_bits, size=2 * rounds)
            images, partners = _ideal_commit(keys, branch.tolist(), points.tolist())
        else:
            vectors = rng.integers(first.q, size=(2 * rounds, first.n))
            images, partners = _toy_commit(keys, branch, vectors)
            points = encode_vectors(vectors, first.q)
        self._claw = np.array([key.kind is KeyKind.CLAW_FREE for key in keys]).reshape(rounds, 2)
        self._branch, self._point, self._partner = (
            a.reshape(rounds, 2) for a in (branch, points, partners)
        )
        self._domain_bits = first.domain_bits
        return images[0::2], images[1::2]

    def on_challenges(self, ct_a, ct_b):
        rng, branch, point, partner = self._rng, self._branch, self._point, self._partner
        coin = rng.integers(2, size=branch.shape)
        d = rng.integers(1 << self._domain_bits, size=branch.shape)
        # Challenge a: a claw-free side reads out a fresh coin's claw member, an
        # injective side its one preimage.
        coin = np.where(self._claw, coin, branch)
        z = coin | (np.where(coin == branch, point, partner) << 1)
        # Challenge b keeps |0> + (-1)^(d.(x0 xor x1)) |1>, or |b_hat>.
        self._code = np.where(self._claw, 2 + parity(d & (point ^ partner)), branch)
        responses = np.where(np.stack([ct_a, ct_b], axis=1), d, z)
        return responses[:, 0], responses[:, 1]

    def on_questions(self, x, y):
        questions = np.stack([x, y], axis=1)
        codes = np.where(questions == NO_QUESTION, _UNASKED, self._code)
        bases = np.maximum(questions, 0)
        paths = (self._rng.random((len(questions), _COINS)) >= 0.5) @ _PATH_WEIGHTS
        answers = _outcome_table()[codes[:, 0], bases[:, 0], codes[:, 1], bases[:, 1], paths]
        return tuple(answers.T)


@dataclass(frozen=True)
class NoiseSpec:
    """Independent answer-bit flip probabilities for the two sides."""

    p_flip_a: float = 0.0
    p_flip_b: float = 0.0

    def __post_init__(self) -> None:
        for p in (self.p_flip_a, self.p_flip_b):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"flip probability {p} outside [0, 1]")


class NoisyHonestDevice(HonestDevice):
    """Honest strategy with each answer bit flipped independently."""

    def __init__(self, noise: NoiseSpec) -> None:
        self.noise = noise

    def on_questions(self, x, y):
        a, h_a, b, h_b = super().on_questions(x, y)
        flips = self._rng.random((len(a), 2)) < (self.noise.p_flip_a, self.noise.p_flip_b)
        return a ^ flips[:, 0], h_a, b ^ flips[:, 1], h_b


TABLE_KEYS = ("c_a", "c_b", "z_a", "z_b", "d_a", "d_b", "a", "b", "h_a", "h_b")


@dataclass
class ClassicalDeterministicDevice(DeviceStrategy):
    """Returns fixed responses from a table; useful for targeted failure paths.

    Recognized table keys: c_a, c_b, z_a, z_b, d_a, d_b, a, b, h_a, h_b.
    Missing entries default to 0.  Entries are sent as they are, in lists:
    the verifiers judge whatever the table holds.  A side without a
    question gets None answers.
    """

    table: dict = field(default_factory=dict)

    def _get(self, name: str):
        return self.table.get(name, 0)

    def on_keys(self, keys_a, keys_b):
        return [self._get("c_a")] * len(keys_a), [self._get("c_b")] * len(keys_b)

    def on_challenges(self, ct_a, ct_b):
        return tuple(
            [self._get(d) if challenge_b else self._get(z) for challenge_b in ct]
            for ct, z, d in ((ct_a, "z_a", "d_a"), (ct_b, "z_b", "d_b"))
        )

    def on_questions(self, x, y):
        return tuple(
            [None if question == NO_QUESTION else self._get(name) for question in questions]
            for questions, name in ((x, "a"), (x, "h_a"), (y, "b"), (y, "h_b"))
        )


class ClassicalRandomDevice(DeviceStrategy):
    """Samples every response uniformly from its message space."""

    def on_keys(self, keys_a, keys_b):
        self._domain_bits = keys_a[0].domain_bits
        c = self._rng.integers(1 << keys_a[0].codomain_bits, size=(len(keys_a), 2))
        return c[:, 0], c[:, 1]

    def on_challenges(self, ct_a, ct_b):
        responses = self._rng.integers(1 << (1 + self._domain_bits), size=(len(ct_a), 2))
        responses >>= np.stack([ct_a, ct_b], axis=1)  # a d is the top domain_bits bits
        return responses[:, 0], responses[:, 1]

    def on_questions(self, x, y):
        return tuple(self._rng.integers(2, size=(len(x), 4)).T)


def make_device(spec: str) -> DeviceStrategy:
    """Build a strategy from its config string; the one parser of device specs.

    Accepted forms: ``honest``, ``noisy:PA:PB`` (flip probabilities in
    [0, 1]), ``classical-random``, ``classical-table:PATH`` (a JSON object
    of fixed responses: keys among ``TABLE_KEYS``, int values).  A malformed
    spec or table raises ValueError; an unreadable table file raises OSError.
    """
    if spec == "honest":
        return HonestDevice()
    if spec == "classical-random":
        return ClassicalRandomDevice()
    if spec.startswith("noisy:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"noisy device spec must be noisy:PA:PB, got {spec!r}")
        return NoisyHonestDevice(NoiseSpec(float(parts[1]), float(parts[2])))
    if spec.startswith("classical-table:"):
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
        if not isinstance(table, dict):
            raise ValueError("device table must hold a JSON object")
        for name, value in table.items():
            if name not in TABLE_KEYS:
                raise ValueError(f"unknown device table key {name!r}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"device table entry {name} must be an int, got {value!r}")
        return ClassicalDeterministicDevice(table)
    raise ValueError(f"unknown device spec {spec!r}")
