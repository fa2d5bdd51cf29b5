"""Device-side strategies: honest, noisy-honest, and scripted cheaters.

A device plays a stream block at a time: each message it gets holds one
entry per round of the block, and each reply is one array (or sequence)
per message field, with one entry per round (see ``DeviceStrategy``).
Devices get keys and never invert a verifier's message, and no device
knows a family's law: ``etcf`` is the one module that does.  The honest
device draws its domain points with ``etcf.sample_domain``, and commits
through ``etcf.DrawnKeys.claws`` on a block's keys as drawn (or stacked,
``etcf.stack_keys``), which gives each claw-free key's claw partner too,
as these desk-scale keys make claws public (``etcf.claw_partner``).

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

The honest law is written once, for arrays of commitments: ``_commit``
draws the commitments and ``_respond`` the replies to both challenges.
``HonestDevice`` calls them for a whole block; ``honest_commit`` and
``honest_challenge_b`` are their one-round case, as ``etcf.keygen`` is the
one-key case of ``etcf.draw_keys``.

The device's draws of a block, from the block's device generator
(``streams.Block.device``), in order:

- honest and noisy: ``on_keys`` draws each round's two branch bits, then
  its two domain points (``etcf.sample_domain``: one integer below 2**w
  each for the ideal family, n coordinates below q each for the
  toy-lattice family);
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
from functools import cache
from typing import NamedTuple

import numpy as np

from .bits import parity
from .etcf import EtcfKeyPair, sample_domain, stack_keys
from .etcf import claw_partner  # not called here: named so that bench/spans.py can wrap it
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


def _retained_qubit(code: int) -> StateVector:
    """The one-qubit state a retained-qubit code names: 0 = |0>, 1 = |1>, 2 = |+>, 3 = |->."""
    return ket((code,)) if code < 2 else plus_minus(code - 2)


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
    """Interface the protocol engine drives, a stream block at a time.

    Per block, ``reset(rng)`` with the block's device generator
    (``streams.Block.device``), then ``on_keys``, ``on_challenges`` and
    ``on_questions``, each once and with positional arguments.  Each
    argument holds one entry per round of the block, and each reply is a
    tuple of per-round arrays or sequences:

    - ``on_keys(keys_a, keys_b)``: the two sides' keys, which in one session
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


def _commit(sides, rng: np.random.Generator):
    """The honest commitment to each key of ``sides``, a sequence of keys per side, all
    of one family and its sizes: (images, claw_free, branch, points, partners), each
    with a row per key of a side and a column per side.

    Draws a branch bit b per key, then a domain point x per key, row by row
    (``etcf.sample_domain``), and commits to f_b(x), so each commitment is uniform
    over its key's image.  A claw-free key's partner is its claw partner of x, an
    injective key's never read: both from ``etcf.DrawnKeys.claws``.
    """
    stacks = [stack_keys(keys) for keys in sides]
    params, shape = stacks[0].params, (len(stacks[0]), len(stacks))
    branch = rng.integers(2, size=shape)
    points = sample_domain(params, rng, shape)
    drawn = [keys.claws(branch[:, s], points[:, s]) for s, keys in enumerate(stacks)]
    images, partners = (np.stack(column, axis=1) for column in zip(*drawn))
    claw_free = np.stack([keys.claw_free for keys in stacks], axis=1)
    return images, claw_free, branch, points, partners


def _respond(claw_free, branch, point, partner, domain_bits: int, rng: np.random.Generator):
    """The honest reply to either challenge for each commitment: (z, d, code).

    Draws a challenge-a coin per commitment, then a uniform d string per
    commitment.  Challenge a reads out z = (b || x_b), b a fresh coin on a
    claw-free side.  Challenge b keeps |0> + (-1)^(d.(x0 xor x1)) |1>, code
    2 + d.(x0 xor x1), or |b_hat>, code b_hat (see ``_retained_qubit``).
    """
    coin = rng.integers(2, size=branch.shape)
    d = rng.integers(1 << domain_bits, size=branch.shape)
    coin = np.where(claw_free, coin, branch)
    z = coin | (np.where(coin == branch, point, partner) << 1)
    code = np.where(claw_free, 2 + parity(d & (point ^ partner)), branch)
    return z, d, code


class HonestInternalState(NamedTuple):
    """The honest state after ``_commit``, and the arguments of ``_respond``: the
    arrays but the images, one entry per commitment (one side of one round from
    ``honest_commit``, a row of two sides per round of a block in ``HonestDevice``),
    and the domain width."""

    claw_free: np.ndarray
    branch: np.ndarray
    point: np.ndarray
    partner: np.ndarray
    domain_bits: int

    @property
    def claw(self) -> tuple[int, int] | None:
        """The claw (x0, x1) of a one-commitment state; None for an injective key."""
        if not self.claw_free.item():
            return None
        x, partner = self.point.item(), self.partner.item()
        return (x, partner) if self.branch.item() == 0 else (partner, x)


def honest_commit(key: EtcfKeyPair, rng: np.random.Generator) -> tuple[int, HonestInternalState]:
    """``_commit`` for one key: a commitment uniform over the key's image, and its state."""
    images, *state = _commit([[key]], rng)
    return images.item(), HonestInternalState(*state, key.domain_bits)


def honest_challenge_b(
    state: HonestInternalState, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """``_respond`` to challenge b for one commitment: d and the retained qubit."""
    _, d, code = _respond(*state, rng)
    return d.item(), _retained_qubit(code.item())


class HonestDevice(DeviceStrategy):
    """Plays the intended strategy; wins every check under the ideal family."""

    def on_keys(self, keys_a, keys_b):
        images, *state = _commit((keys_a, keys_b), self._rng)
        self._state = HonestInternalState(*state, keys_a[0].domain_bits)
        return images[:, 0], images[:, 1]

    def on_challenges(self, ct_a, ct_b):
        z, d, self._code = _respond(*self._state, self._rng)
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
