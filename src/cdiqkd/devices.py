"""Device-side strategies: honest, noisy-honest, and scripted cheaters.

The honest device is simulated classically: a commitment draw plus a
one-qubit descriptor per side (the closed forms the protocol analysis
gives for the post-measurement states), recorded as a retained-qubit
code.  The final teleportation and measurement step is a Clifford
circuit on those qubits, so its outcomes depend only on the two codes
and the two questions: each of the 80 combinations gets a Born tree,
built once from the statevector circuits below and then walked with one
``rng.random()`` per measurement, exactly as the circuit itself would
draw.  The circuits stay here as the table builders and test oracles.
The uniform challenge-b string rule this relies on is validated against
a full statevector oracle in the test suite.

A strategy instance is stateful across the messages of one round;
``reset(rng)`` starts a new round.  The session hands every round of a
stream block that block's one device generator, so a round's draws go on
from where the previous round's stopped.  Devices get keys and never
invert them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bits import dot
from .etcf import EtcfKeyPair, IdealKeyPair, KeyKind, claw_partner, encode_vector
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


class _Branch(NamedTuple):
    """One measurement of a Born tree: outcome 0 when the next draw is below p0."""

    p0: float
    if0: object  # subtree or answer tuple; None where that outcome cannot occur
    if1: object


# The smallest and the largest value Generator.random() returns: forcing a
# draw to one of them realizes outcome 0 or 1 whenever that outcome can occur.
_EXTREME_DRAWS = (0.0, float(np.nextafter(1.0, 0.0)))


class _ScriptedRng:
    """Generator stand-in whose draws force the outcome path, then outcome 0.

    ``random()`` returns the stand-in itself; the engine's ``draw < p0``
    then logs p0 and compares it with the forced extreme draw.
    """

    def __init__(self, path: tuple[int, ...]) -> None:
        self._path = iter(path)
        self.log: list[float] = []

    def random(self) -> _ScriptedRng:
        self._draw = _EXTREME_DRAWS[next(self._path, 0)]
        return self

    def __lt__(self, p0: float) -> bool:
        self.log.append(p0)
        return self._draw < p0


def _born_tree(circuit, prefix: tuple[int, ...] = ()):
    """Every outcome path circuit(rng) can take after prefix, as _Branch nodes.

    Each node holds the exact p0 the statevector engine compares its draw
    with, so walking the tree with real draws reproduces the circuit's
    answers and leaves the generator where the circuit would.
    """
    rng = _ScriptedRng(prefix)
    answer = circuit(rng)
    if len(rng.log) == len(prefix):
        return answer
    p0 = rng.log[len(prefix)]
    return _Branch(p0, *(
        _born_tree(circuit, (*prefix, outcome))
        if (_EXTREME_DRAWS[outcome] < p0) == (outcome == 0)
        else None
        for outcome in (0, 1)
    ))


@lru_cache(maxsize=80)
def _answer_tree(code_a: int | None, x, code_b: int | None, y) -> _Branch:
    # 4 x 2 codes-and-questions per answering side: 64 two-sided trees, 8 + 8 one-sided.
    if code_b is None:
        return _born_tree(lambda rng: (*_alice_half(_retained_qubit(code_a), x, rng), None, None))
    if code_a is None:
        return _born_tree(lambda rng: (None, None, *_bob_half(_retained_qubit(code_b), y, rng)))

    def both(rng):
        a, b, h_a, h_b = honest_answer(_retained_qubit(code_a), _retained_qubit(code_b), x, y, rng)
        return a, h_a, b, h_b

    return _born_tree(both)


def draw_answers(
    code_a: int | None,
    x: MeasurementBasis | None,
    code_b: int | None,
    y: MeasurementBasis | None,
    rng: np.random.Generator,
) -> tuple[int | None, int | None, int | None, int | None]:
    """(a, h_a, b, h_b) of the honest answer step, read from a cached Born tree.

    A side without a question passes None for its code and question and
    gets None answers.  One ``rng.random()`` is drawn per measurement, in
    the circuit's order, so on the same stream this returns what
    ``honest_answer``, ``_alice_half`` or ``_bob_half`` would.
    """
    node = _answer_tree(code_a, x, code_b, y)
    while type(node) is _Branch:
        p0, if0, if1 = node
        node = if0 if rng.random() < p0 else if1
    return node


class DeviceStrategy:
    """Interface the protocol engine drives.

    Message order within a round: ``reset``, ``on_keys``, ``on_challenges``,
    and, when at least one side chose challenge b, ``on_questions``.  A side
    that chose challenge a receives no question; its entries in the
    ``on_questions`` call and reply are None.  ``reset(rng)`` gets the same
    generator at every round of a stream block (``streams.Block.device``),
    not a fresh stream per round.
    """

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def on_keys(self, key_a: EtcfKeyPair, key_b: EtcfKeyPair) -> tuple[int, int]:
        raise NotImplementedError

    def on_challenges(self, ct_a: ChallengeType, ct_b: ChallengeType) -> tuple[int, int]:
        raise NotImplementedError

    def on_questions(
        self, x: MeasurementBasis | None, y: MeasurementBasis | None
    ) -> tuple[int | None, int | None, int | None, int | None]:
        raise NotImplementedError


class HonestDevice(DeviceStrategy):
    """Plays the intended strategy; wins every check under the ideal family."""

    def reset(self, rng: np.random.Generator) -> None:
        super().reset(rng)
        self._side_a: HonestInternalState | None = None
        self._side_b: HonestInternalState | None = None

    def on_keys(self, key_a, key_b):
        c_a, self._side_a = honest_commit(key_a, self._rng)
        c_b, self._side_b = honest_commit(key_b, self._rng)
        return c_a, c_b

    def on_challenges(self, ct_a, ct_b):
        responses = []
        for ct, side in ((ct_a, self._side_a), (ct_b, self._side_b)):
            if ct is ChallengeType.A:
                responses.append(honest_challenge_a(side, self._rng))
            else:
                d, _ = honest_challenge_b(side, self._rng)
                responses.append(d)
        return tuple(responses)

    def on_questions(self, x, y):
        if x is None and y is None:
            raise RuntimeError("on_questions called with no question")
        code_a = None if x is None else self._side_a.code
        code_b = None if y is None else self._side_b.code
        return draw_answers(code_a, x, code_b, y, self._rng)


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
        if a is not None and self._rng.random() < self.noise.p_flip_a:
            a ^= 1
        if b is not None and self._rng.random() < self.noise.p_flip_b:
            b ^= 1
        return a, h_a, b, h_b


TABLE_KEYS = ("c_a", "c_b", "z_a", "z_b", "d_a", "d_b", "a", "b", "h_a", "h_b")


@dataclass
class ClassicalDeterministicDevice(DeviceStrategy):
    """Returns fixed responses from a table; useful for targeted failure paths.

    Recognized table keys: c_a, c_b, z_a, z_b, d_a, d_b, a, b, h_a, h_b.
    Missing entries default to 0.
    """

    table: dict = field(default_factory=dict)

    def _get(self, name: str) -> int:
        return int(self.table.get(name, 0))

    def on_keys(self, key_a, key_b):
        return self._get("c_a"), self._get("c_b")

    def on_challenges(self, ct_a, ct_b):
        resp_a = self._get("z_a") if ct_a is ChallengeType.A else self._get("d_a")
        resp_b = self._get("z_b") if ct_b is ChallengeType.A else self._get("d_b")
        return resp_a, resp_b

    def on_questions(self, x, y):
        a = self._get("a") if x is not None else None
        h_a = self._get("h_a") if x is not None else None
        b = self._get("b") if y is not None else None
        h_b = self._get("h_b") if y is not None else None
        return a, h_a, b, h_b


class ClassicalRandomDevice(DeviceStrategy):
    """Samples every response uniformly from its message space."""

    def on_keys(self, key_a, key_b):
        self._keys = (key_a, key_b)
        return (
            int(self._rng.integers(1 << key_a.codomain_bits)),
            int(self._rng.integers(1 << key_b.codomain_bits)),
        )

    def on_challenges(self, ct_a, ct_b):
        responses = []
        for ct, key in zip((ct_a, ct_b), self._keys):
            width = 1 + key.domain_bits if ct is ChallengeType.A else key.domain_bits
            responses.append(int(self._rng.integers(1 << width)))
        return tuple(responses)

    def on_questions(self, x, y):
        a = int(self._rng.integers(2)) if x is not None else None
        h_a = int(self._rng.integers(2)) if x is not None else None
        b = int(self._rng.integers(2)) if y is not None else None
        h_b = int(self._rng.integers(2)) if y is not None else None
        return a, h_a, b, h_b


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
