"""Dense statevector engine for 1-4 qubits.

Covers exactly what the protocol needs: Bell-state preparation, the
H/X/Z/CZ gate set, computational/Hadamard single-qubit measurements, and
the one-EPR-pair controlled-Z gate-teleportation circuit.  All state
comparisons in this package are phase-insensitive (squared overlap).
Protocol rounds do not run the engine: it builds the honest device's
answer trees and the verifier's support sets once, and is the tests'
oracle for both.

Wire convention: wire 0 is the leftmost ket factor, i.e. the most
significant bit of the amplitude index.  All randomness is drawn from an
explicitly passed ``numpy.random.Generator``; there is no global RNG.

Amplitude vectors hold at most 16 complex numbers, and the engine runs
only for those once-per-process builds and the tests, so it is written
plainly rather than for speed: H, X and Z are 2x2 matrices applied to the
``(2**wire, 2, -1)`` view of the amplitudes (high wires, this wire, low
wires), CZ flips the sign where both wires are 1, a measurement
renormalizes the kept half by its own mass, and every state, however it
was made, passes the ``StateVector`` constructor's shape and norm check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_NORM_TOL = 1e-9
_SQRT_HALF = 1.0 / math.sqrt(2.0)


class MeasurementBasis(Enum):
    """The two reference measurement bases."""

    COMPUTATIONAL = "computational"
    HADAMARD = "hadamard"


@dataclass(frozen=True)
class BellLabel:
    """Labels one of the four Bell states by the two phase/flip bits."""

    s_a: int
    s_b: int

    def __post_init__(self) -> None:
        if self.s_a not in (0, 1) or self.s_b not in (0, 1):
            raise ValueError(f"Bell label bits must be 0/1, got {(self.s_a, self.s_b)}")


class StateVector:
    """Normalized complex amplitude vector over 1-4 qubits."""

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        k = int(amps.size).bit_length() - 1
        if amps.size != (1 << k) or not 1 <= k <= 4:
            raise ValueError(f"amplitude vector length {amps.size} is not 2^k for k in 1..4")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        self.amplitudes = amps
        self.qubit_count = k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector({self.qubit_count} qubits, {self.amplitudes!r})"


def ket(bits: tuple[int, ...]) -> StateVector:
    """Computational basis state |bits[0] bits[1] ...>, each bit 0 or 1."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"basis state bits must be 0/1, got {tuple(bits)}")
    amps = np.zeros((2,) * len(bits), dtype=complex)
    amps[tuple(int(b) for b in bits)] = 1.0
    return StateVector(amps)


def plus_minus(sign_bit: int) -> StateVector:
    """|+> for sign_bit=0, |-> for sign_bit=1."""
    return apply_gate(ket((sign_bit,)), "H", 0)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(np.multiply.outer(a.amplitudes, b.amplitudes))


def make_bell(label: BellLabel) -> StateVector:
    """Bell state (Z^s_a X^s_b on the first qubit) applied to (|00>+|11>)/sqrt(2)."""
    state = StateVector((ket((0, 0)).amplitudes + ket((1, 1)).amplitudes) * _SQRT_HALF)
    if label.s_b:
        state = apply_gate(state, "X", 0)
    if label.s_a:
        state = apply_gate(state, "Z", 0)
    return state


def _check_wire(state: StateVector, wire: int) -> None:
    if not 0 <= wire < state.qubit_count:
        raise IndexError(f"qubit index {wire} out of range for {state.qubit_count}-qubit state")


_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT_HALF,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def apply_gate(state: StateVector, gate: str, wire: int, wire2: int | None = None) -> StateVector:
    """Apply H, X, Z (one wire) or CZ (two wires). Returns a new state."""
    _check_wire(state, wire)
    if gate == "CZ":
        if wire2 is None:
            raise ValueError("CZ needs two qubit indices")
        _check_wire(state, wire2)
        if wire2 == wire:
            raise ValueError("CZ qubit indices must differ")
        amps = state.amplitudes.reshape((2,) * state.qubit_count).copy()
        both_one = [slice(None)] * state.qubit_count
        both_one[wire] = both_one[wire2] = 1
        amps[tuple(both_one)] *= -1.0
        return StateVector(amps)
    if wire2 is not None:
        raise ValueError(f"{gate} takes a single qubit index")
    if gate not in _GATES:
        raise ValueError(f"unknown gate {gate!r}")
    return StateVector(_GATES[gate] @ state.amplitudes.reshape(1 << wire, 2, -1))


def measure(
    state: StateVector,
    wire: int,
    basis: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[int, StateVector]:
    """Born-rule measurement of one qubit; returns (outcome, renormalized post-state).

    Hadamard-basis outcome 0 corresponds to |+>, outcome 1 to |->.
    """
    _check_wire(state, wire)
    work = apply_gate(state, "H", wire) if basis is MeasurementBasis.HADAMARD else state
    halves = work.amplitudes.reshape(1 << wire, 2, -1)
    mass = (abs(halves) ** 2).sum(axis=(0, 2))
    outcome = 0 if rng.random() < mass[0] else 1
    kept = np.zeros_like(halves)
    kept[:, outcome] = halves[:, outcome] / math.sqrt(mass[outcome])
    post = StateVector(kept)
    if basis is MeasurementBasis.HADAMARD:
        post = apply_gate(post, "H", wire)
    return outcome, post


def measurement_probabilities(state: StateVector, bases: tuple[MeasurementBasis, ...]) -> np.ndarray:
    """Joint outcome probabilities for measuring every qubit, one basis per wire."""
    if len(bases) != state.qubit_count:
        raise ValueError("one basis per qubit required")
    work = state
    for wire, basis in enumerate(bases):
        if basis is MeasurementBasis.HADAMARD:
            work = apply_gate(work, "H", wire)
    amps = work.amplitudes
    return amps.real**2 + amps.imag**2


@dataclass(frozen=True)
class TeleportOutcome:
    """Heralded bits and the two-qubit output of the CZ gate-teleportation circuit."""

    h_a: int
    h_b: int
    post_state: StateVector


def _cnot(state: StateVector, control: int, target: int) -> StateVector:
    state = apply_gate(state, "H", target)
    state = apply_gate(state, "CZ", control, target)
    return apply_gate(state, "H", target)


def teleport_cz(input_state: StateVector, rng: np.random.Generator) -> TeleportOutcome:
    """Apply CZ to a two-qubit state via one EPR pair and local operations.

    Wires, top to bottom: 0 = first data qubit, 1 and 2 = EPR halves,
    3 = second data qubit.  The circuit applies H to wire 2, a CNOT from
    wire 1 onto wire 0, a CNOT from wire 2 onto wire 3, then measures
    wires 0 and 3 to obtain the heralded bits (h_a, h_b).  The output on
    wires 1 and 2 equals
    (X^h_a Z^h_b (x) X^h_b Z^h_a) CZ |input> up to global phase.
    """
    if input_state.qubit_count != 2:
        raise ValueError("teleport_cz expects a two-qubit input")
    epr = make_bell(BellLabel(0, 0))
    full = input_state.amplitudes.reshape(2, 1, 1, 2) * epr.amplitudes.reshape(1, 2, 2, 1)
    state = apply_gate(StateVector(full), "H", 2)
    state = _cnot(state, control=1, target=0)
    state = _cnot(state, control=2, target=3)
    h_a, state = measure(state, 0, MeasurementBasis.COMPUTATIONAL, rng)
    h_b, state = measure(state, 3, MeasurementBasis.COMPUTATIONAL, rng)
    post = state.amplitudes.reshape(2, 2, 2, 2)[h_a, :, :, h_b]
    return TeleportOutcome(h_a, h_b, StateVector(post))


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2; insensitive to global phase."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("states have different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def pauli_correction(state: StateVector, wire: int, x_power: int, z_power: int) -> StateVector:
    """Apply X^x_power Z^z_power to one wire (Z first, matching operator order)."""
    if z_power:
        state = apply_gate(state, "Z", wire)
    if x_power:
        state = apply_gate(state, "X", wire)
    return state
