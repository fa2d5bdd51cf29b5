"""Entropy and key-rate arithmetic.

The asymptotic one-way rate is weight * (H(A|E) - H(A|B)), where the
weight is the probability that a round yields a raw key bit.  It is the
product of the verifiers' round coins, read from the ``ProtocolParams``
the session ran with: both challenges b, both state bases Hadamard, the
generate tag, and both questions computational.  With the default
fair-coin parameters the ideal weight is 1/4 * 1/4 * 1/2 * 1/4 = 1/128;
overriding the knobs recomputes the product rather than trusting the
constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .protocol import ProtocolParams, SessionResult


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p, in bits; 0 log 0 := 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@dataclass(frozen=True)
class EntropyPair:
    """Conditional entropies of Alice's answer bit given Eve / given Bob."""

    h_a_given_e: float
    h_a_given_b: float

    def __post_init__(self) -> None:
        for value in (self.h_a_given_e, self.h_a_given_b):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"single-bit conditional entropy {value} outside [0, 1]")


def devetak_winter(entropies: EntropyPair, weight: float) -> float:
    """Weighted one-way rate weight * (H(A|E) - H(A|B))."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight {weight} outside [0, 1]")
    return weight * (entropies.h_a_given_e - entropies.h_a_given_b)


@dataclass(frozen=True)
class KeyRateParams:
    """Inputs to the rate bounds.

    ``constant_big_c`` and ``exponent_c`` are the unspecified constants of
    the asymptotic bound; the defaults here are illustrative placeholders,
    not derived values, and reports always carry the values used.  The
    constant and ``negl_term`` must be finite: a NaN or an infinity is no
    bound, and JSON cannot carry either.
    """

    epsilon: float = 0.01
    exponent_c: float = 0.5
    constant_big_c: float = 1.0
    negl_term: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.exponent_c <= 1.0:
            raise ValueError(f"exponent must be in (0, 1], got {self.exponent_c}")
        if not (0 <= self.constant_big_c < math.inf and 0 <= self.negl_term < math.inf):
            raise ValueError("constant and negl term must be finite and nonnegative")


def ideal_rate(protocol: ProtocolParams | None = None) -> Fraction:
    """Exact rational rate of the ideal state: the product of the round coins.

    A round yields a raw key bit when both challenges are b (p_ct_b each),
    both state bases are Hadamard (p_theta_hadamard each), the Bell round
    is tagged generate (p_generate_given_bell), and both questions are
    computational (1 - p_question_hadamard each).  ``None`` means the
    fair-coin defaults of ``ProtocolParams``, which give exactly 1/128.
    H(A|E) = 1 and H(A|B) = 0 for the ideal state, so the entropy
    difference contributes a factor of one.
    """
    if protocol is None:
        protocol = ProtocolParams(rounds=1, epsilon=0.0)
    p_b = Fraction(protocol.p_ct_b)
    p_hadamard = Fraction(protocol.p_theta_hadamard)
    p_computational = 1 - Fraction(protocol.p_question_hadamard)
    p_generate = Fraction(protocol.p_generate_given_bell)
    return p_b**2 * p_hadamard**2 * p_generate * p_computational**2


def asymptotic_rate_bound(params: KeyRateParams, protocol: ProtocolParams | None = None) -> float:
    """Asymptotic lower bound: ideal rate - C eps^c |log2 eps| - negl, floored at 0.

    The ideal rate is ``ideal_rate(protocol)``; ``None`` means fair coins.
    """
    eps = params.epsilon
    penalty = params.constant_big_c * eps**params.exponent_c * abs(math.log2(eps))
    return max(0.0, float(ideal_rate(protocol)) - penalty - params.negl_term)


def continuity_envelope(delta: float, alphabet_size: int) -> float:
    """Conditional-entropy continuity bound for trace distance delta.

    Evaluates 2 delta log2(d) + (1 + delta) h2(delta / (1 + delta)), the
    standard tight envelope for a d-dimensional classical register.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"trace distance {delta} outside [0, 1]")
    if alphabet_size < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet_size}")
    if delta == 0.0:
        return 0.0
    return 2.0 * delta * math.log2(alphabet_size) + (1.0 + delta) * binary_entropy(
        delta / (1.0 + delta)
    )


def sig12(value: float) -> float:
    # Summary convention: decimal with 12 significant digits.
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class KeyRateReport:
    """Observed session statistics next to the analytic bounds.

    Gross rates divide by all protocol rounds; the net final rate divides
    by kept raw bits only (mismatched-basis generation positions are
    dropped, and both conventions are reported).
    """

    rounds: int
    aborted: bool
    fail_fraction: float
    sifted_count: int
    tested_count: int
    generate_count: int
    matched_count: int
    raw_key_length: int
    final_key_length: int
    leak_bits: int
    qber_estimate: float
    gross_raw_rate: float
    gross_final_rate: float
    net_final_rate: float
    ideal_rate_fraction: str
    ideal_rate_value: float
    devetak_winter_ideal: float
    rate_bound_value: float

    def to_dict(self) -> dict:
        data = asdict(self)
        return {
            key: sig12(value) if isinstance(value, float) else value
            for key, value in data.items()
        }


def session_rate_report(
    result: SessionResult,
    params: KeyRateParams,
    final_key_length: int = 0,
    leak_bits: int = 0,
    qber_estimate: float = 0.0,
) -> KeyRateReport:
    """Bundle a finished session with the configured rate bounds.

    The ideal rate is weighted by the round coins the session ran with.
    """
    rounds = result.rounds
    raw_len = int(len(result.raw_key_a))
    final_len = 0 if result.aborted else int(final_key_length)
    rate = ideal_rate(result.params)
    return KeyRateReport(
        rounds=rounds,
        aborted=result.aborted,
        fail_fraction=result.fail_fraction,
        sifted_count=result.sifted_count,
        tested_count=result.tested_count,
        generate_count=result.generate_count,
        matched_count=result.matched_count,
        raw_key_length=raw_len,
        final_key_length=final_len,
        leak_bits=int(leak_bits),
        qber_estimate=qber_estimate,
        gross_raw_rate=raw_len / rounds if rounds else 0.0,
        gross_final_rate=final_len / rounds if rounds else 0.0,
        net_final_rate=final_len / raw_len if raw_len else 0.0,
        ideal_rate_fraction=f"{rate.numerator}/{rate.denominator}",
        ideal_rate_value=float(rate),
        devetak_winter_ideal=devetak_winter(EntropyPair(1.0, 0.0), float(rate)),
        rate_bound_value=asymptotic_rate_bound(params, result.params),
    )
