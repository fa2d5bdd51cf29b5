"""Key-rate arithmetic tests."""

import json
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd.devices import HonestDevice
from cdiqkd.keyrate import (
    EntropyPair,
    KeyRateParams,
    KeyRateReport,
    binary_entropy,
    continuity_envelope,
    devetak_winter,
    ideal_rate,
    session_rate_report,
    asymptotic_rate_bound,
)
from cdiqkd.protocol import ProtocolParams, run_session

from .helpers import assert_frequency


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_value_near_011(self):
        assert binary_entropy(0.11) == pytest.approx(0.49999, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_symmetry_and_bounds(self, p):
        value = binary_entropy(p)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestDevetakWinter:
    def test_ideal_weighted_rate(self):
        assert devetak_winter(EntropyPair(1.0, 0.0), 1 / 128) == pytest.approx(
            1 / 128, abs=1e-18
        )

    def test_equal_entropies_give_zero(self):
        for value in (0.0, 0.3, 1.0):
            assert devetak_winter(EntropyPair(value, value), 0.7) == 0.0

    def test_arithmetic(self):
        assert devetak_winter(EntropyPair(0.9, 0.1), 0.5) == pytest.approx(0.4)

    def test_linearity_in_weight(self):
        pair = EntropyPair(0.8, 0.2)
        assert devetak_winter(pair, 0.5) == pytest.approx(0.5 * devetak_winter(pair, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            EntropyPair(1.5, 0.0)
        with pytest.raises(ValueError):
            devetak_winter(EntropyPair(1.0, 0.0), 2.0)


class TestIdealRate:
    def test_exactly_1_over_128(self):
        rate = ideal_rate()
        assert rate == Fraction(1, 128)
        assert rate * 128 == 1

    def test_consistent_with_devetak_winter(self):
        assert float(ideal_rate()) == pytest.approx(
            devetak_winter(EntropyPair(1.0, 0.0), 1 / 128), abs=1e-15
        )

    def test_recomputed_from_overridden_knobs(self):
        params = ProtocolParams(
            rounds=1, epsilon=0.0, p_generate_given_bell=1.0, p_question_hadamard=0.0
        )
        assert ideal_rate(params) == Fraction(1, 4) * Fraction(1, 4)
        params = ProtocolParams(rounds=1, epsilon=0.0, p_theta_hadamard=1.0, p_ct_b=1.0)
        assert ideal_rate(params) == Fraction(1, 2) * Fraction(1, 4)
        assert ideal_rate(ProtocolParams(rounds=1, epsilon=0.0)) == ideal_rate()


class TestAsymptoticRateBound:
    def test_vanishing_epsilon_recovers_ideal_rate(self):
        params = KeyRateParams(epsilon=1e-300, constant_big_c=1.0, exponent_c=0.5)
        assert asymptotic_rate_bound(params) == pytest.approx(1 / 128, abs=1e-12)

    def test_zero_constant(self):
        params = KeyRateParams(epsilon=0.3, constant_big_c=0.0, negl_term=0.001)
        assert asymptotic_rate_bound(params) == pytest.approx(1 / 128 - 0.001, abs=1e-15)

    def test_monotone_in_epsilon(self):
        params_small = KeyRateParams(epsilon=0.01, constant_big_c=1.0, exponent_c=0.5)
        params_large = KeyRateParams(epsilon=0.1, constant_big_c=1.0, exponent_c=0.5)
        assert asymptotic_rate_bound(params_small) >= asymptotic_rate_bound(params_large)

    def test_monotone_sweep(self):
        # epsilon^c |log eps| increases on (0, e^(-1/c)); the bound decreases.
        c = 0.5
        grid = np.geomspace(1e-9, math.exp(-1.0 / c) * 0.99, 50)
        values = [
            asymptotic_rate_bound(KeyRateParams(epsilon=float(e), constant_big_c=0.01, exponent_c=c))
            for e in grid
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_floor_at_zero(self):
        params = KeyRateParams(epsilon=0.3, constant_big_c=100.0)
        assert asymptotic_rate_bound(params) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_rate_bound(KeyRateParams(epsilon=0.0))


class TestContinuityEnvelope:
    def test_zero_distance_is_zero(self):
        for size in (2, 3, 8, 100):
            assert continuity_envelope(0.0, size) == 0.0

    def test_quarter_with_binary_alphabet(self):
        # independent evaluation: 0.5 + 1.25 * h2(0.2)
        h2 = -(0.2 * math.log2(0.2) + 0.8 * math.log2(0.8))
        expected = 2 * 0.25 * 1.0 + 1.25 * h2
        assert continuity_envelope(0.25, 2) == pytest.approx(expected, abs=1e-12)
        assert continuity_envelope(0.25, 2) == pytest.approx(1.4024, abs=1e-3)

    def test_monotone_on_half_interval(self):
        grid = np.linspace(0.0, 0.5, 60)
        values = [continuity_envelope(float(d), 2) for d in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            continuity_envelope(-0.1, 2)
        with pytest.raises(ValueError):
            continuity_envelope(0.1, 1)


class TestSessionRateReport:
    def make_report(self):
        session = run_session(
            HonestDevice(), ProtocolParams(rounds=2048, epsilon=0.01), seed=5
        )
        params = KeyRateParams(epsilon=0.01)
        return session, session_rate_report(
            session, params, final_key_length=4, leak_bits=64, qber_estimate=0.0
        )

    def test_report_contents(self):
        session, report = self.make_report()
        assert report.rounds == 2048
        assert not report.aborted
        assert report.raw_key_length == len(session.raw_key_a)
        assert report.ideal_rate_fraction == "1/128"
        assert report.gross_raw_rate == pytest.approx(len(session.raw_key_a) / 2048)
        assert report.net_final_rate == pytest.approx(4 / len(session.raw_key_a))

    def test_serialization_round_trip(self):
        # Every field survives JSON with its value and its type.
        _, report = self.make_report()
        data = report.to_dict()
        decoded = json.loads(json.dumps(data))
        assert decoded == data and list(decoded) == [f.name for f in fields(KeyRateReport)]
        assert [type(v) for v in decoded.values()] == [type(v) for v in data.values()]

    def test_rate_weight_follows_session_params(self):
        knobs = ProtocolParams(rounds=2048, epsilon=0.01, p_theta_hadamard=1.0, p_ct_b=1.0)
        session = run_session(HonestDevice(), knobs, seed=8)
        params = KeyRateParams(epsilon=0.01)
        report = session_rate_report(session, params)
        assert report.ideal_rate_fraction == "1/8"
        assert report.rate_bound_value == pytest.approx(asymptotic_rate_bound(params, knobs))
        assert_frequency(len(session.raw_key_a), session.rounds, 1 / 8, "raw key rate")
        assert ideal_rate() == Fraction(1, 128)

    def test_aborted_session_reports_zero_final(self):
        from cdiqkd.devices import ClassicalRandomDevice

        session = run_session(
            ClassicalRandomDevice(), ProtocolParams(rounds=256, epsilon=0.05), seed=6
        )
        assert session.aborted
        report = session_rate_report(
            session, KeyRateParams(epsilon=0.05), final_key_length=999, leak_bits=0
        )
        assert report.final_key_length == 0
        assert report.gross_final_rate == report.net_final_rate == 0
        assert report.aborted
