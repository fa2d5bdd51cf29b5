"""Message-by-message walkthrough of single rounds with an honest device.

Each round: the verifiers pick state bases and keys, the device commits,
each verifier independently picks a challenge type, and challenge-b sides
finish with a question/answer exchange.  The round type falls out of the
published choices only.
"""

from cdiqkd.devices import ChallengeType, HonestDevice
from cdiqkd.etcf import EtcfParams
from cdiqkd.protocol import (
    ProtocolParams,
    RoundType,
    honest_support,
    run_session,
    win_condition,
)

BASE = dict(rounds=1, epsilon=0.05, etcf=EtcfParams(family="ideal", domain_bits=4))


def show_round(name, seed, **knobs):
    # A one-round session: the round draws from block 0 of the seed's streams.
    record = run_session(HonestDevice(), ProtocolParams(**BASE, **knobs), seed).records[0]
    print(f"--- {name} ---")
    print(f"state bases: alice={record.alice.theta.value}, bob={record.bob.theta.value}")
    print(f"challenges:  alice={record.alice.ct.value}, bob={record.bob.ct.value}")
    print(f"round type:  {record.round_type.value}")
    for label, side in (("alice", record.alice), ("bob", record.bob)):
        if side.ct is ChallengeType.A:
            print(f"  {label}: commitment {side.c:#x}, preimage response {side.z:#x}")
        else:
            print(
                f"  {label}: commitment {side.c:#x}, equation string {side.d:#x}, "
                f"question {side.question.value}, answer {side.answer}, herald {side.h}"
            )
    if record.round_type is not RoundType.SIFTED:
        print(f"verdict: {win_condition(record).value}")
        if record.alice.ct is ChallengeType.B and record.bob.ct is ChallengeType.B:
            print(f"honest answer support for these heralds: {sorted(honest_support(record))}")
    else:
        print("verdict: none (mismatched challenges, round is sifted out)")
    print()


# Force each interesting configuration through the probability knobs.
show_round("Bell round", seed=1, p_theta_hadamard=1.0, p_ct_b=1.0)
show_round("product round, both computational bases", seed=2, p_theta_hadamard=0.0, p_ct_b=1.0)
show_round("product round, both challenge a", seed=3, p_ct_b=0.0)
show_round("mixed challenges (sifted)", seed=0, p_theta_hadamard=1.0)

print("Note: the verifiers never tell the device the state bases; the device")
print("cannot tell a Bell round from a product round until the checks land.")
