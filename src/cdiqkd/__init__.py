"""Simulator and analysis library for computational device-independent QKD.

Subpackages/modules:

- ``quantum``: 1-4 qubit statevector engine and the CZ gate-teleportation circuit
- ``etcf``: extended trapdoor claw-free function families (ideal keyed permutations, toy lattice)
- ``devices``: honest, noisy, and scripted cheating device strategies
- ``protocol``: verifier state machines, round execution, sifting, estimation, key extraction
- ``streams``: the per-block public, private and device random streams (``streams.STREAM_LAYOUT``)
- ``postprocess``: one-way reconciliation and Toeplitz privacy amplification
- ``keyrate``: entropy and key-rate arithmetic
- ``harness``: seeded experiment runner, transcripts, summaries, replay audit
"""

__version__ = "0.1.0"
