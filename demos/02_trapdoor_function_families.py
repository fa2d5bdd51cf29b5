"""The two trapdoor function families behind the verifiers' checks.

A claw-free pair is 2-to-1: both branches cover the same image, and the
trapdoor reveals the colliding pair (the claw).  An injective pair has
disjoint branch images, and the trapdoor reveals the unique preimage.
The ideal family realizes this with keyed permutations of small domains
(an ideal key is its 64-bit seed, and its tables are computed only to be
shown here); the toy lattice family uses noise-free linear algebra mod a
prime (functional, deliberately not secure).
"""

from collections import Counter

import numpy as np

from cdiqkd.etcf import (
    EtcfParams,
    KeyKind,
    NoPreimageError,
    check_preimage,
    claw_partner,
    decode_vector,
    encode_vector,
    evaluate,
    image,
    invert,
    keygen,
)

rng = np.random.default_rng(7)

print("=== Ideal claw-free pair, w = 3 ===")
params = EtcfParams(family="ideal", domain_bits=3)
key, trapdoor = keygen(KeyKind.CLAW_FREE, params, rng)
print(f"key seed {key.seed:#018x}; its branch tables (f0, f1), computed:")
print(" ", key.tables[0])
print(" ", key.tables[1])
hits = Counter(evaluate(key, b, x) for b in (0, 1) for x in range(8))
print("every image point has exactly 2 preimages:", sorted(hits.values()) == [2] * 8)

c = evaluate(key, 0, 5)
x0, x1 = invert(trapdoor, c)
print(f"commitment c = {c}: trapdoor reveals the claw (x0={x0}, x1={x1})")
print("claw checks out:", evaluate(key, 0, x0) == evaluate(key, 1, x1) == c)
print("claw partner from the public permutations only:", claw_partner(key, 0, 5) == x1)

gap = min(set(range(1 << key.codomain_bits)) - image(key))
try:
    invert(trapdoor, gap)
except NoPreimageError as exc:
    print(f"inverting the non-image point {gap}: {exc}")

print()
print("=== Ideal injective pair ===")
key, trapdoor = keygen(KeyKind.INJECTIVE, params, rng)
image0 = {evaluate(key, 0, x) for x in range(8)}
image1 = {evaluate(key, 1, x) for x in range(8)}
print("branch images disjoint:", not image0 & image1)
print("inversion returns the unique (branch, preimage):", invert(trapdoor, evaluate(key, 1, 6)))

print()
print("=== Preimage check used for challenge a ===")
key, trapdoor = keygen(KeyKind.CLAW_FREE, params, rng)
c = evaluate(key, 1, 2)
good = (2 << 1) | 1  # response string: branch bit, then the preimage
bad = (3 << 1) | 1
print("valid response accepted:", check_preimage(key, good, c))
print("wrong preimage rejected:", not check_preimage(key, bad, c))

print()
print("=== Toy lattice family ===")
toy = EtcfParams(family="toy-lattice", n=3, m=6, q=17)
key, trapdoor = keygen(KeyKind.CLAW_FREE, toy, rng)
print(f"A is {key.m}x{key.n} mod {key.q}; domain elements pack into {key.domain_bits}-bit strings")
vec = rng.integers(0, 17, size=3)
x = encode_vector(vec, 17)
y = evaluate(key, 0, x)
x0, x1 = invert(trapdoor, y)
print("vector", vec, "encodes to", bin(x))
print("claw partner decodes to", decode_vector(x1, 3, 17), "(= x - s mod q)")
print("round trip holds:", x0 == x and evaluate(key, 1, x1) == y)
