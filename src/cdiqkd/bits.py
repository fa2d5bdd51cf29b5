"""Fixed-width bit strings packed into Python ints.

Convention used throughout the package: position ``i`` of a bit string is
bit ``i`` of the int (little-endian packing), so the "first bit" of a
string is ``value & 1``.  Widths are carried by context (key parameters,
record headers), not by the values themselves.
"""

from __future__ import annotations


def dot(a: int, b: int) -> int:
    """Inner product of two bit strings modulo 2."""
    return (a & b).bit_count() & 1


def fits(value: int, width: int) -> bool:
    """True if value is a valid width-bit string."""
    return isinstance(value, int) and 0 <= value < (1 << width)


def to_hex(value: int, width: int) -> str:
    """Hex encoding, zero-padded to the number of nibbles covering width."""
    nibbles = (width + 3) // 4
    return format(value, f"0{nibbles}x")

