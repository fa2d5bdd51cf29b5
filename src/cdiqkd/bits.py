"""Fixed-width bit strings packed into Python ints, and the one check of each kind of integer.

Convention used throughout the package: position ``i`` of a bit string is
bit ``i`` of the int (little-endian packing), so the "first bit" of a
string is ``value & 1``.  Widths are carried by context (key parameters,
record headers), not by the values themselves.
"""

from __future__ import annotations

import numpy as np


def dot(a: int, b: int) -> int:
    """Inner product of two bit strings modulo 2."""
    return (a & b).bit_count() & 1


def parity(values: np.ndarray) -> np.ndarray:
    """The parity of each non-negative int64 of an array, so parity(a & b) is ``dot``
    elementwise; by xor folding, as ``np.bitwise_count`` needs numpy 2.0."""
    values = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        values ^= values >> shift
    return values & 1


def fits(value, width: int) -> bool:
    """True if value is a width-bit string: a Python or numpy integer, never a bool, in range."""
    integer = isinstance(value, (int, np.integer)) and type(value) is not bool
    return integer and 0 <= value < (1 << width)


def fits_each(values, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``fits`` of each entry of ``values``, and the entries as int64s, 0 where they do not
    fit; width at most 63.  An integer-dtype array is range-checked as an array; anything
    else (a list, a bool or float array) is read entry by entry, so that an entry no int64
    holds, a bool or None is False, never an error.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.dtype == np.uint64:
            ok = values < np.uint64(1 << width)
        else:
            values = values.astype(np.int64, copy=False)
            ok = (values >> width) == 0  # a negative int64 shifts to -1
        return ok, np.where(ok, values, 0).astype(np.int64, copy=False)
    ok = [fits(value, width) for value in values]
    ints = [int(value) if fit else 0 for value, fit in zip(values, ok)]
    return np.array(ok, dtype=bool), np.array(ints, dtype=np.int64)


def exact_int(value, name: str):
    """value itself if it is a Python int (a JSON integer, a size); else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value
