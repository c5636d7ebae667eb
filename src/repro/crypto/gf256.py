"""Arithmetic in the finite field GF(2^8), fully vectorised with numpy.

Both the Reed–Solomon erasure code and the Shamir secret-sharing scheme used
by the DepSky backend operate byte-wise over GF(2^8) with the AES reduction
polynomial ``x^8 + x^4 + x^3 + x + 1`` (0x11B).

Vectorisation strategy
----------------------
Every SCFS write erasure-codes its payload, so :func:`matmul` is the single
hottest function in the system.  It has exactly one kernel, with no Python
loop over bytes: the **nibble split**.  Every field product decomposes over
the two nibbles of the input byte, ``c·b = c·(b & 0x0F) ⊕ c·(b >> 4 << 4)``,
so per coefficient only the two 16-entry columns of :data:`NIBBLE_TABLE` (a
precomputed ``(256, 2, 16)`` tensor that stays L1-resident) are needed.  The
kernel expands them once per coefficient — an outer XOR of the low/high
nibble products — into a 65536-entry ``uint16`` *pair table* mapping two
adjacent input bytes to their two product bytes, then gathers two bytes per
``take`` on ``uint16`` views of the row buffers and XOR-accumulates (XOR is
addition in GF(2^8)) on ``uint64`` views, falling back to narrower lanes for
odd tails and unaligned rows.  Coefficients 0 and 1 skip the table
entirely.  A pair table costs ~15 µs to build and is cached per coefficient
for the life of the process; there are only 254 non-trivial coefficients, so
the cache needs no eviction.

One kernel serves every shape and length.  A per-coefficient row gather
(``MUL_TABLE[coeff][block]``) has lower fixed overhead, but it only wins
below ~1 KiB per row, where a whole matmul costs ~20 µs either way; the
nibble split is ~2× faster at 4 KiB and ~2.5× at 16 KiB (see README.md).

:func:`matmul` accepts an ``out=`` destination so the streaming encoder can
write parity straight into column stripes of its buffer; aliasing the output
with an input is rejected loudly (``ValueError``) because the kernel
accumulates in place.

:func:`matmul_matrix` and :func:`invert_matrix` (Gauss–Jordan with
whole-matrix row elimination per pivot) use the plain gather idiom; the
erasure layer additionally caches inversion results per surviving-block
pattern (see ``repro.crypto.erasure.ErasureCoder``).

A deliberately scalar reference implementation — a triple-nested Python loop
over per-element table lookups, :func:`_matmul_scalar` — exists purely so
property tests can cross-check the kernel byte-for-byte and so the
throughput benchmark (``benchmarks/bench_coding_throughput.py``) can assert
the kernel stays orders of magnitude ahead of per-element Python.

:func:`invert_matrix` raises
:class:`~repro.common.errors.SingularMatrixError` (a ``ValueError``
subclass) when the matrix has no inverse.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SingularMatrixError

#: AES reduction polynomial.
_POLY = 0x11B
#: Generator of the multiplicative group used to build the exp/log tables.
_GENERATOR = 0x03

FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint16)
    log = np.zeros(256, dtype=np.uint16)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by the generator (0x03 = x + 1): x*3 = x*2 ^ x
        x2 = x << 1
        if x2 & 0x100:
            x2 ^= _POLY
        x = x2 ^ x
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    # Full 256x256 multiplication table used for vectorised block operations.
    mul = np.zeros((256, 256), dtype=np.uint8)
    for a in range(1, 256):
        la = int(log[a])
        for b in range(1, 256):
            mul[a, b] = exp[la + int(log[b])]
    return exp, log, mul


_EXP, _LOG, MUL_TABLE = _build_tables()

#: Nibble product tensor ``(256, 2, 16)``: ``NIBBLE_TABLE[c, 0, v] = c·v``
#: and ``NIBBLE_TABLE[c, 1, v] = c·(v << 4)``.  The 32 bytes per coefficient
#: stay L1-resident; the nibble-split kernel expands them into per-coefficient
#: pair tables (see :func:`_pair_table`).
NIBBLE_TABLE = np.stack(
    [MUL_TABLE[:, :16], MUL_TABLE[:, [v << 4 for v in range(16)]]], axis=1
)

_LOW_NIBBLE = np.arange(256) & 0x0F
_HIGH_NIBBLE = np.arange(256) >> 4

#: Pair tables (128 KiB each) keyed by coefficient.  At most the 254
#: coefficients other than 0 and 1 are ever cached; a (4, 2) coder's parity
#: and decode matrices use a few dozen of them.
_pair_cache: dict[int, np.ndarray] = {}


def _pair_table(coeff: int) -> np.ndarray:
    """The 65536-entry ``uint16`` pair-product table for one coefficient.

    Index a table entry by the native-endian ``uint16`` word of two adjacent
    input bytes and it holds the ``uint16`` word of their two product bytes —
    the construction composes with byte order symmetrically, so the same
    layout is correct on little- and big-endian hosts.  Built from the two
    16-entry nibble columns by an outer XOR (every byte product is
    ``low[b & 0x0F] ^ high[b >> 4]``); cached because one build costs ~15 µs
    while the erasure coder reuses the same few coefficients every call.
    """
    table = _pair_cache.get(coeff)
    if table is None:
        low = NIBBLE_TABLE[coeff, 0].astype(np.uint16)
        high = NIBBLE_TABLE[coeff, 1].astype(np.uint16)
        byte_products = low[_LOW_NIBBLE] ^ high[_HIGH_NIBBLE]  # (256,) uint16
        table = ((byte_products[:, None] << np.uint16(8)) | byte_products[None, :])
        table = np.ascontiguousarray(table.reshape(-1))
        _pair_cache[coeff] = table
    return table


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b`` (``b`` must be non-zero)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of ``a`` (``a`` must be non-zero)."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(_EXP[255 - int(_LOG[a])])


def gf_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to ``exponent``."""
    if exponent == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) * exponent) % 255])


def mul_block(scalar: int, block: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``block`` by the field ``scalar`` (vectorised)."""
    if scalar == 0:
        return np.zeros_like(block)
    if scalar == 1:
        return block.copy()
    return MUL_TABLE[scalar][block]


def _check_out(out: np.ndarray, rows: int, length: int,
               matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Validate a caller-supplied ``out=`` buffer (shape, dtype, aliasing)."""
    if out.shape != (rows, length) or out.dtype != np.uint8:
        raise ValueError(
            f"out must be a uint8 array of shape {(rows, length)}, "
            f"got {out.dtype} {out.shape}")
    if np.shares_memory(out, blocks) or np.shares_memory(out, matrix):
        raise ValueError("matmul out= must not alias the inputs "
                         "(the kernel accumulates in place)")
    return out


def matmul(matrix: np.ndarray, blocks: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Multiply an ``(r, k)`` GF(256) matrix by ``k`` data blocks.

    ``blocks`` has shape ``(k, block_len)`` with dtype ``uint8``; the result
    has shape ``(r, block_len)``.  Used by the erasure coder for both
    encoding and decoding, always through the nibble-split kernel (see the
    module docstring).

    ``out=`` writes the result into a caller-owned ``(r, block_len)`` uint8
    array (its prior contents are discarded); rows of ``out`` may be strided
    views into a larger buffer as long as each row is contiguous.  Aliasing
    ``out`` with an input raises ``ValueError``.
    """
    rows, cols = matrix.shape
    if blocks.shape[0] != cols:
        raise ValueError(f"matrix expects {cols} input blocks, got {blocks.shape[0]}")
    length = blocks.shape[1]
    if rows == 0 or cols == 0 or length == 0:
        if out is not None:
            _check_out(out, rows, length, matrix, blocks).fill(0)
            return out
        return np.zeros((rows, length), dtype=np.uint8)
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    if blocks.dtype != np.uint8 or blocks.strides[-1] != 1:
        # Rows must be contiguous byte runs; the 2-D array itself may be a
        # strided (column-sliced) view, which the stripe encoder relies on.
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    if out is None:
        out = np.zeros((rows, length), dtype=np.uint8)
    else:
        _check_out(out, rows, length, matrix, blocks).fill(0)
    return _matmul_nibble(matrix, blocks, out)


def _xor_accumulate(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst ^= src`` with the XOR run on ``uint64`` views where possible.

    ``dst`` is a contiguous uint8 row slice of even length, ``src`` the
    freshly gathered contiguous ``uint16`` products covering it.  Rows views
    carved out of a larger buffer may be unaligned or of length not divisible
    by 8, in which case the accumulation falls back to ``uint16``/``uint8``
    lanes — numpy handles unaligned views, just without the widest stride.
    """
    n = dst.shape[0]
    if n % 8 == 0:
        try:
            d64 = dst.view(np.uint64)
        except ValueError:  # non-contiguous destination row
            dst ^= src.view(np.uint8)
            return
        np.bitwise_xor(d64, src.view(np.uint64), out=d64)
    else:
        try:
            d16 = dst.view(np.uint16)
        except ValueError:
            dst ^= src.view(np.uint8)
            return
        np.bitwise_xor(d16, src, out=d16)


def _matmul_nibble(matrix: np.ndarray, blocks: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Nibble-split pair-table kernel; accumulates into the zeroed ``out``.

    Gathers two input bytes per ``take`` through the per-coefficient pair
    table derived from :data:`NIBBLE_TABLE` and XOR-accumulates the product
    words on wide views of the output rows.  An odd trailing byte is folded
    in through the plain ``MUL_TABLE`` row.
    """
    rows, cols = matrix.shape
    length = blocks.shape[1]
    even = length & ~1
    words = []
    for j in range(cols):
        row = blocks[j, :even]
        try:
            words.append(row.view(np.uint16))
        except ValueError:  # non-contiguous row — copy once, not per coeff
            words.append(np.ascontiguousarray(row).view(np.uint16))
    for i in range(rows):
        dst = out[i, :even]
        for j in range(cols):
            coeff = int(matrix[i, j])
            if coeff == 0:
                continue
            if coeff == 1:
                out[i] ^= blocks[j]
                continue
            products = _pair_table(coeff).take(words[j])
            _xor_accumulate(dst, products)
            if even != length:
                out[i, -1] ^= MUL_TABLE[coeff, blocks[j, -1]]
    return out


def _matmul_scalar(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Scalar reference implementation of :func:`matmul`.

    Triple-nested Python loops over per-element table lookups.  This exists
    only so property tests can cross-check the vectorised paths
    byte-for-byte and so the coding-throughput benchmark has a
    per-element-Python baseline to gate against; never call it on a hot path.
    """
    rows, cols = matrix.shape
    if blocks.shape[0] != cols:
        raise ValueError(f"matrix expects {cols} input blocks, got {blocks.shape[0]}")
    length = blocks.shape[1]
    inputs = [blocks[j].tolist() for j in range(cols)]
    out = np.zeros((rows, length), dtype=np.uint8)
    for i in range(rows):
        acc = [0] * length
        for j in range(cols):
            coeff = int(matrix[i, j])
            if coeff == 0:
                continue
            row = inputs[j]
            for position in range(length):
                acc[position] ^= gf_mul(coeff, row[position])
        out[i] = acc
    return out


def matmul_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two GF(256) matrices (one gather + XOR reduction)."""
    rows, inner = a.shape
    inner_b, cols = b.shape
    if inner != inner_b:
        raise ValueError("matrix dimensions do not match")
    if rows == 0 or inner == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    a = np.ascontiguousarray(a, dtype=np.uint8)
    b = np.ascontiguousarray(b, dtype=np.uint8)
    products = MUL_TABLE[a[:, :, None], b[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def invert_matrix(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss–Jordan elimination.

    Row normalisation and elimination are whole-matrix ``MUL_TABLE`` gathers
    (one per pivot column) rather than per-element loops.  Raises
    :class:`~repro.common.errors.SingularMatrixError` — a ``ValueError``
    subclass — if the matrix is singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    work = np.ascontiguousarray(matrix, dtype=np.uint8).copy()
    inverse = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot_candidates = np.nonzero(work[col:, col])[0]
        if pivot_candidates.size == 0:
            raise SingularMatrixError("matrix is singular over GF(256)")
        pivot_row = col + int(pivot_candidates[0])
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_inv = gf_inv(int(work[col, col]))
        work[col] = MUL_TABLE[pivot_inv, work[col]]
        inverse[col] = MUL_TABLE[pivot_inv, inverse[col]]
        # Eliminate the pivot column from every other row in one shot.
        factors = work[:, col].copy()
        factors[col] = 0
        work ^= MUL_TABLE[factors[:, None], work[col][None, :]]
        inverse ^= MUL_TABLE[factors[:, None], inverse[col][None, :]]
    return inverse


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Return the ``rows x cols`` Vandermonde matrix with x_i = i + 1.

    Using ``i + 1`` (instead of ``i``) keeps every row non-zero so any square
    submatrix obtained after systematisation stays invertible for the small
    ``(n, k)`` configurations DepSky uses.  Built in one shot from the
    exp/log tables: entry ``(r, c)`` is ``(r+1)^c = exp((log(r+1) · c) mod
    255)`` — no non-zero base occurs because ``r + 1 >= 1``.
    """
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    logs = _LOG[np.arange(1, rows + 1)].astype(np.int64)
    exponents = (logs[:, None] * np.arange(cols, dtype=np.int64)[None, :]) % 255
    matrix = _EXP[exponents].astype(np.uint8)
    matrix[:, 0] = 1  # x^0 == 1 for every base
    return matrix
