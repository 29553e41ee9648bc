"""The decimal text of printed numbers, and the JSON writer of the command line.

CPython 3.11 converts an int to decimal in time quadratic in its length, so
`decimal_str` hands a long int to the `decimal` module instead, whose
multiplication is subquadratic.  Split n = hi * 2^k + lo with k half its bit
length, convert both halves and combine them as hi * 2^k + lo in decimal
arithmetic, with every power of two formed once: this is CPython 3.12's
`_pylong.int_to_decimal_string` (Brent and Zimmermann, *Modern Computer
Arithmetic*, 2010, section 1.7).  Below the cutover `str()` is faster.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from json.encoder import encode_basestring_ascii as _quote

# 15,000 digits.  On a 2-vCPU Xeon host with CPython 3.11.7 (best of 7), str()
# and the decimal route broke even near 9,000 digits; at 15,000 str() took
# 3.6 ms against 2.8, at 81,000 112 ms against 26.  The margin pays for the
# 2 ms import of `decimal` in a fresh process, as `bound` prints six ints.
CUTOVER_BITS = 49_829
# leaves go to Decimal(int), which is quadratic too; 512 to 2048 bits timed alike
_LEAF_BITS = 1024


# the texts of the ints converted so far inside `each_int_once`, else None
_texts: ContextVar[dict[int, str] | None] = ContextVar("_texts", default=None)


@contextmanager
def each_int_once():
    """Within the block, `decimal_str` converts each distinct int once and
    hands out the same text for it again.  `bound` prints B2 three times:
    as b2, as b_ceil and inside the radical b.  Nothing is kept past the
    block."""
    token = _texts.set({})
    try:
        yield
    finally:
        _texts.reset(token)


def decimal_str(n: int) -> str:
    """str(n), in subquadratic time past `CUTOVER_BITS`.  Like str(), it
    raises past `sys.get_int_max_str_digits()`, which 0 lifts."""
    texts = _texts.get()
    if texts is None:
        return _decimal_str(n)
    text = texts.get(n)
    if text is None:
        text = texts[n] = _decimal_str(n)
    return text


def _decimal_str(n: int) -> str:
    if n.bit_length() <= CUTOVER_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal_str(-n)
    import decimal

    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def power(k: int) -> decimal.Decimal:
        if k not in powers:
            powers[k] = D(1 << k) if k <= _LEAF_BITS else power(k >> 1) * power(k - (k >> 1))
        return powers[k]

    def inner(m: int, bits: int) -> decimal.Decimal:
        if bits <= _LEAF_BITS:
            return D(m)
        k = bits >> 1
        hi = m >> k
        return inner(m - (hi << k), k) + inner(hi, bits - k) * power(k)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(inner(n, n.bit_length()))
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(text):
        raise ValueError(
            f"Exceeds the limit ({limit} digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit"
        )
    return text


def json_text(payload) -> str:
    """json.dumps(payload, indent=2, default=str), byte for byte, with every
    int written by `decimal_str` (the json encoder calls int.__repr__), each
    distinct one converted once."""
    with each_int_once():
        return _json(payload, "\n")


def _json(v, newline: str) -> str:
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return decimal_str(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in v]) + newline + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = newline + "  "
        items = [_quote(_key(k)) + ": " + _json(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if v is None or isinstance(v, (bool, float)):
        return json.dumps(v)
    return _quote(str(v))


def _key(key) -> str:
    """A dict key as the json encoder writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return decimal_str(key)
    if key is None or isinstance(key, (bool, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
