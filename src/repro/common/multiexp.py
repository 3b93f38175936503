"""Modular-exponentiation kernels behind the validation fast path.

* :class:`FixedBaseTable` — fixed-base windowed precomputation.  The
  exponent is split into base-``2**w`` digits and every ``base**(d *
  2**(w*i))`` is precomputed, so one exponentiation costs one modular
  multiplication per digit and **zero squarings**.
* :class:`WindowTableLRU` — per-base tables for one modulus behind a
  bounded LRU, built on a base's first use: a 32-row build costs less
  than two native ``pow()`` calls and a look-up an eighth of one, so a
  table has paid for itself by its second use and counting uses first
  only delays it (every key in the benchmark's traffic is used twice).

**Reduction is by folding, not by ``%``.**  A table only accepts a
modulus ``m = 2**n - k`` with ``2*|k| + 2 <= n`` (``|k|`` = bit length):
``2**n == k (mod m)``, so ``x == (x >> n)*k + (x & (2**n - 1))`` — a
shift, a short product and a mask, where the generic ``%`` on a
double-width product costs more than the product itself.  The
accumulator stays *loosely reduced*, ``acc < 2**n + 2**(2*|k|+2)``: times
a canonical table entry it is below ``2**(2n+1)``, one fold leaves less
than ``2**(n+|k|+2)``, the second less than ``2**n + 2**(2*|k|+2)`` — the
bound again (property-tested in ``tests/test_multiexp.py``) — and one
``% m`` canonicalises the result on the way out.  There is no second
reduction path: any other modulus is refused at construction.

**Past the table's range is Horner, not ``pow()``.**  A wider exponent
is read in table-width limbs, most significant first: look a limb up,
square once per bit of table width, multiply the next look-up in.  Two
loosely reduced operands multiply to less than ``2**(2n+2)`` and two
folds still land inside the bound, so squarings share the one fold.

Every kernel feeds :data:`repro.common.tracing.PERF` so benchmarks and
``Tracer.summary(perf=True)`` can report exact modexp counts.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.tracing import PERF

#: Window width (bits per digit) for the fixed-base tables.  Width 4
#: keeps the build cost low (15 multiplications per digit row) while
#: replacing a plain ``pow()``'s one squaring per exponent bit with one
#: table multiplication per four.
DEFAULT_WINDOW = 4


def fold_twice(x: int, n: int, k: int, low: int) -> int:
    """``x < 2**(2n+2)`` loosely reduced mod ``2**n - k``; ``low = 2**n - 1``."""
    x = (x >> n) * k + (x & low)
    return (x >> n) * k + (x & low)


class FixedBaseTable:
    """Digit table for ``base ** e % modulus`` with a fixed base.

    ``rows[i][d] == base ** (d << (window * i)) % modulus``; an
    exponentiation is then the product of one entry per non-zero digit.
    Raises ``ValueError`` unless ``modulus`` folds (module docstring).
    """

    __slots__ = ("base", "modulus", "window", "_mask", "_rows", "_fold")

    def __init__(self, base: int, modulus: int, bits: int, window: int = DEFAULT_WINDOW) -> None:
        n = modulus.bit_length()
        k = (1 << n) - modulus
        if 2 * k.bit_length() + 2 > n:
            raise ValueError(f"2**{n} - k with |k| = {k.bit_length()} is too wide for folding")
        low = (1 << n) - 1
        self.base = base
        self.modulus = modulus
        self.window = window
        self._mask = (1 << window) - 1
        self._fold = (n, k, low)
        digits = max(1, -(-bits // window))
        rows = []
        cur = base % modulus
        for _ in range(digits):
            row = [1, cur]
            for _ in range(self._mask):
                row.append(fold_twice(row[-1] * cur, n, k, low) % modulus)
            # One too many: base ** (2 ** (window * (i + 1))), the next row's base.
            cur = row.pop()
            rows.append(row)
        self._rows = rows
        PERF.table_builds += 1

    def covers(self, exponent: int) -> bool:
        return exponent >= 0 and (exponent >> (self.window * len(self._rows))) == 0

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus``, any ``exponent >= 0``."""
        if exponent < 0:
            raise ValueError("negative exponent")
        PERF.modexp_windowed += 1
        n, k, low = self._fold
        mask = self._mask
        window = self.window
        span = window * len(self._rows)
        shift = max(exponent.bit_length() - 1, 0) // span * span
        acc = 1  # loosely reduced throughout: < 2**n + 2**(2*|k| + 2)
        while True:
            limb = exponent >> shift & ((1 << span) - 1)
            for row in self._rows:
                if not limb:
                    break
                digit = limb & mask
                if digit:
                    # fold_twice() inlined: the call alone is 5-8 % of a look-up.
                    acc *= row[digit]
                    acc = (acc >> n) * k + (acc & low)
                    acc = (acc >> n) * k + (acc & low)
                limb >>= window
            if not shift:
                return acc % self.modulus
            shift -= span  # past the table: Horner, one limb down
            for _ in range(span):
                acc = fold_twice(acc * acc, n, k, low)


class WindowTableLRU:
    """Per-base :class:`FixedBaseTable` cache, built on first use, LRU-evicted.

    Modulus and exponent width are fixed at construction: tables are
    keyed by base, so one cache must never serve two moduli.
    """

    def __init__(self, modulus: int, bits: int, maxsize: int = 96) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.modulus = modulus
        self.bits = bits
        self.maxsize = maxsize
        self._tables: OrderedDict = OrderedDict()  # base -> FixedBaseTable

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, base: int) -> bool:
        return base in self._tables

    def clear(self) -> None:
        self._tables.clear()

    def powmod(self, base: int, exponent: int) -> int:
        """``base ** exponent % modulus`` from ``base``'s table."""
        table = self._tables.get(base)
        if table is None:
            table = self._tables[base] = FixedBaseTable(base, self.modulus, self.bits)
            if len(self._tables) > self.maxsize:
                self._tables.popitem(last=False)
        else:
            self._tables.move_to_end(base)
        return table.pow(exponent)
