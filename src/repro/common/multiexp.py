"""Modular-exponentiation kernels behind the validation fast path.

Two techniques, both stdlib-only, both deterministic:

* :class:`FixedBaseTable` — fixed-base windowed precomputation.  The
  exponent is split into base-``2**w`` digits and every ``base**(d *
  2**(w*i))`` is precomputed, so one exponentiation costs one modular
  multiplication per digit and **zero squarings**.  Worth it for bases
  that recur: the group generator (every signature) and hot public keys
  (every endorsement by the same identity).
* :class:`WindowTableLRU` — per-base tables behind a real LRU.  Building
  a table costs the equivalent of a few plain ``pow()`` calls, so a base
  only earns its table after ``build_after`` uses; until then the cache
  counts uses and answers with plain ``pow()``.  Bounded by ``maxsize``
  with least-recently-used eviction.

Every kernel feeds :data:`repro.common.tracing.PERF` so benchmarks and
``Tracer.summary(perf=True)`` can report exact modexp counts.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.tracing import PERF

#: Window width (bits per digit) for the fixed-base tables.  Width 4
#: keeps the build cost low (15 multiplications per digit row — a table
#: for 256-bit exponents costs under four plain ``pow()`` calls and has
#: paid for itself after about five uses) while replacing their ~256
#: squarings + ~50 multiplications with 64 table multiplications.
DEFAULT_WINDOW = 4


class FixedBaseTable:
    """Digit table for ``base ** e % modulus`` with a fixed base.

    ``rows[i][d] == base ** (d << (window * i)) % modulus``; an
    exponentiation is then the product of one entry per non-zero digit.
    """

    __slots__ = ("base", "modulus", "window", "_mask", "_rows")

    def __init__(self, base: int, modulus: int, bits: int, window: int = DEFAULT_WINDOW) -> None:
        self.base = base
        self.modulus = modulus
        self.window = window
        self._mask = (1 << window) - 1
        digits = max(1, -(-bits // window))
        rows = []
        cur = base % modulus
        for _ in range(digits):
            row = [1] * (1 << window)
            row[1] = cur
            for d in range(2, 1 << window):
                row[d] = row[d - 1] * cur % modulus
            rows.append(row)
            # base ** (2 ** (window * (i + 1))) for the next digit row.
            cur = row[self._mask] * cur % modulus
        self._rows = rows
        PERF.table_builds += 1

    def covers(self, exponent: int) -> bool:
        return exponent >= 0 and (exponent >> (self.window * len(self._rows))) == 0

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` (falls back past table range)."""
        if not self.covers(exponent):
            PERF.modexp_full += 1
            return pow(self.base, exponent, self.modulus)
        PERF.modexp_windowed += 1
        modulus = self.modulus
        mask = self._mask
        window = self.window
        acc = 1
        i = 0
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * self._rows[i][digit] % modulus
            exponent >>= window
            i += 1
        return acc


class WindowTableLRU:
    """Per-base :class:`FixedBaseTable` cache with LRU eviction.

    A base is answered with plain ``pow()`` until it has been asked for
    ``build_after`` times; the table build (a few plain-``pow``'s worth
    of multiplications) is only paid for bases that are demonstrably hot
    — in this simulator, the recurring endorser public keys.
    """

    def __init__(self, maxsize: int = 96, build_after: int = 6) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.build_after = build_after
        # base -> int use-count (cold) | FixedBaseTable (hot)
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def table_count(self) -> int:
        return sum(1 for e in self._entries.values() if isinstance(e, FixedBaseTable))

    def has_table(self, base: int) -> bool:
        return isinstance(self._entries.get(base), FixedBaseTable)

    def clear(self) -> None:
        self._entries.clear()

    def powmod(self, base: int, exponent: int, modulus: int, bits: int) -> int:
        """``base ** exponent % modulus``, via a table once ``base`` is hot."""
        entry = self._entries.get(base)
        if isinstance(entry, FixedBaseTable):
            self._entries.move_to_end(base)
            return entry.pow(exponent)
        uses = (entry or 0) + 1
        if uses >= self.build_after:
            table = FixedBaseTable(base, modulus, bits)
            self._entries[base] = table
            self._entries.move_to_end(base)
            self._evict()
            return table.pow(exponent)
        self._entries[base] = uses
        self._entries.move_to_end(base)
        self._evict()
        PERF.modexp_full += 1
        return pow(base, exponent, modulus)

    def _evict(self) -> None:
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
