"""Interned columnar kernel: dense-int terms and array-backed relations.

Every constant a :class:`~repro.db.database.Database` mentions is
*interned* to a dense non-negative int by a per-database
:class:`SymbolTable` (monotone: ids are only ever appended, so they
survive ``apply_delta`` update streams and WAL replay within a process).
A relation's tuples then become a sorted, duplicate-free vector of
fixed-width *row codes* — each tuple packed into one int64 by
bit-shifting its field ids — and the set algebra the fixpoint engines
grind on (union, difference, subset, equality, membership, complement,
semi-join filtering) turns into integer-vector arithmetic:

* joins probe sorted runs of key codes (binary search / radix order)
  instead of hashing Python tuples per row;
* semi-join reduction is bitset membership filtering over key codes;
* complements are range arithmetic over the interned universe instead
  of materialising ``|A|^k`` Python tuples;
* per-tuple hashing and allocation leave the hot path entirely — the
  only place tuples are rebuilt is :meth:`SymbolTable.extern_code`,
  and that is memoised.

Two backends implement the same narrow interface: the portable baseline
stores code vectors in :mod:`array` ``array('q')`` columns with plain
``int`` sets for membership, and an optional numpy fast path (selected
at import, reported in bench metadata) vectorises the same operations.
``REPRO_KERNEL_BACKEND=array|numpy`` forces a backend; asking for numpy
without numpy installed falls back to ``array`` rather than failing —
the kernel is an accelerator, never a dependency.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # optional fast path; the array backend is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

_MAX_CODE_BITS = 63
"""Row codes must fit a signed 64-bit int (``array('q')`` / int64)."""

_BITSET_LIMIT = 1 << 16
"""Largest key-code space a pure-Python membership bitset will cover;
beyond it, membership falls back to a hash set (the bitset would cost
more to build than it saves)."""


def _select_backend() -> str:
    forced = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
    if forced == "array":
        return "array"
    if forced == "numpy":
        return "numpy" if _np is not None else "array"
    return "numpy" if _np is not None else "array"


_BACKEND = _select_backend()


def backend() -> str:
    """The active kernel backend: ``"numpy"`` or ``"array"``."""
    return _BACKEND


def set_backend(name: str) -> str:
    """Force the backend (tests/benchmarks); returns the previous one.

    Asking for ``"numpy"`` without numpy installed raises — tests that
    parametrise over backends skip instead of silently re-testing the
    baseline.
    """
    global _BACKEND
    if name not in ("numpy", "array"):
        raise ValueError("unknown kernel backend %r" % name)
    if name == "numpy" and _np is None:
        raise RuntimeError("numpy backend requested but numpy is not installed")
    previous = _BACKEND
    _BACKEND = name
    return previous


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process (``array`` always; numpy when present)."""
    return ("array", "numpy") if _np is not None else ("array",)


def has_numpy() -> bool:
    """True when the numpy fast path is importable."""
    return _np is not None


def canon_columns(columns) -> Tuple[int, ...]:
    """Normalise a column specification to a tuple of plain ints.

    Cache keys for :meth:`Relation.index_on` / ``keyed_complement_on``
    must compare by *value*: a caller passing a list, a generator, an
    ``array('q')`` slice or numpy ints must hit the same cached
    structure as one passing a tuple of ints.  Every cache at the
    kernel boundary routes its column spec through here exactly once.
    """
    return tuple(int(c) for c in columns)


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------


class SymbolTable:
    """Dense interning of constants: value ↔ contiguous non-negative id.

    Interning is *monotone*: an id, once assigned, never changes and is
    never reused, so code vectors built against this table stay valid as
    the table grows — until the per-field bit width (:attr:`shift`) must
    widen to fit new ids, which bumps :attr:`generation` and retires
    codes built under the old width (their caches key on the width).

    ``extern_code`` memoises decoded tuples, so a fixpoint that derives
    the same head tuples round after round pays the Python-tuple
    construction cost once.
    """

    __slots__ = ("_values", "_ids", "_shift", "generation", "_tuples", "_misc")

    _MIN_SHIFT = 8

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: List[Any] = []
        self._ids: Dict[Any, int] = {}
        self._shift = self._MIN_SHIFT
        self.generation = 0
        # (arity, code) -> tuple, cleared when the shift widens.
        self._tuples: Dict[Tuple[int, int], tuple] = {}
        # Scratch caches keyed by kernel helpers (universe products and
        # the like); cleared with the tuple cache on generation bumps.
        self._misc: Dict[Any, Any] = {}
        for v in values:
            self.intern(v)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def shift(self) -> int:
        """Bits per tuple field under the current generation."""
        return self._shift

    def capacity(self) -> int:
        """Ids representable without widening the field width."""
        return 1 << self._shift

    def intern(self, value: Any) -> int:
        """The dense id of ``value``, assigning the next id when new."""
        ids = self._ids
        i = ids.get(value)
        if i is None:
            i = len(self._values)
            ids[value] = i
            self._values.append(value)
            if i >= (1 << self._shift):
                while i >= (1 << self._shift):
                    self._shift += 4
                self.generation += 1
                self._tuples.clear()
                self._misc.clear()
        return i

    def extern(self, ident: int) -> Any:
        """The value behind a dense id."""
        return self._values[ident]

    def intern_tuple(self, t: Sequence[Any]) -> Tuple[int, ...]:
        """Field ids of a tuple (interning new values)."""
        intern = self.intern
        return tuple(intern(v) for v in t)

    def extern_code(self, code: int, arity: int) -> tuple:
        """Unpack a row code into a value tuple (memoised)."""
        key = (arity, code)
        t = self._tuples.get(key)
        if t is None:
            b = self._shift
            mask = (1 << b) - 1
            values = self._values
            t = tuple(
                values[(code >> (b * (arity - 1 - k))) & mask]
                for k in range(arity)
            )
            self._tuples[key] = t
        return t

    def fits(self, width: int) -> bool:
        """Whether ``width`` packed fields fit a signed 64-bit code."""
        return width * self._shift <= _MAX_CODE_BITS

    def scratch(self) -> Dict[Any, Any]:
        """A per-generation scratch cache for kernel helpers."""
        return self._misc

    def __repr__(self) -> str:
        return "SymbolTable(%d symbols, %d bits/field, gen %d)" % (
            len(self._values),
            self._shift,
            self.generation,
        )


# ----------------------------------------------------------------------
# Code vectors: the backend-dependent storage
# ----------------------------------------------------------------------
#
# A "code vector" is the kernel's unit of columnar storage: a sorted,
# duplicate-free sequence of int64 row codes.  Under numpy that is an
# ``np.int64`` ndarray; under the array backend an ``array('q')`` plus a
# lazily-built frozenset for O(1) membership.


class CodeVector:
    """A sorted duplicate-free vector of row codes (array backend).

    The numpy backend uses raw ``np.ndarray`` values instead of this
    class; :func:`as_codes` builds whichever the active backend wants.
    """

    __slots__ = ("data", "_members")

    def __init__(self, data: array, members: Optional[frozenset] = None) -> None:
        self.data = data  # array('q'), sorted ascending, unique
        self._members = members

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self.data)
        return self._members

    def __len__(self) -> int:
        return len(self.data)


def dedup_sorted(arr):
    """Distinct values of an already *sorted* int64 ndarray.

    Returns ``arr`` itself (no copy) when all values are distinct — the
    common case for code vectors, which are unique by construction.
    """
    n = len(arr)
    if n <= 1:
        return arr
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    _np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    if keep.all():
        return arr
    return arr[keep]


def sorted_unique(arr):
    """Sorted distinct values of an int64 ndarray (sort + boundary scan).

    The kernel's replacement for ``np.unique`` on code vectors: numpy
    2's hash-based unique kernel is measurably slower than one sort
    plus a neighbour comparison on the small-to-medium int64 vectors
    the executors produce, and this variant avoids the copy entirely
    when the input is already duplicate-free.
    """
    if len(arr) <= 1:
        return arr
    return dedup_sorted(_np.sort(arr))


def as_codes(codes: Iterable[int]):
    """A backend code vector from arbitrary (unsorted, duplicated) codes."""
    if _BACKEND == "numpy":
        arr = _np.fromiter(codes, dtype=_np.int64)
        return sorted_unique(arr)
    uniq = sorted(set(codes))
    return CodeVector(array("q", uniq), frozenset(uniq))


def empty_codes():
    """The empty code vector for the active backend."""
    if _BACKEND == "numpy":
        return _np.empty(0, dtype=_np.int64)
    return CodeVector(array("q"), frozenset())


def codes_len(codes) -> int:
    return len(codes)


def codes_iter(codes):
    """Iterate the codes as Python ints (ascending)."""
    if _BACKEND == "numpy" and isinstance(codes, _np.ndarray):
        return iter(codes.tolist())
    return iter(codes.data)


def codes_equal(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, CodeVector):
        return a.data == b.data
    return len(a) == len(b) and bool(_np.array_equal(a, b))


def codes_union(a, b):
    if isinstance(a, CodeVector):
        if not b.data:
            return a
        merged = a.members | b.members
        if len(merged) == len(a.data):
            return a
        return CodeVector(array("q", sorted(merged)), frozenset(merged))
    if len(b) == 0:
        return a
    out = sorted_unique(_np.concatenate((a, b)))
    return a if len(out) == len(a) else out


def codes_difference(a, b):
    if isinstance(a, CodeVector):
        if not b.data:
            return a
        kept = a.members - b.members
        if len(kept) == len(a.data):
            return a
        return CodeVector(array("q", sorted(kept)), frozenset(kept))
    if len(b) == 0 or len(a) == 0:
        return a
    mask = _sorted_isin(a, b)
    if not mask.any():
        return a
    return a[~mask]


def codes_intersection(a, b):
    if isinstance(a, CodeVector):
        kept = a.members & b.members
        return CodeVector(array("q", sorted(kept)), frozenset(kept))
    if len(a) == 0 or len(b) == 0:
        return empty_codes()
    return a[_sorted_isin(a, b)]


def codes_issubset(a, b) -> bool:
    if isinstance(a, CodeVector):
        return a.members <= b.members
    if len(a) > len(b):
        return False
    if len(a) == 0:
        return True
    return bool(_sorted_isin(a, b).all())

def codes_contains(codes, code: int) -> bool:
    if isinstance(codes, CodeVector):
        return code in codes.members
    i = int(_np.searchsorted(codes, code))
    return i < len(codes) and int(codes[i]) == code


def _sorted_isin(a, b):
    """Boolean mask of ``a``'s membership in sorted-unique ``b`` (numpy).

    Small probes binary-search; big probes go through ``np.isin``, whose
    sort-merge kernel amortises far better than ``searchsorted``'s
    per-element binary searches (an order of magnitude at ~20k probes).
    """
    if len(b) == 0:
        return _np.zeros(len(a), dtype=bool)
    if len(a) >= 512:
        return _np.isin(a, b)
    idx = b.searchsorted(a)
    idx[idx == len(b)] = len(b) - 1
    return b[idx] == a


# ----------------------------------------------------------------------
# Membership structures: the semi-join filtering face
# ----------------------------------------------------------------------


class KeyMembership:
    """O(1)-ish membership over a set of key codes.

    The array backend packs small key spaces into one Python int used as
    a *bitset* (bigint bit tests are C-speed); larger spaces fall back
    to a frozenset.  The numpy backend keeps the sorted vector and
    answers batch queries with :func:`_sorted_isin`.  This is what the
    Yannakakis semi-join prologue and anti-joins filter through.
    """

    __slots__ = ("_bits", "_set", "_sorted")

    def __init__(self, codes) -> None:
        self._bits = None
        self._set = None
        self._sorted = None
        if isinstance(codes, CodeVector):
            data = codes.data
            if data and 0 <= data[0] and data[-1] < _BITSET_LIMIT:
                bits = 0
                for c in data:
                    bits |= 1 << c
                self._bits = bits
            else:
                self._set = codes.members
        else:
            self._sorted = codes

    def __contains__(self, code: int) -> bool:
        if self._bits is not None:
            return bool((self._bits >> code) & 1)
        if self._set is not None:
            return code in self._set
        return codes_contains(self._sorted, code)

    def mask(self, probe):
        """Batch membership of a probe vector (numpy backend only)."""
        return _sorted_isin(probe, self._sorted)


# ----------------------------------------------------------------------
# Columnar relations
# ----------------------------------------------------------------------


class RelationCodes:
    """One relation's tuples as a code vector under one symbol table.

    Cached on the (immutable) relation, keyed by ``(symbols,
    generation)``; derived relations patch rather than re-encode (see
    :meth:`evolved`).  Per-column views and per-key-column sorted join
    runs are materialised lazily and also cached here, so a fixpoint
    builds each at most once per relation value.
    """

    __slots__ = ("symbols", "shift", "arity", "codes", "_columns", "_runs", "_keys")

    def __init__(self, symbols: SymbolTable, arity: int, codes) -> None:
        self.symbols = symbols
        self.shift = symbols.shift
        self.arity = arity
        self.codes = codes
        self._columns = None
        self._runs: Dict[Tuple[int, ...], Any] = {}
        self._keys: Dict[Tuple[int, ...], Any] = {}

    @classmethod
    def encode(cls, symbols: SymbolTable, arity: int, tuples) -> "RelationCodes":
        """Encode an iterable of tuples (two passes: intern, then pack).

        Interning first means the pack pass runs under the final shift —
        a mid-encode widening cannot corrupt earlier codes.
        """
        seqs = tuples if isinstance(tuples, (list, tuple)) else list(tuples)
        intern = symbols.intern
        if arity == 1:
            ids = [intern(t[0]) for t in seqs]
            return cls(symbols, 1, as_codes(ids))
        for t in seqs:
            for v in t:
                intern(v)
        b = symbols.shift
        ids = symbols._ids
        codes = []
        append = codes.append
        for t in seqs:
            code = 0
            for v in t:
                code = (code << b) | ids[v]
            append(code)
        return cls(symbols, arity, as_codes(codes))

    def valid(self) -> bool:
        """Codes stay valid until the table's field width widens."""
        return self.shift == self.symbols.shift

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> frozenset:
        """The tuples back, decoded under *this payload's* field width.

        Ids never change once assigned, so codes built before a width
        widening still decode exactly — with their own recorded shift,
        not the table's current one.  Current-generation payloads route
        through the table's memoised extern instead, so a fixpoint that
        re-derives the same heads round after round rebuilds each tuple
        once.
        """
        arity = self.arity
        if self.valid():
            extern = self.symbols.extern_code
            return frozenset(extern(c, arity) for c in codes_iter(self.codes))
        b = self.shift
        mask = (1 << b) - 1
        values = self.symbols._values
        return frozenset(
            tuple(
                values[(c >> (b * (arity - 1 - k))) & mask]
                for k in range(arity)
            )
            for c in codes_iter(self.codes)
        )

    def contains_tuple(self, t: tuple) -> bool:
        """Membership of one tuple, without decoding the vector."""
        if len(t) != self.arity:
            return False
        ids = self.symbols._ids
        b = self.shift
        cap = 1 << b
        code = 0
        for v in t:
            i = ids.get(v)
            if i is None or i >= cap:
                # Unknown value, or one interned after this payload's
                # width was fixed — either way it cannot be in the codes.
                return False
            code = (code << b) | i
        return codes_contains(self.codes, code)

    def columns(self):
        """Per-column id vectors, decoded from the codes once."""
        cols = self._columns
        if cols is None:
            b = self.shift
            arity = self.arity
            if _BACKEND == "numpy" and isinstance(self.codes, _np.ndarray):
                cols = tuple(
                    (self.codes >> (b * (arity - 1 - k))) & ((1 << b) - 1)
                    for k in range(arity)
                )
            else:
                mask = (1 << b) - 1
                cols = tuple(
                    array(
                        "q",
                        [
                            (c >> (b * (arity - 1 - k))) & mask
                            for c in self.codes.data
                        ],
                    )
                    for k in range(arity)
                )
            self._columns = cols
        return cols

    def key_codes(self, key_columns: Tuple[int, ...]):
        """Mixed key codes of every row for the given columns (row order),
        cached per column tuple (fixpoint rounds re-fold the same keys)."""
        if len(key_columns) == 1:
            return self.columns()[key_columns[0]]
        key_columns = tuple(key_columns)
        cached = self._keys.get(key_columns)
        if cached is not None:
            return cached
        b = self.shift
        cols = self.columns()
        if _BACKEND == "numpy" and isinstance(self.codes, _np.ndarray):
            out = cols[key_columns[0]].copy()
            for c in key_columns[1:]:
                out <<= b
                out |= cols[c]
            self._keys[key_columns] = out
            return out
        picked = [cols[c] for c in key_columns]
        out = array("q", bytes(8 * len(self.codes.data)))
        for i in range(len(out)):
            code = 0
            for col in picked:
                code = (code << b) | col[i]
            out[i] = code
        return out

    def sorted_run(self, key_columns) -> "SortedRun":
        """The sorted-run join index on ``key_columns``, cached."""
        key = canon_columns(key_columns)
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = SortedRun(self, key)
        return run

    def evolved(self, added: "RelationCodes", removed: "RelationCodes") -> "RelationCodes":
        """Codes after a tuple delta (the maintenance fast path)."""
        out = codes_union(codes_difference(self.codes, removed.codes), added.codes)
        return RelationCodes(self.symbols, self.arity, out)


class SortedRun:
    """A relation sorted by key code: the kernel's join index.

    Probing is a pair of binary searches per distinct key (vectorised
    under numpy); the matching rows are the run's order slice.  This is
    the sorted-run intersection the ISSUE names: no per-tuple hashing,
    no bucket dicts, just position arithmetic over two sorted vectors.
    """

    __slots__ = (
        "relation",
        "key_columns",
        "sorted_keys",
        "order",
        "_buckets",
        "_distinct",
    )

    def __init__(self, relation: RelationCodes, key_columns: Tuple[int, ...]) -> None:
        self.relation = relation
        self.key_columns = key_columns
        self._distinct = None
        keys = relation.key_codes(key_columns)
        if _BACKEND == "numpy" and not isinstance(keys, array):
            order = _np.argsort(keys, kind="stable")
            self.order = order
            self.sorted_keys = keys[order]
            self._buckets = None
        else:
            pairs = sorted(range(len(keys)), key=keys.__getitem__)
            self.order = array("q", pairs)
            self.sorted_keys = array("q", [keys[i] for i in pairs])
            buckets: Dict[int, List[int]] = {}
            for pos, row in enumerate(pairs):
                buckets.setdefault(self.sorted_keys[pos], []).append(row)
            self._buckets = buckets

    def lookup_rows(self, key_code: int):
        """Row indices matching one key code (array backend)."""
        if self._buckets is not None:
            return self._buckets.get(key_code, ())
        left = int(_np.searchsorted(self.sorted_keys, key_code, side="left"))
        right = int(_np.searchsorted(self.sorted_keys, key_code, side="right"))
        return self.order[left:right]

    def distinct_keys(self):
        """The distinct key codes present (sorted), cached."""
        if self._distinct is None:
            if self._buckets is not None:
                self._distinct = as_codes(self._buckets.keys())
            else:
                self._distinct = dedup_sorted(self.sorted_keys)
        return self._distinct


# ----------------------------------------------------------------------
# Complements as range arithmetic over the interned universe
# ----------------------------------------------------------------------


def universe_ids(symbols: SymbolTable, universe: frozenset):
    """The sorted id vector of a universe, cached per generation."""
    cache = symbols.scratch()
    key = ("universe", universe)
    ids = cache.get(key)
    if ids is None:
        ids = as_codes(symbols.intern(v) for v in universe)
        # Interning may have widened the shift mid-build; re-read the
        # scratch cache afterwards so a stale dict is never populated.
        cache = symbols.scratch()
        cache[key] = ids
    return ids


def universe_product_codes(symbols: SymbolTable, universe: frozenset, k: int):
    """``A^k`` as mixed row codes, cached per (universe, k, generation).

    For a freshly interned database the universe ids are the contiguous
    range ``[0, |A|)`` and the product is pure range arithmetic — no
    tuple is ever materialised.
    """
    if k == 0:
        return as_codes((0,))
    ids = universe_ids(symbols, universe)
    if k == 1:
        return ids
    cache = symbols.scratch()
    key = ("product", universe, k)
    full = cache.get(key)
    if full is None:
        b = symbols.shift
        if isinstance(ids, CodeVector):
            vals = ids.data
            acc = vals
            for _ in range(k - 1):
                acc = array(
                    "q", [(a << b) | v for a in acc for v in vals]
                )
            full = CodeVector(acc)
        else:
            acc = ids
            for _ in range(k - 1):
                acc = (_np.repeat(acc << b, len(ids))
                       | _np.tile(ids, len(acc)))
            full = acc
        cache[key] = full
    return full


def complement_codes(symbols: SymbolTable, universe: frozenset, rel: RelationCodes):
    """``A^arity`` minus the relation, as codes (range arithmetic).

    Values the relation holds *outside* the universe simply never occur
    in the product, so the plain sorted difference is exact — mirroring
    the tuple path's semantics for out-of-universe constants.
    """
    full = universe_product_codes(symbols, universe, rel.arity)
    return codes_difference(full, rel.codes)


def semijoin_filter(rel: RelationCodes, key_columns, allowed: KeyMembership):
    """Rows of ``rel`` whose key code is in ``allowed`` (bitset filter).

    Returns a code vector of the surviving rows — the kernel face of
    the Yannakakis reduction step.
    """
    key = canon_columns(key_columns)
    keys = rel.key_codes(key)
    if isinstance(rel.codes, CodeVector):
        data = rel.codes.data
        kept = array("q", (data[i] for i in range(len(data)) if keys[i] in allowed))
        return CodeVector(kept)
    return rel.codes[allowed.mask(keys)]


def antijoin_codes(rel: RelationCodes, key_columns, excluded: "RelationCodes"):
    """Rows of ``rel`` with no key match in ``excluded`` (same columns)."""
    key = canon_columns(key_columns)
    keys = rel.key_codes(key)
    if isinstance(rel.codes, CodeVector):
        member = KeyMembership(as_codes(excluded.key_codes(key)))
        data = rel.codes.data
        kept = array(
            "q", (data[i] for i in range(len(data)) if keys[i] not in member)
        )
        return CodeVector(kept)
    excl = sorted_unique(_np.asarray(excluded.key_codes(key)))
    return rel.codes[~_sorted_isin(keys, excl)]


_DENSE_JOIN_LIMIT = 1 << 18
"""Largest key-code span the numpy join direct-addresses (two int64
tables of that span, ~2 MiB each, beat binary search comfortably)."""

_DENSE_JOIN_FLOOR = 1 << 12
"""Spans this small are always worth direct-addressing — the tables fit
in L1/L2 regardless of how few keys occupy them."""

_DENSE_JOIN_RATIO = 16
"""Above the floor, direct-address only while the span stays within
this factor of the distinct-key cardinality.  Interned ids are dense,
so well-used keys sit near ratio 1; a sparse-but-wide key set (packed
multi-column keys, or a join on a nearly-empty relation) would allocate
and zero a span-sized table to serve a handful of probes."""


def dense_join_eligible(span: int, cardinality: int) -> bool:
    """Whether ``join_codes`` may build span-sized start/count tables.

    ``span`` is ``max_key + 1`` over the build side's key codes and
    ``cardinality`` the number of *rows* on that side (an upper bound on
    distinct keys, which is all the guard needs).  Dense addressing pays
    off only when the tables stay small in absolute terms *and* are
    reasonably occupied — otherwise sorted-run probing wins.
    """
    if span <= _DENSE_JOIN_FLOOR:
        return True
    if span > _DENSE_JOIN_LIMIT:
        return False
    return span <= _DENSE_JOIN_RATIO * cardinality


def join_codes(left: RelationCodes, right: RelationCodes, on):
    """Matched row indices of an equi-join (kernel microbench op).

    ``on`` is ``[(left_col, right_col), ...]``; returns a pair of
    backend-native index vectors ``(left_rows, right_rows)`` — the
    engine's shape: no tuple is ever materialised, callers project
    whichever columns they need.  When the key codes span a dense range
    (the normal case — interned ids *are* dense), the numpy path joins
    by direct addressing into per-key start/count tables instead of one
    binary search per probe: the payoff of interning to dense ints.
    """
    lcols = canon_columns(c for c, _ in on)
    rcols = canon_columns(c for _, c in on)
    run = right.sorted_run(rcols)
    lkeys = left.key_codes(lcols)
    if isinstance(left.codes, CodeVector):
        li, ri = array("q"), array("q")
        for i in range(len(lkeys)):
            for j in run.lookup_rows(lkeys[i]):
                li.append(i)
                ri.append(j)
        return li, ri
    sk = run.sorted_keys
    empty = _np.empty(0, dtype=_np.int64)
    if len(sk) == 0 or len(lkeys) == 0:
        return empty, empty
    span = int(sk[-1]) + 1
    if dense_join_eligible(span, len(sk)):
        first = _np.empty(len(sk), dtype=bool)
        first[0] = True
        _np.not_equal(sk[1:], sk[:-1], out=first[1:])
        starts = _np.flatnonzero(first)
        lefts_t = _np.zeros(span, dtype=_np.int64)
        counts_t = _np.zeros(span, dtype=_np.int64)
        distinct = sk[starts]
        lefts_t[distinct] = starts
        counts_t[distinct] = _np.diff(starts, append=len(sk))
        # Probes above every right key clamp onto the last slot, whose
        # count they must not inherit — zero them explicitly.
        probe = _np.minimum(lkeys, span - 1)
        counts = _np.where(lkeys < span, counts_t[probe], 0)
        lefts = lefts_t[probe]
    else:
        lefts = sk.searchsorted(lkeys, side="left")
        counts = sk.searchsorted(lkeys, side="right") - lefts
    cum = counts.cumsum()
    total = int(cum[-1])
    if total == 0:
        return empty, empty
    rows = _np.arange(len(lkeys)).repeat(counts)
    pos = (lefts - (cum - counts)).repeat(counts) + _np.arange(total)
    return rows, run.order[pos]
