"""Finitely described abelian groups: DSL parsing, canonical arithmetic, enumeration.

A group is a finite direct sum of factors of four kinds: the integers ``Z``,
finite cyclic groups ``Z_n``, countable powers ``Z_n^w`` whose elements are
finite-support residue vectors, and quasicyclic groups ``Prufer(p)`` whose
elements are reduced fractions ``a/p^k`` taken modulo 1.

Elements are immutable and always kept in canonical form, so equality and
hashing are structural. Window enumeration emits elements in a fixed total
order (the order of :meth:`Element.sort_key`), which makes every downstream
greedy construction and search reproducible byte for byte:

* ``Z`` coordinates run 0, 1, -1, 2, -2, ...
* ``Z_n`` coordinates run 0, 1, ..., n-1
* ``Z_n^w`` coordinates run in lexicographic order over the first m copies
* ``Prufer(p)`` coordinates run by level, then numerator
* multi-factor elements are ordered lexicographically, leftmost factor first
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field
from math import gcd, lcm, prod
from typing import Iterable, Iterator, NamedTuple

from .errors import ElementSyntaxError, GroupMismatchError, GroupSyntaxError

INFINITE_CYCLIC = "infinite_cyclic"
CYCLIC = "cyclic"
REPEATED_CYCLIC = "repeated_cyclic"
PRUFER = "prufer"

_KINDS = (INFINITE_CYCLIC, CYCLIC, REPEATED_CYCLIC, PRUFER)


# Miller-Rabin on the thirteen prime bases 2..41 is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017). The twelve bases
# up to 37 are not enough: the 24-digit 318665857834031151167461 passes
# them all. Every number of at most PRIME_DIGITS digits lies below it. A
# modulus takes the same cap: no command lists more than 1,024 window
# vertices or 32 sweep elements, so a longer one only delays the refusal.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_EXACT_BELOW = 3317044064679887385961981
PRIME_DIGITS = 24

# A group spec has at most this many factors, counting each of a Z^k's or
# Z_n^k's k copies. Each element holds a coordinate per factor, so work grows
# with the count; on a 2-vCPU host `pack bset --group "Z_2^4095 + Prufer(3)"
# --kappa 9 --check` takes 0.6 s, and `--group Z^4096 --kappa 3` 0.01 s.
MAX_FACTORS = 4096


def _is_prime(n: int) -> bool:
    """Primality of ``n`` below ``PRIME_EXACT_BELOW``, by Miller-Rabin."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factor:
    """One direct summand. ``param`` is the modulus (cyclic kinds) or the prime."""

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind in (CYCLIC, REPEATED_CYCLIC) and self.param < 2:
            raise ValueError("cyclic modulus must be >= 2")
        if self.kind == PRUFER and self.param >= PRIME_EXACT_BELOW:
            raise ValueError(f"Prufer parameter must be below {PRIME_EXACT_BELOW}")
        if self.kind == PRUFER and not _is_prime(self.param):
            raise ValueError("Prufer parameter must be prime")

    @property
    def finite(self) -> bool:
        return self.kind == CYCLIC

    def format(self) -> str:
        if self.kind == INFINITE_CYCLIC:
            return "Z"
        if self.kind == CYCLIC:
            return f"Z_{self.param}"
        if self.kind == REPEATED_CYCLIC:
            return f"Z_{self.param}^w"
        return f"Prufer({self.param})"


# -- per-factor coordinate arithmetic ---------------------------------------
#
# Coordinate representations:
#   infinite cyclic -- int
#   cyclic(n)       -- int in [0, n)
#   repeated(n)     -- tuple of ints in [0, n) with no trailing zero
#   prufer(p)       -- (numerator, level); level 0 means zero, otherwise
#                      0 < numerator < p**level and p does not divide it


def _strip(vec: tuple) -> tuple:
    k = len(vec)
    while k and vec[k - 1] == 0:
        k -= 1
    return vec[:k]


def _prufer_reduce(a: int, k: int, p: int) -> tuple[int, int]:
    m = p**k
    a %= m
    if a == 0:
        return (0, 0)
    while a % p == 0:
        a //= p
        k -= 1
    return (a, k)


def zero_coord(f: Factor):
    if f.kind == REPEATED_CYCLIC:
        return ()
    if f.kind == PRUFER:
        return (0, 0)
    return 0


def canon_coord(f: Factor, raw):
    """Bring an arbitrary raw coordinate into canonical form."""
    if f.kind == INFINITE_CYCLIC:
        return int(raw)
    if f.kind == CYCLIC:
        return int(raw) % f.param
    if f.kind == REPEATED_CYCLIC:
        return _strip(tuple(int(v) % f.param for v in raw))
    a, k = raw
    if k < 0:
        raise ElementSyntaxError("Prufer level must be >= 0")
    return _prufer_reduce(int(a), int(k), f.param)


def add_coord(f: Factor, x, y):
    if f.kind == INFINITE_CYCLIC:
        return x + y
    if f.kind == CYCLIC:
        return (x + y) % f.param
    if f.kind == REPEATED_CYCLIC:
        n = f.param
        if len(x) < len(y):
            x, y = y, x
        out = list(x)
        for i, v in enumerate(y):
            out[i] = (out[i] + v) % n
        return _strip(tuple(out))
    p = f.param
    (a1, k1), (a2, k2) = x, y
    k = max(k1, k2)
    a = a1 * p ** (k - k1) + a2 * p ** (k - k2)
    return _prufer_reduce(a, k, p)


def neg_coord(f: Factor, x):
    if f.kind == INFINITE_CYCLIC:
        return -x
    if f.kind == CYCLIC:
        return (-x) % f.param
    if f.kind == REPEATED_CYCLIC:
        n = f.param
        return tuple((-v) % n for v in x)
    a, k = x
    if k == 0:
        return x
    return (f.param**k - a, k)


def _coord_ops(f: Factor):
    """The factor's add and negate: plain integer arithmetic for ``Z`` and
    ``Z_n``, ``add_coord`` and ``neg_coord`` for the other kinds."""
    if f.kind == INFINITE_CYCLIC:
        return operator.add, operator.neg
    if f.kind == CYCLIC:
        n = f.param
        return (lambda x, y: (x + y) % n), (lambda x: -x % n)
    return (lambda x, y: add_coord(f, x, y)), (lambda x: neg_coord(f, x))


def _tuple_ops(factors: tuple[Factor, ...]):
    """Add and negate on coordinate tuples, with each factor's operation
    chosen once. A one-factor group skips the zip, which costs about as
    much as the addition itself."""
    ops = [_coord_ops(f) for f in factors]
    if len(ops) == 1:
        ((add, neg),) = ops
        return (lambda xs, ys: (add(xs[0], ys[0]),)), (lambda xs: (neg(xs[0]),))
    adds, negs = [add for add, _ in ops], [neg for _, neg in ops]
    return (
        lambda xs, ys: tuple([add(x, y) for add, x, y in zip(adds, xs, ys)]),
        lambda xs: tuple([neg(x) for neg, x in zip(negs, xs)]),
    )


def mul_coord(f: Factor, c: int, x):
    if f.kind == INFINITE_CYCLIC:
        return c * x
    if f.kind == CYCLIC:
        return (c * x) % f.param
    if f.kind == REPEATED_CYCLIC:
        return _strip(tuple((c * v) % f.param for v in x))
    a, k = x
    return _prufer_reduce(c * a, k, f.param)


def order_coord(f: Factor, x) -> int | None:
    """Least n >= 1 with n*x = 0, or None for infinite order."""
    if f.kind == INFINITE_CYCLIC:
        return 1 if x == 0 else None
    if f.kind == CYCLIC:
        return f.param // gcd(x, f.param)
    if f.kind == REPEATED_CYCLIC:
        n = f.param
        return lcm(1, *(n // gcd(v, n) for v in x))
    return f.param ** x[1]


def coord_sort_key(f: Factor, x):
    if f.kind == INFINITE_CYCLIC:
        return (abs(x), 0 if x >= 0 else 1)
    if f.kind == PRUFER:
        return (x[1], x[0])
    return x


def iter_coords(f: Factor, bound: int | None) -> Iterator:
    """Canonical coordinate stream for one factor, within the window bound."""
    if f.kind == INFINITE_CYCLIC:
        yield 0
        for i in range(1, bound + 1):
            yield i
            yield -i
    elif f.kind == CYCLIC:
        yield from range(f.param)
    elif f.kind == REPEATED_CYCLIC:
        for vec in itertools.product(range(f.param), repeat=bound):
            yield _strip(vec)
    else:
        p = f.param
        yield (0, 0)
        for k in range(1, bound + 1):
            for a in range(1, p**k):
                if a % p:
                    yield (a, k)


def coord_extent(f: Factor, x) -> int | None:
    """Smallest window bound of the factor whose window holds the coordinate."""
    if f.kind == INFINITE_CYCLIC:
        return abs(x)
    if f.kind == CYCLIC:
        return None
    if f.kind == REPEATED_CYCLIC:
        return len(x)
    return x[1]


def count_coords(f: Factor, bound: int | None) -> int:
    if f.kind == INFINITE_CYCLIC:
        return 2 * bound + 1
    if f.kind == CYCLIC:
        return f.param
    return f.param**bound


def format_coord(f: Factor, x) -> str:
    if f.kind == INFINITE_CYCLIC or f.kind == CYCLIC:
        return str(x)
    if f.kind == REPEATED_CYCLIC:
        if not x:
            return "0"
        return "[" + ",".join(str(v) for v in x) + "]"
    a, k = x
    if k == 0:
        return "0"
    if k == 1:
        return f"{a}/{f.param}"
    return f"{a}/{f.param}^{k}"


_PRUFER_COORD_RE = re.compile(r"^(-?\d+)/(\d+)(?:\^(\d+))?$")


def parse_coord(f: Factor, text: str):
    text = text.strip()
    if f.kind in (INFINITE_CYCLIC, CYCLIC):
        try:
            return canon_coord(f, int(text))
        except ValueError:
            raise ElementSyntaxError(f"expected an integer, got {text!r}") from None
    if f.kind == REPEATED_CYCLIC:
        if text == "0":
            return ()
        if not (text.startswith("[") and text.endswith("]")):
            raise ElementSyntaxError(f"expected 0 or [..] for a Z_n^w coordinate, got {text!r}")
        body = text[1:-1].strip()
        if not body:
            return ()
        try:
            return canon_coord(f, tuple(int(v) for v in body.split(",")))
        except ValueError:
            raise ElementSyntaxError(f"bad vector coordinate {text!r}") from None
    if text == "0":
        return (0, 0)
    m = _PRUFER_COORD_RE.match(text)
    if not m:
        raise ElementSyntaxError(f"expected a/p^k for a Prufer coordinate, got {text!r}")
    a, base, k = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
    if base != f.param:
        raise ElementSyntaxError(f"Prufer coordinate base {base} does not match p={f.param}")
    return canon_coord(f, (a, k))


# -- groups ------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """An ordered direct sum of factors; all derived flags are recomputed.

    The group holds the add and negate its elements use, chosen per factor
    when it is made, and its count of ``Z`` factors, worked out once then;
    they are attributes, not fields, so equality and hashing read the
    factors alone."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        add, neg = _tuple_ops(self.factors)
        object.__setattr__(self, "_add", add)
        object.__setattr__(self, "_neg", neg)
        object.__setattr__(self, "_z_factors", sum(f.kind == INFINITE_CYCLIC for f in self.factors))

    def __reduce__(self):
        # the operations cannot be pickled, so they are rebuilt from the factors
        return GroupSpec, (self.factors,)

    @property
    def is_finite(self) -> bool:
        return all(f.finite for f in self.factors)

    @property
    def cardinality(self) -> int | None:
        """Exact order when finite, None otherwise."""
        if not self.is_finite:
            return None
        return prod(f.param for f in self.factors)

    def zero(self) -> Element:
        return Element(self, tuple(zero_coord(f) for f in self.factors))

    def element(self, *raw) -> Element:
        """Build a canonical element from one raw coordinate per factor."""
        if len(raw) != len(self.factors):
            raise ElementSyntaxError(
                f"expected {len(self.factors)} coordinates, got {len(raw)}"
            )
        return Element(
            self, tuple(canon_coord(f, r) for f, r in zip(self.factors, raw))
        )

    def __str__(self) -> str:
        return format_group(self)


@dataclass(frozen=True)
class Element:
    """A canonical-form group element; one coordinate per factor."""

    group: GroupSpec
    coords: tuple

    def _check(self, other: Element):
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatchError(
                f"elements of {self.group} and {other.group} cannot be combined"
            )

    def __add__(self, other: Element) -> Element:
        self._check(other)
        return Element(self.group, self.group._add(self.coords, other.coords))

    def __neg__(self) -> Element:
        return Element(self.group, self.group._neg(self.coords))

    def __sub__(self, other: Element) -> Element:
        self._check(other)
        group = self.group
        return Element(group, group._add(self.coords, group._neg(other.coords)))

    def scaled(self, c: int) -> Element:
        return Element(
            self.group,
            tuple(mul_coord(f, c, x) for f, x in zip(self.group.factors, self.coords)),
        )

    def is_zero(self) -> bool:
        return all(
            x == zero_coord(f) for f, x in zip(self.group.factors, self.coords)
        )

    def order(self) -> int | None:
        """Least n >= 1 with n*self = 0, or None for infinite order."""
        result = 1
        for f, x in zip(self.group.factors, self.coords):
            o = order_coord(f, x)
            if o is None:
                return None
            result = lcm(result, o)
        return result

    def sort_key(self):
        return tuple(
            coord_sort_key(f, x) for f, x in zip(self.group.factors, self.coords)
        )

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.group}>"


# -- windows -----------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """A finite, negation-closed truncation of a group.

    Per-factor bounds: None for a full cyclic factor, |x| <= N for ``Z``,
    first m copies for ``Z_n^w``, level <= m for ``Prufer(p)``.

    ``_families`` keeps, for a window with no ``Z`` factor, the maximum
    family :func:`packing.max_packing_family` found for each difference
    mask D over the window's own box, as the finished ``ElementSet`` of
    shifts: the family depends on D alone, so a later set with the same D
    is solved without a graph, an extraction or a sort. It lives as long
    as this window object, as does the window's :class:`DenseBox`, which
    ``box()`` makes on its first call. ``size()`` is worked out once, when
    the window is made. None of them takes part in equality or hashing.
    """

    group: GroupSpec
    bounds: tuple[int | None, ...]
    _families: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _box: DenseBox | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bounds) != len(self.group.factors):
            raise ValueError("one bound per factor required")
        for f, b in zip(self.group.factors, self.bounds):
            if f.kind == CYCLIC:
                if b is not None:
                    raise ValueError("finite cyclic factors take no bound")
            elif b is None or b <= 0:
                raise ValueError("window bound must be a positive integer")
        object.__setattr__(self, "_size", prod(count_coords(f, b) for f, b in zip(self.group.factors, self.bounds)))

    @classmethod
    def for_group(
        cls,
        group: GroupSpec,
        bound: int | None = None,
        repeated_m: int = 4,
        prufer_level: int = 4,
    ) -> Window:
        bounds = []
        for f in group.factors:
            if f.kind == CYCLIC:
                bounds.append(None)
            elif f.kind == INFINITE_CYCLIC:
                if bound is None:
                    raise ValueError("a bound is required for Z factors")
                bounds.append(bound)
            elif f.kind == REPEATED_CYCLIC:
                bounds.append(repeated_m)
            else:
                bounds.append(prufer_level)
        return cls(group, tuple(bounds))

    def size(self) -> int:
        return self._size

    def box(self) -> DenseBox:
        """The window's own box, made on the first call, with its tables
        built when a caller first asks for them."""
        if self._box is None:
            object.__setattr__(self, "_box", DenseBox(self.group, self.bounds))
        return self._box

    def expanded(self) -> Window | None:
        """Grow every expandable bound (None when the group is fully finite)."""
        if self.group.is_finite:
            return None
        new = []
        for f, b in zip(self.group.factors, self.bounds):
            if f.kind == CYCLIC:
                new.append(None)
            elif f.kind == INFINITE_CYCLIC:
                new.append(2 * b)
            else:
                new.append(b + 1)
        return Window(self.group, tuple(new))


def enumerate_window(window: Window) -> Iterator[Element]:
    """Deterministic, duplicate-free canonical element stream of a window."""
    group = window.group
    pools = [
        iter_coords(f, b) for f, b in zip(group.factors, window.bounds)
    ]
    for coords in itertools.product(*pools):
        yield Element(group, coords)


# -- dense boxes -------------------------------------------------------------


def extents(group: GroupSpec, elements: Iterable[Element]) -> tuple[int | None, ...]:
    """Per-factor bounds of the smallest box holding every element. Only
    the factors that carry a bound are read; ``Z_n`` factors take None."""
    factors = group.factors
    out = [None] * len(factors)
    bounded = [i for i, f in enumerate(factors) if f.kind != CYCLIC]
    if not bounded:
        return tuple(out)
    for i in bounded:
        out[i] = 0
    for e in elements:
        for i in bounded:
            out[i] = max(out[i], coord_extent(factors[i], e.coords[i]))
    return tuple(out)


def hull_bounds(*bounds: tuple) -> tuple:
    """Bounds of the smallest box holding each of the given boxes."""
    return tuple(None if bs[0] is None else max(bs) for bs in zip(*bounds))


def sum_bounds(group: GroupSpec, *bounds: tuple) -> tuple:
    """Bounds of a box holding every sum x1 + x2 + ... with xi in box i:
    ``Z`` radii add up, the other kinds are subgroups and take the largest."""
    hull = hull_bounds(*bounds)
    return tuple(
        sum(bs) if f.kind == INFINITE_CYCLIC else h
        for f, bs, h in zip(group.factors, zip(*bounds), hull)
    )


class BoxTables(NamedTuple):
    """Per-code tables of a :class:`DenseBox`, each indexed by code."""

    elements: list[Element]  # code -> element
    index: dict[tuple, int]  # coordinates -> code
    neg: list[int]  # code -> code of the negative
    steps: list[list[tuple[int, int, int, int]]]  # code -> translation steps
    place: list[int] | None  # codes in enumeration order; None when that is code order


class DenseBox:
    """A finite box of a group, coded so that a set in it is an int bitmask.

    ``bounds`` read as :class:`Window` bounds, with a ``Z`` radius of 0
    allowed. Each coordinate becomes mixed-radix digits, leftmost factor
    most significant: ``Z`` with radius N is one digit x + N that does not
    wrap, ``Z_n`` one digit mod n, ``Z_n^w`` one digit mod n per kept copy,
    and ``Prufer(p)`` at level L one digit mod p^L, a/p^k being a*p^(L-k).
    Bit c of a mask stands for the element with code c. Translating a set
    by an element of the box, given by its code, is then one shift per
    ``Z`` digit and one masked rotation per other digit, applied to the
    whole mask at once.

    :meth:`tables` builds the per-code tables once and keeps them with the
    box, which lives as long as what holds it: a window
    (:meth:`Window.box`), a set's memo of differences or one witness
    build. ``encode``, ``steps`` and ``diff_mask`` then read them.
    """

    def __init__(self, group: GroupSpec, bounds: tuple):
        self.group = group
        self.bounds = tuple(bounds)
        self._slices = []  # per factor, its range of digit positions
        radix, wraps = [], []
        for f, b in zip(group.factors, self.bounds):
            start = len(radix)
            if f.kind == INFINITE_CYCLIC:
                radix.append(2 * b + 1)
            elif f.kind == CYCLIC:
                radix.append(f.param)
            elif f.kind == REPEATED_CYCLIC:
                radix += [f.param] * b
            else:
                radix.append(f.param**b)
            wraps += [f.kind != INFINITE_CYCLIC] * (len(radix) - start)
            self._slices.append(range(start, len(radix)))
        self._radix = radix
        self._wraps = wraps
        self._offset = [0 if w else r // 2 for w, r in zip(wraps, radix)]
        self._stride = [prod(radix[i + 1 :]) for i in range(len(radix))]
        self.size = prod(radix)
        self._below_cache: dict[tuple[int, int], int] = {}
        self._tables: BoxTables | None = None

    def _factor_code(self, i: int, x) -> int | None:
        """Part of the code carried by factor i's coordinate, or None outside.
        ``Z`` is one digit without its offset, a ``Z_n^w`` vector one digit
        per entry and a/p^k at level L the digit a*p^(L-k)."""
        f, bound = self.group.factors[i], self.bounds[i]
        if f.kind == REPEATED_CYCLIC:
            if len(x) > bound:
                return None
            digits = x
        elif f.kind == PRUFER:
            a, k = x
            if k > bound:
                return None
            digits = (a * f.param ** (bound - k),)
        else:
            digits = (x,)
        code = 0
        for d, j in zip(digits, self._slices[i]):
            d += self._offset[j]
            if not 0 <= d < self._radix[j]:
                return None
            code += d * self._stride[j]
        return code

    def encode(self, e: Element) -> int | None:
        """Code of the element, or None when it lies outside the box."""
        if self._tables is not None:
            return self._tables.index.get(e.coords)
        code = 0
        for i, x in enumerate(e.coords):
            part = self._factor_code(i, x)
            if part is None:
                return None
            code += part
        return code

    def decode(self, code: int) -> Element:
        coords = []
        for f, b, digits in zip(self.group.factors, self.bounds, self._slices):
            ds = [code // self._stride[j] % self._radix[j] - self._offset[j] for j in digits]
            if f.kind == REPEATED_CYCLIC:
                coords.append(_strip(tuple(ds)))
            elif f.kind == PRUFER:
                coords.append(_prufer_reduce(ds[0], b, f.param))
            else:
                coords.append(ds[0])
        return Element(self.group, tuple(coords))

    def mask_of(self, elements: Iterable[Element]) -> int:
        index = None if self._tables is None else self._tables.index
        mask = 0
        for e in elements:
            code = self.encode(e) if index is None else index.get(e.coords)
            if code is None:
                raise ValueError(f"{e} lies outside the box {self.bounds} of {self.group}")
            mask |= 1 << code
        return mask

    def codes(self, bounds: tuple) -> list[int]:
        """Codes of the elements of the window with ``bounds``, in
        :func:`enumerate_window` order. A ``Z`` factor's part is worked out
        from its digit's offset o and stride s: o*s, then (o+i)*s and
        (o-i)*s for i = 1..b; a ``Z_n`` factor's part is every multiple of
        s below n*s."""
        out = [0]
        for i, (f, b, digits) in enumerate(zip(self.group.factors, bounds, self._slices)):
            if f.kind == CYCLIC:
                s = self._stride[digits[0]]
                part = range(0, f.param * s, s)
            elif f.kind == INFINITE_CYCLIC:
                o, s = self._offset[digits[0]], self._stride[digits[0]]
                if b > o:
                    raise ValueError(f"window {bounds} exceeds the box {self.bounds}")
                part = [o * s] * (2 * b + 1)
                part[1::2] = range((o + 1) * s, (o + b + 1) * s, s)
                part[2::2] = range((o - 1) * s, (o - b - 1) * s, -s)
            else:
                part = [self._factor_code(i, x) for x in iter_coords(f, b)]
                if None in part:
                    raise ValueError(f"window {bounds} exceeds the box {self.bounds}")
            out = [c + p for c in out for p in part]
        return out

    def tables(self) -> BoxTables:
        """The box's per-code tables, built on the first call. The elements
        are listed as :func:`enumerate_window` lists a window, one
        :func:`iter_coords` stream per factor (a ``Z`` radius of 0 gives 0
        alone), and each is filed under its code from :meth:`codes`. The
        negatives and steps are composed digit by digit, leftmost first:
        digit j's r steps are those of the elements that are 0 but in
        digit j, so each is worked out once, not once a code."""
        if self._tables is None:
            codes = self.codes(self.bounds)
            pools = [iter_coords(f, b) for f, b in zip(self.group.factors, self.bounds)]
            elements = [Element(self.group, coords) for coords in itertools.product(*pools)]
            by_code = [None] * self.size
            for e, c in zip(elements, codes):
                by_code[c] = e
            zero = sum(o * s for o, s in zip(self._offset, self._stride))
            negs, steps = [0], [[]]
            for r, s, o, w in zip(self._radix, self._stride, self._offset, self._wraps):
                # each digit comes below the ones before it: code c becomes c * r + d
                digit_negs = [(-d % r if w else r - 1 - d) * s for d in range(r)]
                digit_steps = [self.steps(zero + (d - o) * s) for d in range(r)]
                negs = [n + x for n in negs for x in digit_negs]
                steps = [m + x for m in steps for x in digit_steps]
            self._tables = BoxTables(
                by_code,
                {e.coords: c for e, c in zip(elements, codes)},
                negs,
                steps,
                None if codes == sorted(codes) else codes,
            )
        return self._tables

    def _below(self, j: int, c: int) -> int:
        """Mask of the box's codes whose digit j is less than c."""
        run = (1 << c * self._stride[j]) - 1
        if j == 0:
            return run
        mask = self._below_cache.get((j, c))
        if mask is None:
            mask, width = run, self._radix[j] * self._stride[j]
            while width < self.size:
                mask |= mask << width
                width *= 2
            mask = self._below_cache[(j, c)] = mask & ((1 << self.size) - 1)
        return mask

    def neg(self, c: int) -> int:
        """Code of the negative of the element with code c: each digit d
        becomes -d mod r where it wraps, and r - 1 - d where it is ``Z``'s."""
        out = 0
        for r, s, w in zip(self._radix, self._stride, self._wraps):
            d = c // s % r
            out += (-d % r if w else r - 1 - d) * s
        return out

    def steps(self, c: int) -> list[tuple[int, int, int, int]]:
        """Translation by the element with code c as per-digit steps
        ``(low, up, high, down)`` for :func:`apply_steps`: the codes in
        ``low`` move up, those in ``high`` move down, and the rest leave the
        box. Each step reads one digit of c, less its offset."""
        if self._tables is not None:
            return self._tables.steps[c]
        steps = []
        for j, (r, s, o) in enumerate(zip(self._radix, self._stride, self._offset)):
            t = c // s % r - o
            if not t:
                continue
            if self._wraps[j]:
                low = self._below(j, r - t)
                steps.append((low, t * s, ~low, (r - t) * s))
            elif t > 0:
                steps.append((self._below(j, r - t), t * s, 0, 0))
            else:
                steps.append((0, 0, ~self._below(j, -t), -t * s))
        return steps

    def translate(self, mask: int, c: int) -> int:
        """Mask of {x + g : x in mask} that lies inside the box, g the
        element with code c."""
        return apply_steps(mask, self.steps(c))

    def diff_mask(self, mask: int) -> int:
        """Mask of the differences x - y over x, y in mask that lie inside
        the box: the OR of mask's translates by each -y, low y first. It
        stops once the OR is the whole box, which no later translate can
        add to."""
        full = (1 << self.size) - 1
        tables = self._tables
        diff = 0
        rest = mask
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            rest ^= low
            move = tables.steps[tables.neg[c]] if tables is not None else self.steps(self.neg(c))
            diff |= apply_steps(mask, move)
            if diff == full:
                break
        return diff


def apply_steps(mask: int, steps: list[tuple[int, int, int, int]]) -> int:
    """Translate a mask by the steps :meth:`DenseBox.steps` worked out."""
    for low, up, high, down in steps:
        mask = ((mask & low) << up) | ((mask & high) >> down)
    return mask


# -- group-spec DSL ----------------------------------------------------------

# A factor is one match of _FACTOR, a Term as the README writes it, with the
# blanks after it. The lookaheads keep a factor from matching as a shorter one
# (a modulus cut short, a "^" or a "w" left over): values are checked only on
# factors that parse.
_FACTOR = re.compile(
    r"(?:Prufer\s*\(\s*(?P<prime>\d+)(?P<close>\s*\))?|Z(?:\s*_?\s*(?P<modulus>\d+)(?!\d))?"
    r"(?:\s*\^\s*(?P<rep>\d+|w(?![A-Za-z]))|(?!\s*\^)))\s*"
)
_SEPARATOR = re.compile(r"\+\s*|\Z")
_FORMS = "expected Z, Z_n, Z^k, Z_n^k, Z_n^w or Prufer(p), joined by '+'"


def _number(m: re.Match, name: str, most_digits: int | None = None) -> int | None:
    """The integer in group ``name`` of a factor match, None when the group
    did not match. A number of more than ``most_digits`` digits, or past
    Python's limit on integer-string digits, is a syntax error at its first
    digit."""
    digits = m[name]
    if digits is None:
        return None
    if most_digits is None or len(digits) <= most_digits:
        try:
            return int(digits)
        except ValueError:
            pass
    raise GroupSyntaxError(f"number of {len(digits)} digits is too long", m.start(name))


def parse_group(text: str) -> GroupSpec:
    """Parse the group-spec DSL, e.g. ``"Z_4 + Z_2^w"``, ``"Z^2"`` or ``"Prufer(3)"``.
    A syntax error sits at the first non-blank where a factor or a "+" fails."""
    factors, pos, more = [], len(text) - len(text.lstrip()), True
    while more:
        m = _FACTOR.match(text, pos)
        if m is None:
            raise GroupSyntaxError(_FORMS, pos)
        prime = _number(m, "prime", PRIME_DIGITS)
        if prime is not None and not _is_prime(prime):
            raise GroupSyntaxError(f"Prufer parameter {prime} is not prime", m.start("prime"))
        if prime is not None and m["close"] is None:
            raise GroupSyntaxError(_FORMS, pos)
        rep = "w" if m["rep"] == "w" else _number(m, "rep")
        if rep not in (None, "w") and rep < 1:
            raise GroupSyntaxError("repetition must be >= 1 or 'w'", m.start("rep"))
        modulus = _number(m, "modulus", PRIME_DIGITS)
        if modulus is not None and modulus < 2:
            raise GroupSyntaxError(f"modulus {modulus} must be >= 2", m.start("modulus"))
        if rep == "w" and modulus is None:
            message = "countably repeated Z is not supported; 'w' needs a finite modulus"
            raise GroupSyntaxError(message, m.start("rep"))
        count = rep if isinstance(rep, int) else 1
        if len(factors) + count > MAX_FACTORS:
            at = m.start("rep") if isinstance(rep, int) else pos
            raise GroupSyntaxError(f"group has more than {MAX_FACTORS} factors", at)
        if prime is not None:
            factors.append(Factor(PRUFER, prime))
        elif rep == "w":
            factors.append(Factor(REPEATED_CYCLIC, modulus))
        else:
            base = Factor(INFINITE_CYCLIC) if modulus is None else Factor(CYCLIC, modulus)
            factors += [base] * (rep or 1)
        sep = _SEPARATOR.match(text, m.end())
        if sep is None:
            raise GroupSyntaxError(_FORMS, m.end())
        pos, more = sep.end(), bool(sep.group())
    return GroupSpec(tuple(factors))


def format_group(group: GroupSpec) -> str:
    return " + ".join(f.format() for f in group.factors)


# -- element text syntax -----------------------------------------------------


def _split_top_level(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_element(group: GroupSpec, text: str) -> Element:
    """Parse element text: a bare coordinate for rank-1 groups, else ``(c1,...,ck)``."""
    text = text.strip()
    factors = group.factors
    if len(factors) == 1:
        return Element(group, (parse_coord(factors[0], text),))
    if not (text.startswith("(") and text.endswith(")")):
        raise ElementSyntaxError(f"expected parenthesized coordinates, got {text!r}")
    parts = _split_top_level(text[1:-1])
    if len(parts) != len(factors):
        raise ElementSyntaxError(
            f"expected {len(factors)} coordinates, got {len(parts)}"
        )
    return Element(
        group, tuple(parse_coord(f, p) for f, p in zip(factors, parts))
    )


def format_element(e: Element) -> str:
    parts = [format_coord(f, x) for f, x in zip(e.group.factors, e.coords)]
    if len(parts) == 1:
        return parts[0]
    return "(" + ",".join(parts) + ")"
