"""Exact arithmetic: finite fields GF(p^a) (the prime field is a = 1) and
sparse multivariate Laurent polynomials.

A SparseLaurentPoly stores its terms as a dict mapping exponent tuples
(negative entries allowed) to coefficients.  With ``modulus=p`` every stored
coefficient is an int in [1, p); with ``modulus=None`` coefficients are
arbitrary nonzero integers or Fractions.  Zero coefficients are never
stored, and all term iteration is in lexicographic exponent order, so
serialization is deterministic.  A determinant (det_leibniz) is a
PackedPoly instead, which keeps each exponent packed into one int.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from functools import lru_cache


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test (desk scale), cached per n."""
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _require_prime(p):
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@lru_cache(maxsize=None)
def factorial_table(p):
    """Table of 0!, 1!, ..., (p-1)! reduced mod p."""
    _require_prime(p)
    table = [1] * p
    for k in range(1, p):
        table[k] = table[k - 1] * k % p
    return tuple(table)


@lru_cache(maxsize=None)
def inverse_factorial_table(p):
    """Table of 1/0!, 1/1!, ..., 1/(p-1)! reduced mod p."""
    return tuple(pow(f, p - 2, p) for f in factorial_table(p))


class SparseLaurentPoly:
    """Finitely supported map from integer exponent vectors to coefficients.

    The constructor, from a term dict, is the one way to build one.
    Immutable by convention: no method mutates ``self``; all operations
    return fresh polynomials.
    """

    __slots__ = ("nvars", "modulus", "terms")

    def __init__(self, nvars, modulus=None, terms=None):
        if modulus is not None:
            _require_prime(modulus)
        self.nvars = nvars
        self.modulus = modulus
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has length != {nvars}")
            if modulus is not None:
                c %= modulus
            if c:
                clean[exp] = c
        self.terms = clean

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def constant_term(self) -> int:
        """Coefficient at the all-zeros exponent (0 if absent)."""
        return self.terms.get((0,) * self.nvars, 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise ValueError("operands have different numbers of variables")
        if self.modulus != other.modulus:
            raise ValueError("operands have different coefficient moduli")

    def __neg__(self):
        return SparseLaurentPoly(
            self.nvars, self.modulus, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, SparseLaurentPoly):
            return NotImplemented
        self._check_compat(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return SparseLaurentPoly(self.nvars, self.modulus, out)

    __rmul__ = __mul__

    def shift(self, delta):
        """Multiply by the monomial with exponent vector ``delta``."""
        delta = tuple(delta)
        if len(delta) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return SparseLaurentPoly(
            self.nvars,
            self.modulus,
            {tuple(a + b for a, b in zip(e, delta)): c for e, c in self.terms.items()},
        )

    def reduce_mod(self, p):
        """Reduce an integer-coefficient polynomial mod p."""
        _require_prime(p)
        if self.modulus is not None:
            if self.modulus != p:
                raise ValueError("polynomial already carries a different modulus")
            return self
        return SparseLaurentPoly(self.nvars, p, dict(self.terms))

    def __eq__(self, other):
        return (
            isinstance(other, SparseLaurentPoly)
            and self.nvars == other.nvars
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.modulus, tuple(self.sorted_terms())))

    # -- evaluation & serialization ---------------------------------------

    def evaluate(self, point, field):
        """Substitute variable k -> point[k] (elements of ``field``).

        Specializes every variable but the first, then evaluates the
        resulting Laurent polynomial at point[0].  Negative exponents are
        handled via field inversion, so substituting 0 for a variable that
        appears with negative exponent raises ZeroDivisionError.
        """
        return evaluate_laurent(specialize(self, point, 0, field), point[0], field)

    def canonical_str(self) -> str:
        """Canonical text form ``c*L1^e1*...*LN^eN + ...``, lex term order,
        and "0" for the zero polynomial."""
        if not self.terms:
            return "0"
        term_format = "%s" + "".join(map(power_format, range(self.nvars)))
        return " + ".join(term_format % (c, *exp) for exp, c in self.sorted_terms())

    def __repr__(self):
        return f"<SparseLaurentPoly {self.canonical_str()} (mod {self.modulus})>"


def power_format(k):
    """The %-format, of its exponent, of the factor L_{k+1}^e that follows
    a coefficient in a term's canonical text: the one spelling of a power."""
    return f"*L{k + 1}^%d"


def specialize(poly, point, k, field):
    """Substitute point[j] (elements of ``field``) for every variable x_j of
    ``poly`` except x_k, and return the Laurent coefficients in x_k as a dict
    from exponent to element of ``field``.

    Every x_k exponent of the support is a key, even where its coefficient
    cancels to zero, so that evaluate_laurent still refuses x_k = 0 when a
    term has a negative x_k exponent.  The work is on discrete logs, with
    q - 1 for zero: a term's value is the log of c mod p plus one dot
    product of its exponent with the logs of the point (x_k's log counted
    as 0), and adding it to its x_k coefficient is one Zech lookup
    (_zech_add).  Elements are built only for the returned coefficients.
    A fixed coordinate that is 0 zeroes the terms where its exponent is
    positive and raises ZeroDivisionError where it is negative; a fixed
    coordinate outside ``field`` raises ValueError where its exponent is
    nonzero.
    """
    if len(point) != poly.nvars:
        raise ValueError("point has wrong length")
    if poly.modulus is not None and field.p != poly.modulus:
        raise ValueError("field characteristic does not match modulus")
    if not 0 <= k < poly.nvars:
        raise ValueError(f"variable index {k} out of range for {poly.nvars} variables")
    p, n, zech, int_log = field.p, field.q - 1, field._zech, field._int_log
    logs, zeros, foreign = [0] * poly.nvars, [], []
    for j, x in enumerate(point):
        if j == k:
            continue
        if not _in_field(x, field):
            foreign.append(j)
        elif x.k == n:
            zeros.append(j)
        else:
            logs[j] = x.k
    if foreign and any(exp[j] for exp in poly.terms for j in foreign):
        raise ValueError("operands lie in different fields")
    out = {}
    get = out.get
    for exp, c in poly.terms.items():
        t = int_log[c % p]
        for j in zeros:
            if exp[j] < 0:
                raise ZeroDivisionError("inversion of 0 in GF(q)")
            if exp[j]:
                t = n
        if t != n:
            t = (t + sum(map(operator.mul, exp, logs))) % n
        e = exp[k]
        prev = get(e)
        out[e] = t if prev is None else _zech_add(zech, n, prev, t)
    return {e: ExtensionFieldElement(field, t) for e, t in out.items()}


def evaluate_laurent(coeffs, x, field):
    """Value at x of the Laurent polynomial sum_e coeffs[e] * x**e (a dict as
    returned by specialize), by Horner's rule on discrete logs: each step is
    one addition of x's log and, where the step has a coefficient, one Zech
    lookup (_zech_add); one element is built, for the value.  A negative
    exponent with x = 0 raises ZeroDivisionError, and a coefficient or a
    used x outside ``field`` raises ValueError."""
    if not coeffs:
        return field.zero()
    if not all(_in_field(c, field) for c in coeffs.values()):
        raise ValueError("operands lie in different fields")
    lo, hi = min(coeffs), max(coeffs)
    if (lo, hi) == (0, 0):
        return coeffs[0]
    if not _in_field(x, field):
        raise ValueError("operands lie in different fields")
    n, zech, xk = field.q - 1, field._zech, x.k
    if xk == n:
        # every power of x but x**0 is 0
        if lo < 0:
            raise ZeroDivisionError("inversion of 0 in GF(q)")
        return coeffs[0] if lo == 0 else field.zero()
    acc = coeffs[hi].k
    for e in range(hi - 1, lo - 1, -1):
        if acc != n:
            acc = (acc + xk) % n
        c = coeffs.get(e)
        if c is not None:
            acc = _zech_add(zech, n, acc, c.k)
    if lo and acc != n:
        acc = (acc + lo * xk) % n
    return ExtensionFieldElement(field, acc)


DET_BOUND = 8
# The product over the rows of their term counts bounds the Leibniz products
# and the terms of the determinant: quartic-full at p = 7 reaches 5.6e8 (24 s
# and 255 MB on a shared 2-CPU machine), quintic-full at p = 5 2.6e15.
DET_WORK_BOUND = 10**9


class DeterminantBoundError(ValueError):
    """A matrix that det_leibniz refuses: over DET_BOUND rows, or over
    DET_WORK_BOUND in the product of its rows' term counts."""


def det_leibniz(mat) -> PackedPoly:
    """Determinant of a square matrix of SparseLaurentPoly: the Leibniz sum
    over all permutations, grouped by shared minors, as a PackedPoly.
    Guarded by DET_BOUND against blowup in the matrix size and by
    DET_WORK_BOUND against blowup in the terms.

    The expansion runs along the first row, and the minor of the trailing
    rows r..m-1 on each column subset S is computed once, from the minors
    of rows r+1..m-1 on the subsets of S: m * 2**(m-1) products rather than
    m! * (m-1).  Every product works on exponents packed into one int each
    (see _pack_entries), so multiplying two terms is one int addition, and
    the result keeps those keys: no exponent is unpacked here.
    Coefficients are reduced mod the common modulus, and zeros dropped,
    once per minor.
    """
    m = len(mat)
    if any(len(row) != m for row in mat):
        raise ValueError("matrix is not square")
    if m > DET_BOUND:
        raise DeterminantBoundError(f"matrix size {m} exceeds determinant bound {DET_BOUND}")
    if m == 0:
        raise ValueError("empty matrix")
    proto = mat[0][0]
    for row in mat:
        for entry in row:
            proto._check_compat(entry)
    work = math.prod(sum(len(entry.terms) for entry in row) for row in mat)
    if work > DET_WORK_BOUND:
        raise DeterminantBoundError(
            f"determinant work {work:.2e}, the product of the rows' term "
            f"counts, exceeds DET_WORK_BOUND = {DET_WORK_BOUND:.0e}"
        )
    packed, width, lo = _pack_entries(mat)
    offsets = [m * x for x in lo] if lo else [0] * proto.nvars
    return PackedPoly(
        proto.nvars, proto.modulus, _packed_det(packed, proto.modulus), width, offsets
    )


class PackedPoly:
    """A Laurent polynomial on packed exponents, as det_leibniz returns it:
    ``terms`` maps packed keys to nonzero coefficients (mod ``modulus`` when
    it is set).  The exponent of a key is its ``nvars`` fields of ``width``
    bits, coordinate 0 in the most significant one, plus ``offsets``, so the
    int order of the keys is the lex order of the exponents.  No method
    unpacks a key into a whole exponent."""

    __slots__ = ("nvars", "modulus", "terms", "width", "offsets")

    def __init__(self, nvars, modulus, terms, width, offsets):
        self.nvars = nvars
        self.modulus = modulus
        self.terms = terms
        self.width = width
        self.offsets = tuple(offsets)

    def coefficient(self, exp):
        """The coefficient at the exponent ``exp``: one lookup of its packed
        key, and 0 where a coordinate lies outside its field."""
        if len(exp) != self.nvars:
            raise ValueError("exponent has wrong length")
        key = 0
        for x, offset in zip(exp, self.offsets):
            x -= offset
            if not 0 <= x < 1 << self.width:
                return 0
            key = key << self.width | x
        return self.terms.get(key, 0)

    def pieces(self, shifts):
        """The canonical_str texts of this polynomial times L^s, for every
        s in ``shifts``, from one walk over the sorted keys and with no
        shifted polynomial: an iterator of tuples, one piece per shift,
        whose concatenations are the texts.

        The offsets join each shift.  A shift keeps the lex order of the
        terms, and it moves only the first h coordinates, h one past the
        last coordinate that any shift moves.  The keys that share those h
        fields, their head, are contiguous, and each run of them makes one
        piece per shift: the head is unpacked once per run and formatted
        once per run and shift.  Each term's tail, the other fields, is the
        same for all the shifts; its text is the texts of its upper and its
        lower half joined, and each distinct half is unpacked and formatted
        once (_FieldTexts).
        """
        shifts = [tuple(s) for s in shifts]
        if any(len(s) != self.nvars for s in shifts):
            raise ValueError("shift vector has wrong length")
        if not self.terms:
            return iter([("0",) * len(shifts)])
        shifts = [tuple(map(operator.add, s, self.offsets)) for s in shifts]
        h = max((k + 1 for s in shifts for k, x in enumerate(s) if x), default=0)
        return self._pieces(shifts, h)

    def _pieces(self, shifts, h):
        # A term's text is its coefficient, its head's text, then its tail's.
        # Between two heads' texts sit a tail, " + " and the next
        # coefficient: the glue, the same for every shift, so that a run's
        # piece is its glues joined by its head's text.  A tail is split at
        # the middle of its fields into an upper and a lower half, far fewer
        # of each than terms, and its text is theirs joined.
        terms, width, nvars = self.terms, self.width, self.nvars
        middle = (h + nvars) // 2
        lower_bits = (nvars - middle) * width
        tail_bits = (nvars - h) * width
        tail_mask, lower_mask = (1 << tail_bits) - 1, (1 << lower_bits) - 1
        upper, lower = _FieldTexts(h, middle, width), _FieldTexts(middle, nvars, width)
        unpack_head = _unpacker(h, width)
        head_format = "".join(map(power_format, range(h)))

        def pieces(head, glues):
            head = unpack_head(head)
            return tuple(
                (head_format % tuple(map(operator.add, head, s))).join(glues)
                for s in shifts
            )

        keys = sorted(terms)
        key = keys[0]
        head, glues = key >> tail_bits, ["%s" % terms[key]]
        for following in itertools.islice(keys, 1, None):
            glues.append(
                f"{upper[(key & tail_mask) >> lower_bits]}{lower[key & lower_mask]}"
                f" + {terms[following]}"
            )
            if following >> tail_bits != head:
                yield pieces(head, glues)
                head, glues = following >> tail_bits, [""]
            key = following
        glues.append(upper[(key & tail_mask) >> lower_bits] + lower[key & lower_mask])
        yield pieces(head, glues)


class _FieldTexts(dict):
    """{fields first..stop-1 of a packed key, shifted down to bit 0: their
    text}, each unpacked and formatted on its first lookup."""

    __slots__ = ("format", "unpack")

    def __init__(self, first, stop, width):
        self.format = "".join(map(power_format, range(first, stop)))
        self.unpack = _unpacker(stop - first, width)

    def __missing__(self, fields):
        text = self[fields] = self.format % self.unpack(fields)
        return text


def _packed_det(packed, modulus):
    """The determinant of the packed entries, as {packed key: coefficient}
    (see det_leibniz); the minors are gone when it returns."""
    m = len(packed)
    # minors[S] for the column subsets S (bitmasks) of size m - r, rows r..m-1
    minors = {1 << j: entry for j, entry in enumerate(packed[m - 1]) if entry}
    for r in range(m - 2, -1, -1):
        row = packed[r]
        level = {}
        for cols in itertools.combinations(range(m), m - r):
            cols_mask = sum(1 << c for c in cols)
            acc = {}
            get = acc.get
            for pos, j in enumerate(cols):
                entry = row[j]
                minor = minors.get(cols_mask ^ (1 << j))
                if not entry or not minor:
                    continue
                if len(entry) > len(minor):
                    entry, minor = minor, entry
                sign = -1 if pos % 2 else 1
                for ka, ca in entry.items():
                    ca *= sign
                    for kb, cb in minor.items():
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
            if modulus is not None:
                acc = {k: rest for k, c in acc.items() if (rest := c % modulus)}
            else:
                acc = {k: c for k, c in acc.items() if c}
            if acc:
                level[cols_mask] = acc
        minors = level
    return minors.get((1 << m) - 1, {})


def _pack_entries(mat):
    """The entries as {packed exponent: coefficient} dicts, with the field
    width and the per-coordinate offsets lo.

    Coordinate k of an exponent e of N coordinates is stored as e_k - lo_k
    in bits [(N-1-k)*width, (N-k)*width), coordinate 0 most significant,
    where lo_k is the least k-th exponent over all entries and hi_k the
    greatest.  The packed key of a product of r terms is the sum of their
    keys, standing for the exponent sum minus r*lo.  Each field of such a
    sum is at most r*(hi_k - lo_k) <= m*(hi_k - lo_k), and the width keeps
    that below 2**width, so no field carries into the next, and the int
    order of keys of r-term products is the lex order of their exponents.
    The width is a whole number of bytes of a machine integer where
    it can be, which _unpacker reads with one struct call.
    """
    m = len(mat)
    columns = list(zip(*(e for row in mat for entry in row for e in entry.terms)))
    lo = [min(col) for col in columns]
    spread = max((m * (max(col) - low) for col, low in zip(columns, lo)), default=0)
    bits = spread.bit_length()
    width = next((w for w in (8, 16, 32, 64) if bits <= w), bits)
    shifts = [(len(lo) - 1 - k) * width for k in range(len(lo))]
    packed = [
        [
            {
                sum((x - low) << s for x, low, s in zip(e, lo, shifts)): c
                for e, c in entry.terms.items()
            }
            for entry in row
        ]
        for row in mat
    ]
    return packed, width, lo


def _unpacker(nvars, width):
    """The inverse of _pack_entries' packing: a key of ``nvars`` fields ->
    its fields, the most significant first.  Where the width is that of a
    machine integer it is one struct call."""
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}.get(width)
    if code is not None:
        layout = struct.Struct(f">{nvars}{code}")
        return lambda key: layout.unpack(key.to_bytes(layout.size, "big"))
    mask = (1 << width) - 1
    return lambda key: tuple(
        (key >> ((nvars - 1 - k) * width)) & mask for k in range(nvars)
    )


# ---------------------------------------------------------------------------
# Extension fields GF(p^a).  The polynomial helpers below work on dense
# coefficient tuples (constant term first) over GF(p).  They run once per
# field, in find_irreducible and in building the log tables, never per
# operation.
# ---------------------------------------------------------------------------


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmod(f, g, p):
    """The remainder of f modulo the monic g."""
    f = list(f)
    dg = len(g) - 1
    while len(f) > dg:
        shift = len(f) - 1 - dg
        coef = f[-1]
        for i in range(dg + 1):
            f[shift + i] = (f[shift + i] - coef * g[i]) % p
        f.pop()
    return _ptrim(f)


def _is_irreducible(poly, p):
    """Exhaustive divisor search; fine for the desk-scale degrees used here."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for ddeg in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=ddeg):
            g = tuple(lower) + (1,)
            if not _pmod(poly, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(p, a):
    """Lexicographically smallest monic irreducible of degree a over GF(p).

    Candidates are ordered by their lower-coefficient tuple (c0, ..., c_{a-1})
    in ascending lexicographic order; the chosen modulus is deterministic, so
    GF(p^a) values are reproducible across runs.
    """
    _require_prime(p)
    if a < 1:
        raise ValueError("extension degree must be >= 1")
    for lower in itertools.product(range(p), repeat=a):
        cand = lower + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def _log_tables(p, a):
    """(coeffs, log, zech) for GF(p^a): coeffs[k] is the coefficient tuple
    of g^k, for g the first generator of GF(q)^x in lexicographic coefficient
    order, and coeffs[q-1] is the zero tuple; log is the inverse map, and
    zech[k] = log(1 + g^k) for k < q - 1.

    A candidate g is a generator when g^((q-1)/r) != 1 for every prime r
    dividing q - 1, which takes a few dozen products by square and
    multiply; only the generator's cycle is walked."""
    modulus = find_irreducible(p, a)
    low = modulus[:-1]
    one = (1,) + (0,) * (a - 1)
    n = p**a - 1
    cofactors = [n // r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    fields = struct.Struct(f"<{a}H")

    def times_t(x):
        # t^a = -low(t): a shift, less the top coefficient times low
        top = x[-1]
        return tuple((c - top * f) % p for c, f in zip((0,) + x[:-1], low))

    def times(x, y):
        # Horner's rule in t over the coefficients of y
        acc = (0,) * a
        for c in reversed(y):
            acc = tuple((u + c * v) % p for u, v in zip(times_t(acc), x))
        return acc

    def power(x, e):
        acc = one
        for bit in bin(e)[2:]:
            acc = times(acc, acc)
            if bit == "1":
                acc = times(acc, x)
        return acc

    g = next(
        g for g in itertools.product(range(p), repeat=a)
        if any(g) and all(power(g, e) != one for e in cofactors)
    )
    # images[j][c] is c * g * t^j, its coefficients packed into 16-bit
    # fields, so sum_j images[j][x_j] is x * g before the reduction of each
    # field mod p; a field sums a terms below p, and a*(p-1) < p**a <=
    # FIELD_BOUND, so no field carries into the next
    images, basis = [], g
    for _ in range(a):
        images.append([
            sum((c * y % p) << (16 * i) for i, y in enumerate(basis))
            for c in range(p)
        ])
        basis = times_t(basis)
    powers, x = [one], g
    while x != one:
        powers.append(x)
        packed = sum(map(operator.getitem, images, x))
        x = tuple(v % p for v in fields.unpack(packed.to_bytes(fields.size, "little")))
    coeffs = tuple(powers) + ((0,) * a,)
    log = {c: k for k, c in enumerate(coeffs)}
    zech = tuple(log[((c[0] + 1) % p,) + c[1:]] for c in powers)
    return coeffs, log, zech


# the tables of GF(2^16) take about half a second and tens of MB to build
FIELD_BOUND = 2**16


class ExtensionField:
    """GF(p^a) as GF(p)[t] modulo the canonical irreducible of degree a.
    Its _log_tables hold q entries each, so q may not exceed FIELD_BOUND."""

    def __init__(self, p, a=1):
        _require_prime(p)
        # a past the bound's bit length is over the bound for every p, and
        # p**a is not computed for a huge a
        if a >= FIELD_BOUND.bit_length() or p**a > FIELD_BOUND:
            raise ValueError(
                f"GF({p}^{a}) has more than FIELD_BOUND = {FIELD_BOUND} elements"
            )
        self.p = p
        self.a = a
        self.q = p**a
        self.modulus = find_irreducible(p, a)
        self._coeffs, self._log, self._zech = _log_tables(p, a)
        # the log of each residue mod p, the prime field's elements
        self._int_log = tuple(self._log[(c,) + (0,) * (a - 1)] for c in range(p))

    def element(self, coeffs) -> "ExtensionFieldElement":
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.a:
            raise ValueError(f"coefficient vector longer than degree {self.a}")
        return ExtensionFieldElement(
            self, self._log[tuple(coeffs) + (0,) * (self.a - len(coeffs))]
        )

    def from_int(self, c) -> "ExtensionFieldElement":
        return ExtensionFieldElement(self, self._int_log[c % self.p])

    def zero(self):
        return ExtensionFieldElement(self, self.q - 1)

    def one(self):
        return ExtensionFieldElement(self, 0)

    def elements(self):
        """All q elements, in lexicographic coefficient order."""
        for coeffs in itertools.product(range(self.p), repeat=self.a):
            yield ExtensionFieldElement(self, self._log[coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and (self.p, self.a) == (other.p, other.a)
        )

    def __hash__(self):
        return hash((self.p, self.a))

    def __repr__(self):
        return f"ExtensionField(p={self.p}, a={self.a})"


def _in_field(x, field):
    """Whether x is an element of ``field``."""
    return isinstance(x, ExtensionFieldElement) and (
        x.field is field or x.field == field
    )


def _zech_add(zech, n, i, j):
    """The log of g^i + g^j in GF(n + 1), for logs i and j in [0, n] with n
    standing for 0, from the field's table zech[m] = log(1 + g^m): the one
    rule by which this module adds two elements."""
    if i == n:
        return j
    if j == n:
        return i
    z = zech[(j - i) % n]
    return n if z == n else (i + z) % n


class ExtensionFieldElement:
    """Element of GF(p^a), held as its discrete log k (q - 1 for zero): a
    product adds logs, and a sum is one Zech-log lookup (_zech_add)."""

    __slots__ = ("field", "k")

    def __init__(self, field, k):
        self.field = field
        self.k = k

    def _check(self, other):
        if not _in_field(other, self.field):
            raise ValueError("operands lie in different fields")

    def __add__(self, other):
        self._check(other)
        field = self.field
        return ExtensionFieldElement(
            field, _zech_add(field._zech, field.q - 1, self.k, other.k)
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        # -1 is g^((q-1)/2) for odd p, and 1 for p = 2
        field = self.field
        n = field.q - 1
        if self.k == n or field.p == 2:
            return self
        return ExtensionFieldElement(field, (self.k + n // 2) % n)

    def __mul__(self, other):
        self._check(other)
        n = self.field.q - 1
        if self.k == n or other.k == n:
            return ExtensionFieldElement(self.field, n)
        return ExtensionFieldElement(self.field, (self.k + other.k) % n)

    def inverse(self):
        return self ** -1

    def __pow__(self, e):
        n = self.field.q - 1
        if self.k != n:
            return ExtensionFieldElement(self.field, self.k * e % n)
        if e < 0:
            raise ZeroDivisionError("inversion of 0 in GF(q)")
        return self if e else self.field.one()

    def __bool__(self):
        return self.k != self.field.q - 1

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionFieldElement)
            and self.field == other.field
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.field.p, self.field.a, self.k))

    def canonical_str(self):
        return ",".join(map(str, self.field._coeffs[self.k]))

    def __repr__(self):
        return f"<GF({self.field.p}^{self.field.a}) {self.canonical_str()}>"
