import pytest

from hassewitt import SparseLaurentPoly, SupportSet
from hassewitt.algebra import factorial_table, inverse_factorial_table
from hassewitt.cli import PRESETS


# the sextic plane curve: all ten interior monomials and the Fermat terms
SEXTIC = {
    "n": 2,
    "d": 6,
    "p": 7,
    "exponents": [[a, b, 6 - a - b] for a in range(1, 5) for b in range(1, 6 - a)]
    + [[6, 0, 0], [0, 6, 0], [0, 0, 6]],
}


def support_from_preset(name):
    """The support of a CLI preset, or of SEXTIC for "sextic"."""
    cfg = SEXTIC if name == "sextic" else PRESETS[name]
    return SupportSet.build(cfg["n"], cfg["d"], cfg["exponents"])


def strip_seconds(obj):
    """A CLI JSON payload without its ``seconds`` timing fields."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def joined(text):
    """The string that a reports.Text stands for, read from its pieces."""
    return "".join(text.pieces)


def multinomial_mod_p(e, p) -> int:
    """(p-1)! / (e_1! ... e_N!) mod p, for e summing to p-1: the oracle for
    the coefficients that the representation walk carries.

    Every e_k < p, so each factorial is a unit mod p and the quotient is
    (p-1)! times a product of entries of the inverse-factorial table.
    """
    e = tuple(e)
    if min(e, default=0) < 0:
        raise ValueError("negative entry in multinomial argument")
    if sum(e) != p - 1:
        raise ValueError(f"entries sum to {sum(e)}, expected p-1 = {p - 1}")
    inv = inverse_factorial_table(p)
    val = factorial_table(p)[p - 1]
    for x in e:
        val = val * inv[x] % p
    return val


def mono(exp, c=1, p=None):
    """c * L^exp, with coefficients mod p, or integers when p is None."""
    exp = tuple(exp)
    return SparseLaurentPoly(len(exp), p, {exp: c})


def const(nvars, c=1, p=None):
    return mono((0,) * nvars, c, p)


def zero(nvars, p=None):
    return SparseLaurentPoly(nvars, p, {})


def plus(*polys):
    """The sum of polynomials in the same variables and modulus, built as
    one term dict."""
    terms = {}
    for f in polys:
        for exp, c in f.terms.items():
            terms[exp] = terms.get(exp, 0) + c
    return SparseLaurentPoly(polys[0].nvars, polys[0].modulus, terms)


def det_cofactor(mat):
    # independent oracle: expansion along the first row
    m = len(mat)
    if m == 1:
        return mat[0][0]
    terms = []
    for j in range(m):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * det_cofactor(minor)
        terms.append(term if j % 2 == 0 else -term)
    return plus(*terms)


def unpacked(d):
    """The SparseLaurentPoly that an algebra.PackedPoly stands for, its terms
    in the int order of the packed keys: independent of PackedPoly's own
    readers, field k of a key is read by a shift and a mask."""
    mask = (1 << d.width) - 1
    terms = {}
    for key in sorted(d.terms):
        fields = [(key >> ((d.nvars - 1 - k) * d.width)) & mask for k in range(d.nvars)]
        terms[tuple(f + o for f, o in zip(fields, d.offsets))] = d.terms[key]
    return SparseLaurentPoly(d.nvars, d.modulus, terms)


def monomial_derivative(f, orders):
    # independent oracle: prod_k (d/dL_k)^{orders[k]} f, term by term; a
    # coordinate of order 0 changes no term, so only the others are visited
    active = [(k, m) for k, m in enumerate(orders) if m]
    out = {}
    for exp, c in f.terms.items():
        key = list(exp)
        for k, m in active:
            for t in range(m):
                c *= exp[k] - t
            key[k] -= m
        if c:
            key = tuple(key)
            out[key] = out.get(key, 0) + c
    return SparseLaurentPoly(f.nvars, f.modulus, out)


@pytest.fixture
def hesse():
    return support_from_preset("hesse-cubic")


@pytest.fixture
def fermat():
    return support_from_preset("fermat-cubic")


@pytest.fixture
def quartic():
    return support_from_preset("quartic-full")


@pytest.fixture
def quintic():
    return support_from_preset("quintic-full")
