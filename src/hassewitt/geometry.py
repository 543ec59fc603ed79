"""Support-set combinatorics: the interior monomial set, lifted exponents,
constrained representation enumeration, the lattice of relations, and the
sign-restricted subsets L_i.

Index conventions: a SupportSet reorders its exponents so that the interior
monomials (lexicographically sorted) come first, followed by the remaining
monomials in lexicographic order.  ``input_order`` records the permutation
(new index -> position in the caller-supplied list) so user-facing data such
as specialization points can be permuted to match.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .algebra import factorial_table, inverse_factorial_table


def monomials(d, nvars):
    """All exponent vectors in N^nvars with sum d, in lex order."""
    out = []
    for head in itertools.product(range(d + 1), repeat=nvars - 1):
        rest = d - sum(head)
        if rest >= 0:
            out.append(head + (rest,))
    return sorted(out)


def enumerate_interior(d, n):
    """All u in N^{n+1} with sum(u) = d and every u_i > 0, in lex order:
    the monomials of degree d-n-1 in n+1 variables, each coordinate plus 1.

    These index the rows/columns of the Hasse-Witt matrix; there are
    C(d-1, n) of them, and the set is empty iff d < n+1.
    """
    if d < n + 1:
        raise ValueError(
            f"no interior monomials: degree {d} < {n + 1} variables"
        )
    return [tuple(x + 1 for x in a) for a in monomials(d - n - 1, n + 1)]


def lift(exponents):
    """Append a coordinate 1 to every exponent vector."""
    return tuple(tuple(a) + (1,) for a in exponents)


class SupportSet(
    namedtuple("SupportSet", "n d exponents m u_contained input_order")
):
    """The exponent vectors of a sparse homogeneous polynomial family: an
    immutable, hashable record (n, d, exponents, m, u_contained,
    input_order).

    ``m`` counts how many interior monomials are present in the support;
    when ``u_contained`` is true the full interior set occupies indices
    0..m-1.  Operations that need the interior set inside the support must
    check ``u_contained`` and refuse otherwise.
    """

    __slots__ = ()

    @classmethod
    def build(cls, n, d, exponents):
        exps = [tuple(int(x) for x in a) for a in exponents]
        if not exps:
            raise ValueError("support is empty")
        for a in exps:
            if len(a) != n + 1:
                raise ValueError(f"exponent {a} has length != n+1 = {n + 1}")
            if any(x < 0 for x in a):
                raise ValueError(f"exponent {a} has a negative entry")
            if sum(a) != d:
                raise ValueError(f"exponent {a} is not homogeneous of degree {d}")
        if len(set(exps)) != len(exps):
            raise ValueError("support contains repeated exponents")
        if d < n + 1:
            raise ValueError(f"degree {d} < n+1 = {n + 1}: interior set is empty")
        interior = set(enumerate_interior(d, n))
        present = sorted(a for a in exps if a in interior)
        rest = sorted(a for a in exps if a not in interior)
        ordered = present + rest
        input_order = tuple(exps.index(a) for a in ordered)
        return cls(
            n=n,
            d=d,
            exponents=tuple(ordered),
            m=len(present),
            u_contained=len(present) == len(interior),
            input_order=input_order,
        )

    @property
    def N(self):
        return len(self.exponents)

    @property
    def lifted(self):
        return lift(self.exponents)

    @property
    def weights(self):
        """w_k = |a_k|^2 over the exponents a_k: every nonzero l in L_i has
        w.l > 0 (suites 2.9 and 2.11)."""
        return tuple(sum(x * x for x in a) for a in self.exponents)

    def interior_set(self):
        return enumerate_interior(self.d, self.n)


def enumerate_representations(lifted, target):
    """All e in N^N with sum_k e_k * lifted[k] = target, lex-ascending in e."""
    # with every weight 1, each value of the walk is 1 and only its labels count
    unit = [1] * (max(target, default=0) + 1)
    return [
        head + tail
        for head, _, tails in _walk(lifted, target, _coordinate, unit, 2, 1)
        for tail, _ in tails
    ]


def representation_coefficients(lifted, target, p):
    """{e: (p-1)! / (e_0! ... e_{N-1}!) mod p} over the e of
    enumerate_representations(lifted, target), in the same lex order, for a
    target whose last coordinate is p - 1 (so every e sums to p - 1)."""
    target = tuple(target)
    if not target or target[-1] != p - 1:
        raise ValueError(f"target {target} does not end in p - 1 = {p - 1}")
    return {
        head + tail: c * w % p
        for head, c, tails in representation_blocks(lifted, target, p, _coordinate)
        for tail, w in tails
    }


def representation_blocks(lifted, target, p, letter):
    """The terms {e: sigma! / (e_0! ... e_{N-1}!) mod p} over the e of
    enumerate_representations(lifted, target), for a target whose last
    coordinate sigma is below p (so every e sums to sigma), each labelled
    letter(0, e_0) + ... + letter(N-1, e_{N-1}) (a str or a tuple), in
    blocks, one per prefix at the walk's cut: an iterator of (head, c,
    tails), whose terms are (head + tail, c * w % p) for the (tail, w) of
    the nonempty list ``tails``, in order.  Lists are shared between blocks
    and must not be changed."""
    target = tuple(target)
    if not target or not 0 <= target[-1] < p:
        raise ValueError(f"target {target} does not end in 0..p - 1 = {p - 1}")
    return _walk(
        lifted, target, letter, inverse_factorial_table(p), p,
        factorial_table(p)[target[-1]],
    )


def _coordinate(k, e):
    return (e,)


def _walk(lifted, target, letter, weight, modulus, root):
    """The terms (letter(0, e_0) + ... + letter(N-1, e_{N-1}),
    root * weight[e_0] * ... * weight[e_{N-1}] % modulus) over all e in N^N
    with sum_k e_k * lifted[k] = target, lex-ascending in e, as an iterator
    of blocks (head, c, tails): the terms (head + tail, c * w % modulus) for
    (tail, w) in tails.

    Every lifted vector is nonnegative with last coordinate 1, so the last
    target coordinate bounds the total of the e_k, and weight needs an entry
    for each value up to it.  The walk expands only the live edges of
    _live_edges, so it never dead-ends.  Its levels from the
    cut of _cut on are a memo, built once (_tails); a depth-first search
    above the cut (_descend) shares each prefix's label and product among
    the paths through it, and emits one block per prefix that reaches the
    cut: its label and product, and its node's tails in the memo.
    """
    lifted = [tuple(v) for v in lifted]
    target = tuple(target)
    N = len(lifted)
    for v in lifted:
        if len(v) != len(target) or v[-1] != 1 or min(v) < 0:
            raise ValueError(f"{v} is not a lifted exponent vector for {target}")
    empty = letter(0, 0)[:0]  # the label of the empty e: "" or ()
    if min(target, default=0) < 0:
        return iter(())
    if not N:
        # no column to walk: the empty e reaches only the zero target
        return iter(() if any(target) else [(empty, root, [(empty, 1)])])
    walk = _live_edges(lifted, target)
    if walk is None:
        return iter(())
    live, sizes, start, zero = walk
    letters = [[letter(k, e) for e in range(target[-1] + 1)] for k in range(N)]
    cut = _cut(sizes)
    tails = _tails(live, {zero: [(empty, 1)]}, cut, letters, weight, modulus)
    return _descend(live, start, cut, tails, letters, weight, modulus, (empty, root))


def _cut(sizes):
    """The shallowest level k >= 1 at which the tails of the nodes on
    levels k..N-1, the memo that _tails builds, number no more than the
    terms; sizes[k] counts the tails of level k, so sizes[0] is the number
    of terms.  Level N always qualifies, with no memo, and level 1 only
    when N <= 2, since sizes[1] = sizes[0]."""
    held = 0
    for k in reversed(range(1, len(sizes))):
        held += sizes[k]
        if held > sizes[0]:
            return k + 1
    return 1


def _tails(live, tails, cut, letters, weight, modulus):
    """{residual: [(label, product of weights mod modulus)]} for every live
    node on level ``cut``: its completions e_cut..e_{N-1}, lex-ascending.
    Built bottom-up from ``tails``, those of level N, each level from the
    one below, which is then dropped."""
    for k in reversed(range(cut, len(live))):
        letter = letters[k]
        tails = {
            r: [
                (letter[e] + label, weight[e] * c % modulus)
                for e, s in edges
                for label, c in tails[s]
            ]
            for r, edges in live[k].items()
        }
    return tails


def _descend(live, start, cut, tails, letters, weight, modulus, root):
    """The walk's blocks (head, c, tails), one per prefix e_0..e_{cut-1},
    from the levels above ``cut`` and the ``tails`` of level cut; root is the
    (label, product) of the empty prefix."""
    prefix = [root] * cut  # prefix[k]: the label and product of e_0..e_{k-1}
    stack = [iter(live[0][start])]
    k = 0
    last = cut - 1
    while True:
        label, c = prefix[k]
        for e, s in stack[k]:
            head = label + letters[k][e]
            c_head = c * weight[e] % modulus
            if k == last:
                yield head, c_head, tails[s]
            else:
                k += 1
                prefix[k] = head, c_head
                stack.append(iter(live[k][s]))
                break
        else:
            stack.pop()
            if not k:
                return
            k -= 1


def _live_edges(lifted, target):
    """(live, sizes, start, zero) for the walk to the nonnegative
    ``target``, or None when no e reaches it.

    The residual target - sum_{j<k} e_j * lifted[j] is packed into one int,
    one field per coordinate with a guard bit on top, so subtracting a
    column is one int subtraction and a negative coordinate shows as a
    cleared guard bit; start and zero are the packed target and the packed
    zero residual.  A forward pass collects the residuals reachable after
    each prefix of columns and a backward pass keeps those from which 0 is
    reachable: live[k] maps each such residual at level k to its edges
    [(e_k, next residual)].  The backward pass also counts each node's
    completions, and sizes[k] (k < N) is their total over level k: sizes[0]
    is the number of e.
    """
    N = len(lifted)
    # a field holds any target or column entry, with the guard bit above it;
    # a coordinate driven negative by one column clears its guard bit and
    # borrows nothing from the next field
    shift = max([*target, *map(max, lifted)]).bit_length() + 1
    guards = _pack([1 << (shift - 1)] * len(target), shift)
    cols = [_pack(v, shift) for v in lifted]
    zero = guards  # the all-zero residual
    start = guards + _pack(target, shift)
    # reach[k]: residuals after choosing e_0..e_{k-1}
    reach = [{start}]
    for col in cols:
        nxt = set()
        for r in reach[-1]:
            while r & guards == guards:
                nxt.add(r)
                r -= col
        reach.append(nxt)
    if zero not in reach[N]:
        return None
    live = [None] * N
    sizes = [0] * N
    counts = {zero: 1}  # completions of each live residual on level k + 1
    for k in reversed(range(N)):
        col = cols[k]
        level = {}
        level_counts = {}
        for r in reach[k]:
            edges = []
            n = 0
            e, s = 0, r
            while s & guards == guards:
                if s in counts:
                    edges.append((e, s))
                    n += counts[s]
                e += 1
                s -= col
            if edges:
                level[r] = edges
                level_counts[r] = n
        live[k] = level
        sizes[k] = sum(level_counts.values())
        counts = level_counts
    return (live, sizes, start, zero) if start in counts else None


def _pack(vec, shift):
    return sum(x << (i * shift) for i, x in enumerate(vec))


def kernel_basis(lifted):
    """A Z-basis of the lattice {l : sum_k l_k * lifted[k] = 0}.

    Computed by integer (Hermite-style) row reduction of the augmented
    matrix [A^T | I]: unimodular row operations preserve the correspondence
    between rows and integer combinations of the columns, so the rows whose
    A^T-part vanishes form a basis of the full kernel lattice, not merely a
    rational basis.
    """
    N = len(lifted)
    m = len(lifted[0]) if lifted else 0
    rows = [list(v) + [int(j == k) for j in range(N)] for k, v in enumerate(lifted)]
    rank = len(_echelon(rows, m))
    return sorted(_sign_normalize(tuple(row[m:])) for row in rows[rank:])


def _echelon(rows, ncols):
    """Echelon form of the integer rows on their first ncols columns, in place,
    by unimodular row operations; returns the pivots, one per leading row."""
    pivots = []
    for col in range(ncols):
        pivot = len(pivots)
        while cand := [r for r in range(pivot, len(rows)) if rows[r][col] != 0]:
            r0 = min(cand, key=lambda r: (abs(rows[r][col]), r))
            rows[pivot], rows[r0] = rows[r0], rows[pivot]
            if len(cand) == 1:
                pivots.append(rows[pivot][col])
                break
            for r in range(pivot + 1, len(rows)):
                if rows[r][col]:
                    q = rows[r][col] // rows[pivot][col]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[pivot])]
    return pivots


def _lattice_invariants(vectors, N):
    """(rank, product of the |pivots| of an echelon basis) of the lattice the
    vectors span in Z^N.  Lattices M inside L of one rank share their pivot
    columns, so [L : M] is the ratio of the two products."""
    pivots = _echelon([list(v) for v in vectors], N)
    return len(pivots), math.prod(map(abs, pivots))


def _sign_normalize(vec):
    for x in vec:
        if x < 0:
            return tuple(-y for y in vec)
        if x > 0:
            return tuple(vec)
    return tuple(vec)


def enumerate_Li(lifted, i, depth):
    """All l with sum_k l_k*lifted[k] = 0, l_i <= 0, l_k >= 0 for k != i,
    and -l_i <= depth.  Includes l = 0; deterministic order (by -l_i, then
    lex in the nonnegative part).

    Every lifted column ends in 1, so such an l with -l_i = t is a
    representation e of depth * lifted[i] with the slack e_i = depth - t:
    one walk finds them all.  The walk is lex-ascending in e, so a stable
    sort on -l_i gives the order above.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    target = tuple(depth * c for c in lifted[i])
    out = enumerate_representations(lifted, target)
    for k, e in enumerate(out):  # in place: no second list is held
        out[k] = e[:i] + (e[i] - depth,) + e[i + 1 :]
    out.sort(key=lambda l: -l[i])
    return out


def is_relation(lifted, l):
    """True iff sum_k l_k * lifted[k] = 0."""
    return len(l) == len(lifted) and not any(
        sum(map(operator.mul, l, column)) for column in zip(*lifted)
    )


def in_Li(lifted, i, l):
    if not is_relation(lifted, l):
        return False
    if l[i] > 0:
        return False
    return all(x >= 0 for k, x in enumerate(l) if k != i)


def enumerate_box_relations(lifted):
    """Markov moves of the lattice of relations, sign-normalised, built
    degree by degree.  For t = 2, 3, ... the e in N^N with |e| = t are
    grouped into fibers by their image sum_k e_k * lifted[k]; in each fiber,
    union-find joins the points that differ by a move (only moves of lower
    degree can apply), and every component after the first adds one move.
    The search stops after the first degree D at which the moves generate
    the lattice of ``kernel_basis``.  Every fiber of degree <= D is then
    connected; the moves are a Markov basis when the toric ideal is
    generated in degree <= D, as the Veronese ideals of the full presets are.
    """
    lifted = [tuple(v) for v in lifted]
    N = len(lifted)
    lattice = _lattice_invariants(kernel_basis(lifted), N)
    moves = []
    t = 1
    while _lattice_invariants(moves, N) != lattice:
        t += 1
        fibers = {}
        for combo in itertools.combinations_with_replacement(range(N), t):
            image = tuple(map(sum, zip(*(lifted[k] for k in combo))))
            fibers.setdefault(image, []).append(tuple(map(combo.count, range(N))))
        for points in fibers.values():
            moves += _fiber_moves(points, moves)
    return moves


def _fiber_moves(points, moves):
    """One move per component of the fiber under the given moves, after the
    first: from the first point of the first component to its own."""
    parent = {e: e for e in points}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for e in points:
        for l in moves:
            f = tuple(map(operator.add, e, l))
            if f in parent:
                parent[find(f)] = find(e)
    firsts = {}
    for e in points:
        firsts.setdefault(find(e), e)
    first, *others = firsts.values()
    return [_sign_normalize(tuple(map(operator.sub, e, first))) for e in others]
