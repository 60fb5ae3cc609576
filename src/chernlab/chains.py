"""Chains in the reduced cyclic complex and the bar complex.

Chains are finite linear combinations of basis words.  A cyclic word
(theta_0, ..., theta_N) is a tuple of N+1 basis indices whose slots
>= 1 live in the quotient by the span of the unit (any component on the
unit is projected out when a term is inserted).  A bar word is a tuple
of N basis indices, reduced in every slot for the "bar_red" kind and
unreduced for "bar".

Sign conventions: with m_k = |theta_0| + ... + |theta_k| - k (and
m_{-1} = 1) and n_k = |theta_1| + ... + |theta_k| - k,

  d  (cyclic)  = - sum_k (-1)^{m_{k-1}} (..., d theta_k, ...)
  b  (cyclic)  = - sum_{k<N} (-1)^{m_k} (..., theta_k theta_{k+1}, ...)
                 + (-1)^{(|theta_N|-1) m_{N-1}} (theta_N theta_0, ...)
  B  (cyclic)  = sum_k (-1)^{(m_{k-1}+1)(m_N - m_{k-1})}
                 (1, theta_k, ..., theta_{k-1})
  d  (bar)     = - sum_k (-1)^{n_{k-1}} (..., d theta_k, ...)
  b' (bar)     = - sum_{k<N} (-1)^{n_k} (..., theta_k theta_{k+1}, ...)

plus the rotation operator N with signs (-1)^{n_k (n_N - n_k)} and the
Chen normalization operators S, R, S_i^(f), T_i^(f):

  S        (theta_0, ...) -> sum_k (theta_0, ..., theta_k, sigma, ...)
  R        (theta_0, ...) -> (sigma theta_0, ...)
  S_i^(f)  (theta_0, ...) -> (-1)^{m_i} (..., theta_i, f, theta_{i+1}, ...)
  T_i^(f)  (theta_0, ...) -> (..., theta_i, f theta_{i+1}, ...)
                             - (..., theta_i f, theta_{i+1}, ...)
                             - (..., theta_i, df, theta_{i+1}, ...)

with theta_{N+1} read as theta_0 in T_N^(f), and the bar-side maps
alpha = N (sigma theta_0, ...), h = N (theta_0, ...), S-bar (sigma after
each bar slot) and S-bar' (sigma in every gap, the front one included).

Each sign is written once, below, from the prefix parities of a word.
A chain holds its terms in one store, a word layer per word length, and
every operator on a chain runs on those layers, d-bar and b' excepted.
The per-word faces of d, b and B run on a {word: coeff} dict instead:
d_total_terms applies d + b - B to one basis word with them, where a
layer pass costs more than the whole loop, bar_differential_terms applies
d-bar + b' to one tensor word, and d-bar and b' run them on chain terms.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

import numpy as np

from .algebra import AlgebraElement, DgAlgebra, _sparse_tables

CYCLIC = "cyclic"
BAR = "bar"
BAR_RED = "bar_red"


class ChainError(ValueError):
    pass


# (-1)^p and -(-1)^p for p in {0, 1}
_SIGN = (1.0, -1.0)
_NEG_SIGN = (-1.0, 1.0)


class Chain:
    """Finite linear combination of basis words over one algebra, set at
    construction.

    The terms live per word length, shortest words first, as one _Layer
    each: an int64 word matrix and a complex coefficient vector, in
    first-occurrence order.  ``Chain(alg, kind, pairs)`` and ``basis_word``
    add their (word, coefficient) pairs one after the other under the rules
    of _add_terms; every operator returns a new chain on the layers it
    built.  ``terms`` reads the layers as a word -> coefficient mapping.
    """

    __slots__ = ("alg", "kind", "_layers")

    def __init__(self, alg: DgAlgebra, kind: str, terms=None):
        if kind not in (CYCLIC, BAR, BAR_RED):
            raise ChainError(f"unknown chain kind {kind!r}")
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        self.alg = alg
        self.kind = kind
        self._layers = _dict_layers(alg.dim, _add_terms(alg, kind, pairs))  # {length: _Layer}

    @property
    def terms(self):
        """Word -> coefficient, a read-only view, shortest words first."""
        return _LayerTerms(self._layers)

    @classmethod
    def _from_layers(cls, alg, kind, layers):
        """A chain on {length: _Layer}; each layer holds distinct admissible
        words and no exact zero."""
        out = cls.__new__(cls)
        out.alg, out.kind = alg, kind
        out._layers = {L: layers[L] for L in sorted(layers) if len(layers[L].coeffs)}
        return out

    @classmethod
    def basis_word(cls, alg, kind, word, coeff=1.0):
        return cls(alg, kind, [(word, coeff)])

    @classmethod
    def from_elements(cls, alg, kind, slots):
        """Expand slot_0 (x) slot_1 (x) ..., a tensor word of AlgebraElements,
        into basis words in the nested-loop order of _kron, as one layer."""
        keys, coeffs = _kron_layer(_slot_factors(alg, kind, slots), alg.dim, 1.0)
        return cls._from_layers(alg, kind, {len(slots): _Layer(alg.dim, len(slots), coeffs, keys=keys)})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return _merged(self, other, 1.0)

    def __sub__(self, other):
        self._check_compatible(other)
        return _merged(self, other, -1.0)

    def scale(self, scalar):
        scalar = complex(scalar)
        if scalar == 0:
            return Chain(self.alg, self.kind)
        return Chain._from_layers(self.alg, self.kind, {L: layer.with_coeffs(_cmul(layer.coeffs, scalar))
                                                        for L, layer in self._layers.items()})

    def _check_compatible(self, other):
        if self.alg is not other.alg or self.kind != other.kind:
            raise ChainError("chains live over different algebras or kinds")

    def norm(self) -> float:
        """Euclidean norm in word coordinates, summed one term after the other
        in layer order."""
        return float(np.sqrt(_ordered_sum([np.float_power(_abs(layer.coeffs), 2)
                                           for layer in self._layers.values()])))

    def max_coeff(self) -> float:
        """Largest |coefficient|, 0.0 on the zero chain; a NaN coefficient gives NaN."""
        cols = [layer.coeffs for layer in self._layers.values()]
        return float(np.max(_abs(np.concatenate(cols)), initial=0.0)) if cols else 0.0

    def prune(self, tol=0.0):
        return Chain._from_layers(self.alg, self.kind, {L: layer.take(_abs(layer.coeffs) > tol)
                                                        for L, layer in self._layers.items()})

    def component(self, N) -> "Chain":
        """Sub-chain of words with N slots beyond slot 0 (or N bar slots)."""
        length = N + 1 if self.kind == CYCLIC else N
        layer = self._layers.get(length)
        return Chain._from_layers(self.alg, self.kind, {} if layer is None else {length: layer})

    # -- grading ------------------------------------------------------------

    def parity(self):
        """0 or 1 when homogeneous, raises otherwise."""
        par = np.array(self.alg.parity_tuple, dtype=np.int8)
        parities = set()
        for L, layer in self._layers.items():
            n_slots = L - 1 if self.kind == CYCLIC else L
            word_par = np.bitwise_xor.reduce(par[layer.words], axis=1) ^ (n_slots % 2)
            parities.update(np.unique(word_par).tolist())
        if len(parities) > 1:
            raise ChainError("chain is not Z2-homogeneous")
        return parities.pop() if parities else 0

    def __repr__(self):
        return f"Chain({self.kind}, {len(self.terms)} terms over {self.alg.name!r})"


def _add(terms, word, coeff):
    """terms[word] += coeff on an insertion-ordered dict; an exact zero sum
    removes the word, so that a word added again comes back last."""
    new = terms.get(word, 0.0) + coeff
    if new == 0:
        terms.pop(word, None)
    else:
        terms[word] = new


def _add_terms(alg, kind, pairs):
    """(word, coefficient) pairs added one after the other into a dict: each
    word becomes a tuple of ints, a word with the unit in a reduced slot and
    an exact zero coefficient are skipped, and _add sums the rest."""
    u = alg.unit_index
    terms = {}
    for word, coeff in pairs:
        word = tuple(int(i) for i in word)
        if coeff == 0 or any(word[p] == u for p in _reduced_positions(kind, len(word))):
            continue
        _add(terms, word, coeff)
    return terms


def _dict_layers(dim, terms):
    """The words and coefficients of a dict as {length: _Layer}, shortest
    words first, each layer in the dict's order."""
    by_len = {}
    for word, coeff in terms.items():
        by_len.setdefault(len(word), []).append((word, coeff))
    return {L: _Layer(dim, L, np.array([cf for _, cf in pairs], dtype=complex),
                      words=np.array([w for w, _ in pairs], dtype=np.int64).reshape(len(pairs), L))
            for L, pairs in sorted(by_len.items())}


def _reduced_positions(kind, length):
    """Slots of a word whose unit component is projected out."""
    if kind == CYCLIC:
        return range(1, length)
    if kind == BAR_RED:
        return range(length)
    return ()


class _LayerTerms(Mapping):
    """Read-only word -> coefficient view of a chain's layers, shortest
    words first; len is O(1) and iteration converts a block of rows at a time."""

    __slots__ = ("_layers", "_index")
    _BLOCK = 4096

    def __init__(self, layers):
        self._layers = layers
        self._index = None

    def __len__(self):
        return sum(len(layer.coeffs) for layer in self._layers.values())

    def __iter__(self):
        for layer in self._layers.values():
            words = layer.words
            for lo in range(0, len(words), self._BLOCK):
                yield from map(tuple, words[lo : lo + self._BLOCK].tolist())

    def items(self):
        return [pair for layer in self._layers.values()
                for pair in zip(map(tuple, layer.words.tolist()), layer.coeffs.tolist())]

    def values(self):
        return [cf for layer in self._layers.values() for cf in layer.coeffs.tolist()]

    def __getitem__(self, word):
        if self._index is None:
            self._index = dict(self.items())
        return self._index[word]


class _Layer:
    """One word length of a chain: the coefficients, and the words
    as an int64 matrix and as base-dim int64 keys.  Either word form is
    derived from the other on first use, and none of the arrays is edited."""

    __slots__ = ("dim", "L", "coeffs", "_words", "_keys")

    def __init__(self, dim, L, coeffs, words=None, keys=None):
        self.dim, self.L, self.coeffs, self._words, self._keys = dim, L, coeffs, words, keys

    @property
    def words(self):
        if self._words is None:
            self._words = _key_words(self._keys, self.dim, self.L)
        return self._words

    @property
    def keys(self):
        if self._keys is None:
            self._keys = _word_keys(self._words, self.dim)
        return self._keys

    def with_coeffs(self, coeffs):
        return _Layer(self.dim, self.L, coeffs, self._words, self._keys)

    def take(self, index):
        words, keys = self._words, self._keys
        return _Layer(self.dim, self.L, self.coeffs[index], None if words is None else words[index],
                      None if keys is None else keys[index])


# -- word layers: word keys, tensor blocks and first-occurrence merges --------


def _slot_factors(alg, kind, slots):
    """Per slot, the basis indices of its nonzero components (a NaN counts,
    a signed zero does not) and their coefficients; unit components of
    reduced slots are skipped, as the words they give die."""
    u = alg.unit_index
    reduced = _reduced_positions(kind, len(slots))
    out = []
    for p, el in enumerate(slots):
        vec = el.coeffs if isinstance(el, AlgebraElement) else np.asarray(el, dtype=complex)
        keep = vec != 0
        if p in reduced:
            keep[u] = False
        nz = np.nonzero(keep)[0]
        out.append((nz, vec[nz]))
    return out


def _kron(factors, coeff):
    """coeff * v_0[i_0] * v_1[i_1] * ... over the kept indices, as a C-order
    Kronecker product: the words come in nested-loop order and each
    coefficient is the left-to-right product.  The real and imaginary parts
    are multiplied as separate float arrays: numpy's complex array multiply
    may fuse a multiply-add, the scalar complex product does not, and this
    way each coefficient equals the scalar product bit for bit."""
    coeff = complex(coeff)
    re, im = np.array([coeff.real]), np.array([coeff.imag])
    outer = np.multiply.outer
    for _, v in factors:
        re, im = (outer(re, v.real) - outer(im, v.imag)).ravel(), (outer(re, v.imag) + outer(im, v.real)).ravel()
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _kron_layer(factors, dim, coeff, tags=None):
    """_kron as int64 word keys and coefficients, exact zero products dropped;
    the words are distinct when no factor lists an index twice.  Given tags
    (per slot, an integer per entry of its factor), also each kept word's
    sum of its letters' tags."""
    _check_key(dim, len(factors))
    keys = np.zeros(1, dtype=np.int64)
    for nz, _ in factors:
        keys = np.add.outer(keys * dim, nz).ravel()
    coeffs = _kron(factors, coeff)
    keep = coeffs != 0
    if tags is None:
        return keys[keep], coeffs[keep]
    sums = np.zeros(1, dtype=np.intp)
    for tag in tags:
        sums = np.add.outer(sums, tag).ravel()
    return keys[keep], coeffs[keep], sums[keep]


def _cmul(a, b):
    """a * b with each real product and sum rounded on its own, as Python's
    scalar complex product is (see _kron)."""
    out = np.empty(len(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _abs(coeffs):
    """|c| as Python's abs(complex) computes it (np.abs may differ in the last bit)."""
    return np.hypot(coeffs.real, coeffs.imag)


def _ordered_sum(parts):
    """Sum of the concatenated parts, one term after the other (np.sum is
    pairwise, and Python's sum compensates from 3.12 on)."""
    flat = np.concatenate(parts) if parts else np.zeros(0)
    return float(np.cumsum(flat)[-1]) if len(flat) else 0.0


def _check_key(dim, L):
    if dim ** L > 2**63 - 1:
        raise ChainError(f"{L}-slot words over a {dim}-dimensional algebra overflow the int64 word key")


def _word_keys(words, dim):
    """Base-dim int64 key per row of a word matrix."""
    _check_key(dim, words.shape[1])
    keys = np.zeros(len(words), dtype=np.int64)
    for j in range(words.shape[1]):
        keys = keys * dim + words[:, j]
    return keys


def _key_words(keys, dim, L):
    words = np.empty((len(keys), L), dtype=np.int64)
    for j in range(L - 1, -1, -1):
        keys, words[:, j] = np.divmod(keys, dim)
    return words


def _merge(keys, coeffs):
    """Distinct keys in first-occurrence order, each with the sum of its
    coefficients taken in input order (as _add adds them); exact
    zero sums drop out, a NaN stays.

    The keys are sorted once.  When they come in long ascending runs, as
    the words of Kronecker blocks do (at least _SORTED_RUN keys per run on
    average), a stable sort costs less and its first index per key is the
    first occurrence; otherwise a quicksort costs less, and the first
    occurrence is the least index per key.  A mask of the first
    occurrences and its running count then rank them in input order."""
    if not len(keys):
        return keys, coeffs
    stable = (np.count_nonzero(keys[1:] < keys[:-1]) + 1) * _SORTED_RUN <= len(keys)
    perm = np.argsort(keys, kind="stable" if stable else "quicksort")
    sorted_keys = keys[perm]
    new = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    first = perm[new] if stable else np.minimum.reduceat(perm, np.flatnonzero(new))
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first) - 1  # of a first occurrence: its place among them
    pos = np.empty(len(keys), dtype=np.intp)
    pos[perm] = rank[first][np.cumsum(new) - 1]
    out = _sum_at(pos, coeffs, len(first))
    keep = out != 0
    if keep.all():
        return keys[is_first], out
    return keys[is_first][keep], out[keep]


def _sum_at(pos, coeffs, n):
    """out[j] = 0 + the coeffs at rows with pos == j, added in row order."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(pos, coeffs.real, n)
    out.imag = np.bincount(pos, coeffs.imag, n)
    return out


class _LayerSum:
    """Running per-length sums of word layers.  A word keeps its first
    position, and its coefficient adds its contributions in the order they
    arrive.  Contributions wait until they outnumber the words held (and
    _MERGE_ROWS), then merge behind them; reading the sums merges the rest."""

    def __init__(self, alg):
        self.dim = alg.dim
        self.sums = {}  # length -> (keys, coeffs), merged
        self.pending = {}  # length -> [(keys, coeffs)], in arrival order

    def add(self, L, keys, coeffs):
        parts = self.pending.setdefault(L, [])
        parts.append((keys, coeffs))
        held = len(self.sums[L][0]) if L in self.sums else 0
        if sum(len(k) for k, _ in parts) >= max(held, _MERGE_ROWS):
            self._flush(L)

    def _flush(self, L):
        batch = self.pending.pop(L)
        keys, coeffs = np.concatenate([k for k, _ in batch]), np.concatenate([c for _, c in batch])
        held_keys, held_coeffs = self.sums.get(L, (keys[:0], coeffs[:0]))
        self.sums[L] = _merge(np.concatenate((held_keys, keys)), np.concatenate((held_coeffs, coeffs)))

    def add_chain(self, c, negate=False):
        """Every layer of c, or of -c."""
        for L, layer in c._layers.items():
            self.add(L, layer.keys, -layer.coeffs if negate else layer.coeffs)

    def merged(self):
        for L in list(self.pending):
            self._flush(L)
        return self.sums

    def size(self):
        return sum(len(keys) for keys, _ in self.merged().values())

    def chain(self, alg, kind):
        return Chain._from_layers(alg, kind, {L: _Layer(self.dim, L, coeffs, keys=keys)
                                              for L, (keys, coeffs) in self.merged().items()})


def _merged(a, b, sign):
    """a + sign * b: a's words first, then b's new ones."""
    out = _LayerSum(a.alg)
    out.sums = {L: (layer.keys, layer.coeffs) for L, layer in a._layers.items()}
    out.add_chain(b, negate=sign < 0)
    return out.chain(a.alg, a.kind)


# -- sign conventions: each written once, as a row per parity pattern --------


def _prefix_parities(parities):
    """P[k] = (|theta_0| + ... + |theta_{k-1}| - k) mod 2, k = 0..len."""
    out, total = [0], 0
    for k, p in enumerate(parities, 1):
        total += p
        out.append((total - k) % 2)
    return out


def _koszul(parities, kind):
    """x[k] = m_{k-1} = (1 + P[k]) mod 2 (cyclic, x[0] = m_{-1} = 1) or n_k = P[k] (bar)."""
    P = _prefix_parities(parities)
    return [(1 + v) % 2 for v in P] if kind == CYCLIC else P


def _d_signs(parities, kind):
    """Sign of d on slot k: -(-1)^{x[k]}."""
    return [_NEG_SIGN[v] for v in _koszul(parities, kind)[:-1]]


def _b_signs(parities, kind):
    """Sign of b (b') on the product of slots k and k+1: -(-1)^{x[k+1]}."""
    return [_NEG_SIGN[v] for v in _koszul(parities, kind)[1:-1]]


def _wrap_sign(parities):
    """Sign of the b term (theta_N theta_0, ...): (-1)^{(|theta_N|-1) m_{N-1}}."""
    return _SIGN[((parities[-1] - 1) * _koszul(parities, CYCLIC)[-2]) % 2]


def _rotation_signs(parities):
    """Sign of the rotation word[k:] + word[:k], k = 0..L: (-1)^{P[k] (P[L] - P[k])},
    which is B's (-1)^{(m_{k-1}+1)(m_N - m_{k-1})} and N's (-1)^{n_k (n_N - n_k)}."""
    P = _prefix_parities(parities)
    return [_SIGN[(v * (P[-1] - v)) % 2] for v in P]


def _insert_signs(parities):
    """Sign of a cyclic insertion at position p = 0..L (after slot p - 1): (-1)^{m_{p-1}} = (-1)^{x[p]}."""
    return [_SIGN[v] for v in _koszul(parities, CYCLIC)]


class _SignRows(dict):
    """One operator's sign rows by parity pattern, computed on first use."""

    def __init__(self, fn, args):
        self.fn, self.args = fn, args

    def __missing__(self, parities):
        row = self[parities] = self.fn(parities, *self.args)
        return row


# (sign function, args) -> its rows; a row depends on the parity pattern
# alone, so the per-word faces and the word-layer kernels share them across calls
_SIGN_ROWS = {}


def _sign_rows(fn, *args):
    rows = _SIGN_ROWS.get((fn, args))
    if rows is None:
        rows = _SIGN_ROWS[(fn, args)] = _SignRows(fn, args)
    return rows


# -- per-word faces of d, b and B --------------------------------------------
# d, b and B on an insertion-ordered {word: coeff} dict, one word after the
# other, into a new dict that _add builds.  They serve d_total_terms, the
# coclosedness residual of one basis word, whose fixed cost is far below a
# word-layer pass (one-word d + b - B: 10.6-18.5 us on the faces against
# 531-757 us on word layers, over the 5,848 coclosedness words of the
# benchmark, one core of a shared 2-core VM), and d-bar and b' on every
# bar chain.  Their unit rule: a new slot k >= lo may not hold the unit,
# with lo = 1 on cyclic words and lo = 0 on reduced bar words; the
# unreduced bar complex has none (u = None).


def _d_faces(alg, kind, terms):
    """d on every slot of every word."""
    u = None if kind == BAR else alg.unit_index
    lo = 1 if kind == CYCLIC else 0
    diff = alg.diff_table
    par = alg.parity_tuple
    signs_of = _sign_rows(_d_signs, kind)
    out = {}
    for word, coeff in terms.items():
        signs = signs_of[tuple([par[i] for i in word])]
        for k, idx in enumerate(word):
            entries = diff.get(idx)
            if not entries:
                continue
            sign = signs[k]
            head, tail = word[:k], word[k + 1 :]
            for l, cf in entries:
                if l != u or k < lo:  # slot k is the only new slot
                    _add(out, head + (l,) + tail, coeff * sign * cf)
    return out


def _b_faces(alg, kind, terms):
    """The products of neighbouring slots of every word, plus the wrap face
    (theta_N theta_0, ...) on cyclic words."""
    u = None if kind == BAR else alg.unit_index
    lo = 1 if kind == CYCLIC else 0
    mul = alg.mul_table
    par = alg.parity_tuple
    signs_of = _sign_rows(_b_signs, kind)
    wrap_of = _sign_rows(_wrap_sign) if kind == CYCLIC else None
    out = {}
    for word, coeff in terms.items():
        N = len(word) - 1
        if N < 1:
            continue
        pattern = tuple([par[i] for i in word])
        signs = signs_of[pattern]
        for k in range(N):
            entries = mul.get((word[k], word[k + 1]))
            if not entries:
                continue
            sign = signs[k]
            head, tail = word[:k], word[k + 2 :]
            for l, cf in entries:
                if l != u or k < lo:  # slot k is the only new slot
                    _add(out, head + (l,) + tail, coeff * sign * cf)
        if wrap_of is not None:
            entries = mul.get((word[N], word[0]))
            if entries:
                sign = wrap_of[pattern]
                mid = word[1:N]
                for l, cf in entries:
                    _add(out, (l,) + mid, coeff * sign * cf)
    return out


def _B_faces(alg, terms):
    """The unit in slot 0 and every signed rotation of every cyclic word."""
    u = alg.unit_index
    head = (u,)
    par = alg.parity_tuple
    signs_of = _sign_rows(_rotation_signs)
    out = {}
    for word, coeff in terms.items():
        if word[0] == u:
            continue  # every rotation moves this unit into a reduced slot
        signs = signs_of[tuple([par[i] for i in word])]
        for k in range(len(word)):
            _add(out, head + word[k:] + word[:k], coeff * signs[k])
    return out


def d_total_terms(alg, word):
    """(d + b - B) of one cyclic basis word as an insertion-ordered
    {word: coeff} dict, on the per-word faces, each term added in
    d_total's order: d, then b, then -B."""
    terms = _add_terms(alg, CYCLIC, [(word, 1.0)])
    out = _d_faces(alg, CYCLIC, terms)
    for w, cf in _b_faces(alg, CYCLIC, terms).items():
        _add(out, w, cf)
    for w, cf in _B_faces(alg, terms).items():
        _add(out, w, -cf)
    return out


def bar_differential_terms(alg, kind, slots):
    """(d-bar + b') of a bar kind's tensor word slot_0 (x) slot_1 (x) ... as an
    insertion-ordered {word: coeff} dict on the faces: d-bar's, then b''s."""
    terms = Chain.from_elements(alg, kind, slots).terms
    out = _d_faces(alg, kind, terms)
    for w, cf in _b_faces(alg, kind, terms).items():
        _add(out, w, cf)
    return out


# -- cyclic differentials ----------------------------------------------------


def d_cyclic(c: Chain) -> Chain:
    """Differential induced by d, on cyclic words."""
    if c.kind != CYCLIC:
        raise ChainError("d_cyclic expects a cyclic chain")
    return _apply_layers(c, _layer_d)


def b_cyclic(c: Chain) -> Chain:
    """Hochschild-type differential on cyclic words."""
    if c.kind != CYCLIC:
        raise ChainError("b_cyclic expects a cyclic chain")
    return _apply_layers(c, _layer_b)


def B_connes(c: Chain) -> Chain:
    """Connes operator: insert the unit in slot 0 and cyclically rotate."""
    if c.kind != CYCLIC:
        raise ChainError("B_connes expects a cyclic chain")
    return _apply_layers(c, _layer_B)


def d_total(c: Chain) -> Chain:
    """d + b - B, the total Z2 differential on the cyclic side."""
    return d_cyclic(c) + b_cyclic(c) - B_connes(c)


# -- bar differentials ---------------------------------------------------------


def d_bar(c: Chain) -> Chain:
    if c.kind not in (BAR, BAR_RED):
        raise ChainError("d_bar expects a bar chain")
    return Chain(c.alg, c.kind, _d_faces(c.alg, c.kind, c.terms))


def b_prime(c: Chain) -> Chain:
    if c.kind not in (BAR, BAR_RED):
        raise ChainError("b_prime expects a bar chain")
    return Chain(c.alg, c.kind, _b_faces(c.alg, c.kind, c.terms))


def cyclicize_N(c: Chain) -> Chain:
    """Signed sum of rotations; image spans the rotation-invariant part."""
    if c.kind != BAR_RED:
        raise ChainError("cyclicize_N expects a reduced bar chain")
    return _apply_layers(c, lambda alg, words, coeffs: _rotations(alg, words, coeffs, range(1, words.shape[1] + 1)))


def _require_sigma(alg):
    if alg.sigma_index is None:
        raise ChainError("operation requires an acyclic extension (no sigma in this algebra)")
    return alg.sigma_index


def _sigma_times(c: Chain, kind) -> Chain:
    """(theta_0, ...) -> (sigma theta_0, ...), as a chain of the given kind."""
    sigma = _require_sigma(c.alg)
    table = c.alg.mul_tgt[sigma], c.alg.mul_cf[sigma]  # the rows of sigma e_j
    return _apply_layers(c, lambda alg, words, coeffs: _slot_product(alg, kind, words, coeffs, 0, *table), kind)


def _insert_sigma(c: Chain, first) -> Chain:
    """sigma inserted at each position first..L of every word, unsigned."""
    sigma = _require_sigma(c.alg)

    def kernel(alg, words, coeffs):
        return [chunk for p in range(first, words.shape[1] + 1)
                for chunk in _gap_insert(alg, c.kind, words, coeffs, p, [sigma])]

    return _apply_layers(c, kernel)


def alpha_map(c: Chain) -> Chain:
    """Parity-preserving map (theta_0, ...) -> N(sigma theta_0, theta_1, ...)."""
    if c.kind != CYCLIC:
        raise ChainError("alpha_map expects a cyclic chain")
    return cyclicize_N(_sigma_times(c, BAR_RED))


def h_map(c: Chain) -> Chain:
    """(theta_0, ..., theta_N) -> N(theta_0, ..., theta_N) as a bar word."""
    if c.kind != CYCLIC:
        raise ChainError("h_map expects a cyclic chain")
    u = c.alg.unit_index  # a unit in slot 0 dies in the reduced bar complex
    return cyclicize_N(Chain._from_layers(c.alg, BAR_RED, {L: layer.take(layer.words[:, 0] != u)
                                                          for L, layer in c._layers.items()}))


def bar_S(c: Chain) -> Chain:
    """Insert sigma after each bar slot (gaps 1..N, unsigned)."""
    if c.kind != BAR_RED:
        raise ChainError("bar_S expects a reduced bar chain")
    return _insert_sigma(c, 1)


def bar_S_prime(c: Chain) -> Chain:
    """bar_S plus the insertion in front: all N+1 gaps, front first."""
    if c.kind != BAR_RED:
        raise ChainError("bar_S_prime expects a reduced bar chain")
    return _insert_sigma(c, 0)


# -- Chen normalization operators ---------------------------------------------


def chen_S(c: Chain) -> Chain:
    """Insert sigma after each cyclic slot (gaps after slots 0..N)."""
    if c.kind != CYCLIC:
        raise ChainError("chen_S expects a cyclic chain")
    return _insert_sigma(c, 1)


def chen_R(c: Chain) -> Chain:
    """(theta_0, ...) -> (sigma theta_0, ...)."""
    if c.kind != CYCLIC:
        raise ChainError("chen_R expects a cyclic chain")
    return _sigma_times(c, CYCLIC)


def _check_chen_f(alg, f: AlgebraElement):
    nz = np.nonzero(f.coeffs != 0)[0]
    if any(alg.degree[i] != 0 for i in nz):
        raise ChainError("f must have degree 0")
    if alg.base_dim is not None and any(i >= alg.base_dim for i in nz):
        raise ChainError("f must come from the base algebra (no sigma component)")


def chen_Si(f: AlgebraElement, i: int, c: Chain) -> Chain:
    """Signed insertion of a degree-0 base element after slot i."""
    if c.kind != CYCLIC:
        raise ChainError("chen_Si expects a cyclic chain")
    _check_chen_f(c.alg, f)
    f_nz = _nonzeros(f.coeffs)

    def kernel(alg, words, coeffs):
        if i >= words.shape[1]:
            return []
        sign = _layer_signs(alg, words, _insert_signs)[:, i + 1]  # (-1)^{m_i}
        return _gap_insert(alg, CYCLIC, words, coeffs * sign, i + 1, *f_nz)

    return _apply_layers(c, kernel)


def chen_Ti(f: AlgebraElement, i: int, c: Chain) -> Chain:
    """Move a degree-0 base element across the tensor sign at gap i: per
    word, the left product f theta_{i+1} (theta_0 at the wrap gap i = N),
    then the right product theta_i f, then the insertion of df."""
    alg = c.alg
    if c.kind != CYCLIC:
        raise ChainError("chen_Ti expects a cyclic chain")
    _check_chen_f(alg, f)
    f_times = _product_table(alg, f.coeffs, lambda j: alg.mul[:, j, :])  # f e_j
    times_f = _product_table(alg, f.coeffs, lambda j: alg.mul[j, :, :])  # e_j f
    df_nz = _nonzeros(alg.diff_coeffs(f.coeffs))

    def kernel(alg, words, coeffs):
        L = words.shape[1]
        if i >= L:
            return []
        return (_slot_product(alg, CYCLIC, words, coeffs, (i + 1) % L, *f_times)
                + _slot_product(alg, CYCLIC, words, -coeffs, i, *times_f)
                + _gap_insert(alg, CYCLIC, words, -coeffs, i + 1, *df_nz))

    return _apply_layers(c, kernel)


# -- word-layer kernels -------------------------------------------------------------
# Every operator on an int64 word matrix and a coefficient vector at once, with
# the per-word faces' sign rows, reduced-slot tests and coefficient products, read
# off the algebra's padded tables.  Each kernel returns chunks (words, coeffs,
# rows), rows being the source row of every output word, and no row twice in a
# chunk; chunks come in the order in which a per-word loop adds the terms
# (slot, then entry).  Three primitives build them: a product of one slot with
# a fixed element, an insertion at one position, and the signed rotations.

_LAYER_BATCH = 1 << 14  # input rows per layer-kernel call: bounds the word-matrix chunks
_MERGE_ROWS = 1 << 20  # pending contributions a _LayerSum holds before it merges
_SORTED_RUN = 16  # mean ascending run length of the keys from which _merge sorts stably


def _layer_signs(alg, words, fn, *args):
    """fn's sign row per word, computed once per distinct parity pattern (at most 2^L)."""
    L = words.shape[1]
    par = np.asarray(alg.parity_tuple, dtype=np.int64)
    codes, inv = np.unique(par[words] @ (1 << np.arange(L)), return_inverse=True)
    rows = _sign_rows(fn, *args)
    return np.array([rows[tuple(c >> j & 1 for j in range(L))] for c in codes.tolist()], dtype=float)[inv]


def _product_table(alg, coeffs, operand):
    """The nonzero products of a fixed element with each basis element e_j as
    a zero-padded (target, coefficient) table with one row per j; row j is
    the einsum of coeffs with the structure constants operand(j), so every
    coefficient has that einsum's bits (a NaN counts as nonzero)."""
    rows = np.stack([np.einsum("a,ak->k", coeffs, operand(j)) for j in range(alg.dim)])
    return _sparse_tables(rows)[1:]


def _nonzeros(vec):
    """The basis indices of vec's nonzero components (a NaN counts) and their values."""
    idx = np.flatnonzero(vec != 0)
    return idx, vec[idx]


def _slot_product(alg, kind, words, coeffs, k, tgt, cf):
    """Slot k of every word replaced by the product that row word[k] of a
    (tgt, cf) table lists, one chunk per table column, with coefficient
    coeffs * cf; a unit landing in a reduced slot dies."""
    out = []
    u = alg.unit_index if k in _reduced_positions(kind, words.shape[1]) else None
    col = words[:, k]
    for e in range(tgt.shape[1]):
        c = cf[col, e]
        rows = np.flatnonzero(c)
        new_k = tgt[col[rows], e]
        if u is not None:
            rows, new_k = rows[new_k != u], new_k[new_k != u]
        if not len(rows):
            continue
        new = words[rows]
        new[:, k] = new_k
        _emit(out, new, _cmul(coeffs[rows], c[rows]), rows)
    return out


def _gap_insert(alg, kind, words, coeffs, p, idx, vals=None):
    """Each basis index idx[j] inserted at position p of every word, one chunk
    per index, with coefficient coeffs * vals[j] (coeffs itself without vals);
    a unit landing in a reduced slot dies."""
    out = []
    reduced = p in _reduced_positions(kind, words.shape[1] + 1)
    rows = np.arange(len(words))
    for j, a in enumerate(idx):
        if not (reduced and a == alg.unit_index):
            _emit(out, np.insert(words, p, a, axis=1), coeffs if vals is None else _cmul(coeffs, vals[j]), rows)
    return out


def _rotations(alg, words, coeffs, ks, head=None):
    """The rotations word[k:] + word[:k] for k in ks, each behind head when
    one is given, with the rotation sign; no slot changes its letter, so none
    gains a unit."""
    out = []
    if not len(words):
        return out
    sign = _layer_signs(alg, words, _rotation_signs)
    lead = [] if head is None else [np.full((len(words), 1), head, dtype=np.int64)]
    rows = np.arange(len(words))
    for k in ks:
        _emit(out, np.concatenate(lead + [words[:, k:], words[:, :k]], axis=1), coeffs * sign[:, k], rows)
    return out


def _layer_d(alg, words, coeffs):
    sign = _layer_signs(alg, words, _d_signs, CYCLIC)
    return [chunk for k in range(words.shape[1])
            for chunk in _slot_product(alg, CYCLIC, words, coeffs * sign[:, k], k, alg.diff_tgt, alg.diff_cf)]


def _layer_b(alg, words, coeffs):
    out = []
    N = words.shape[1] - 1
    if N == 0:
        return out
    u = alg.unit_index
    sign = _layer_signs(alg, words, _b_signs, CYCLIC)
    # (slot pair, the slots before and after the product, sign): the faces
    # theta_k theta_{k+1} at slot k, then the wrap face theta_N theta_0 at slot 0
    faces = [((k, k + 1), slice(0, k), slice(k + 2, None), sign[:, k]) for k in range(N)]
    faces.append(((N, 0), slice(0, 0), slice(1, N), _layer_signs(alg, words, _wrap_sign)))
    for (i, j), head, tail, face_sign in faces:
        a, b = words[:, i], words[:, j]
        for e in range(alg.mul_tgt.shape[2]):
            cf = alg.mul_cf[a, b, e]
            rows = np.flatnonzero(cf)
            tgt = alg.mul_tgt[a[rows], b[rows], e]
            if head.stop:  # the new slot is the only one to test; slot 0 is not reduced
                rows, tgt = rows[tgt != u], tgt[tgt != u]
            if not len(rows):
                continue
            new = np.concatenate([words[rows, head], tgt[:, None], words[rows, tail]], axis=1)
            _emit(out, new, _cmul(coeffs[rows] * face_sign[rows], cf[rows]), rows)
    return out


def _layer_B(alg, words, coeffs):
    rows = np.flatnonzero(words[:, 0] != alg.unit_index)  # every rotation moves a unit into a reduced slot
    return [(w, cf, rows[r]) for w, cf, r in _rotations(alg, words[rows], coeffs[rows], range(words.shape[1]),
                                                        head=alg.unit_index)]


def _apply_layers(c, kernel, kind=None):
    """A word-layer kernel on every layer of c, a batch of input rows at a
    time, into a chain of the given kind (c's own by default).  Each output
    length merges its chunks by source row, stably, so that every word adds
    its contributions in a per-word loop's order (source word, then slot,
    then entry) and keeps its first position."""
    alg = c.alg
    out = _LayerSum(alg)
    for layer in c._layers.values():
        words, coeffs = layer.words, layer.coeffs
        for lo in range(0, len(words), _LAYER_BATCH):
            by_len = {}
            for w, cf, rows in kernel(alg, words[lo : lo + _LAYER_BATCH], coeffs[lo : lo + _LAYER_BATCH]):
                by_len.setdefault(w.shape[1], []).append((_word_keys(w, alg.dim), cf, rows))
            for L, parts in by_len.items():
                order = _row_major(min(_LAYER_BATCH, len(words) - lo), [rows for _, _, rows in parts])
                out.add(L, np.concatenate([keys for keys, _, _ in parts])[order],
                        np.concatenate([cf for _, cf, _ in parts])[order])
    return out.chain(alg, kind or c.kind)


def _row_major(n_rows, chunk_rows):
    """The order that sorts concatenated chunks by source row, chunk by chunk
    within a row: a stable sort by row, read off an (n_rows, chunks) table."""
    table = np.full((n_rows, len(chunk_rows)), -1, dtype=np.intp)
    offset = 0
    for j, rows in enumerate(chunk_rows):
        table[rows, j] = np.arange(offset, offset + len(rows))
        offset += len(rows)
    return table[table >= 0]


def _emit(chunks, words, coeffs, rows):
    keep = coeffs != 0  # drops exact zeros only; a NaN stays and fails the check
    if np.any(keep):
        chunks.append((words[keep], coeffs[keep], rows[keep]))


# -- Kronecker blocks: d and b without the words ----------------------------------
# A cyclic block is the tensor product of its slot vectors: per slot, the
# kept basis indices and their coefficients, as _slot_factors gives them,
# and an integer tag per entry, which _kron_layer sums over the letters of
# each word.  d and b map a block to signed blocks, so that their words
# are never listed on the way in: d replaces one slot by its d, b two
# neighbouring slots by their product.  An entry keeps its tag under d and
# a product adds the two, so every output word carries the tag sum of the
# word it came from.  A new slot may list an index twice (from two entries),
# and the words of an output block need not be distinct.


def _parity_parts(alg, factors, tags):
    """The homogeneous blocks of a block: each slot cut into its even and
    odd entries, one block per choice of a nonempty part in every slot, as
    (parity pattern, factors, tags)."""
    par = np.asarray(alg.parity_tuple, dtype=np.int8)
    choices = []
    for (nz, vals), tag in zip(factors, tags):
        p = par[nz]
        choices.append([(q, (nz[p == q], vals[p == q]), tag[p == q]) for q in (0, 1) if np.any(p == q)])
    for parts in itertools.product(*choices):
        yield tuple(q for q, _, _ in parts), [f for _, f, _ in parts], [t for _, _, t in parts]


def _table_image(alg, vals, tag, tgt, cf, reduced):
    """The entries of a slot through a padded (tgt, cf) table: vals and tag
    hold one coefficient and one tag per source entry, tgt and cf the same
    axes and one more, the table's columns.  Each entry times each nonzero
    table coefficient, source entry by source entry, keeps the entry's
    tag; a unit landing in a reduced slot dies.  None when nothing is left."""
    keep = cf != 0  # the table's padding; a NaN entry still multiplies through
    if reduced:
        keep &= tgt != alg.unit_index
    if not keep.any():
        return None
    return (tgt[keep], (vals[..., None] * cf)[keep]), np.broadcast_to(tag[..., None], cf.shape)[keep]


def _d_blocks(alg, factors, tags):
    """d of a cyclic block as [(sign, factors, tags)]: per homogeneous part
    and slot j >= 1, slot j replaced by its d, signed by the part's
    _d_signs row.  Slot 0 holds the unit, whose d is 0."""
    out = []
    for pattern, fs, ts in _parity_parts(alg, factors, tags):
        signs = _sign_rows(_d_signs, CYCLIC)[pattern]
        for j in range(1, len(fs)):
            nz, vals = fs[j]
            image = _table_image(alg, vals, ts[j], alg.diff_tgt[nz], alg.diff_cf[nz], True)
            if image is not None:
                out.append((signs[j], fs[:j] + [image[0]] + fs[j + 1 :], ts[:j] + [image[1]] + ts[j + 1 :]))
    return out


def _b_blocks(alg, factors, tags):
    """b of a cyclic block as [(sign, factors, tags)]: per homogeneous part,
    the product of slots k and k + 1 at slot k, signed by the part's
    _b_signs row, then the wrap face (slot N times slot 0, ahead of slots
    1..N-1) signed by its _wrap_sign."""
    out = []
    N = len(factors) - 1
    for pattern, fs, ts in _parity_parts(alg, factors, tags):
        signs = _sign_rows(_b_signs, CYCLIC)[pattern]
        faces = [(k, k + 1, k, signs[k]) for k in range(N)]
        if N:
            faces.append((N, 0, 0, _sign_rows(_wrap_sign)[pattern]))
        for i, j, at, sign in faces:
            (a, va), (b, vb) = fs[i], fs[j]
            image = _table_image(alg, np.multiply.outer(va, vb), np.add.outer(ts[i], ts[j]),
                                 alg.mul_tgt[a[:, None], b], alg.mul_cf[a[:, None], b], at > 0)
            if image is None:
                continue
            rest = [p for p in range(N + 1) if p not in (i, j)]
            out.append((sign, [fs[p] for p in rest[:at]] + [image[0]] + [fs[p] for p in rest[at:]],
                        [ts[p] for p in rest[:at]] + [image[1]] + [ts[p] for p in rest[at:]]))
    return out


def _layer_words(alg, N, sample=None, rng=None):
    """All reduced cyclic basis words with N slots beyond slot 0, or a
    seeded sample of that layer."""
    dim = alg.dim
    reduced = np.array([i for i in range(dim) if i != alg.unit_index], dtype=np.int64)
    count = dim * len(reduced) ** N if N else dim
    if sample is not None and count > sample:
        cols = [rng.integers(0, dim, size=sample)]
        for _ in range(N):
            cols.append(reduced[rng.integers(0, len(reduced), size=sample)])
        return np.stack(cols, axis=1).astype(np.int64), True
    grids = np.meshgrid(np.arange(dim), *([reduced] * N), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64), False


def basis_layer(alg, N, sample=None, rng=None):
    """The reduced cyclic basis words with N slots beyond slot 0 as a
    one-layer chain, each word with coefficient 1, or a seeded sample of them
    (drawn with rng when the layer holds more than sample words), in which a
    word drawn twice carries coefficient 2.  Returns (chain, words drawn,
    whether the layer was sampled)."""
    words, sampled = _layer_words(alg, N, sample=sample, rng=rng)
    keys, coeffs = _merge(_word_keys(words, alg.dim), np.ones(len(words), dtype=complex))
    layer = _Layer(alg.dim, N + 1, coeffs, keys=keys)
    return Chain._from_layers(alg, CYCLIC, {N + 1: layer}), len(words), sampled


def _all_basis_words(alg, N_max):
    """All reduced cyclic basis words with at most N_max slots beyond 0."""
    return [w for N in range(N_max + 1) for w in map(tuple, _layer_words(alg, N)[0].tolist())]


# -- entire seminorm bound -----------------------------------------------------


def _floor_half_factorial(N):
    out, k = 1.0, N // 2
    for j in range(2, k + 1):
        out *= j
    return out


def entire_bound(c: Chain) -> float:
    """Upper bound sum_N pi_hat(c_N) / floor(N/2)! computed term by term,
    in the designated max-coefficient norm (1 on every basis element)."""
    off = 1 if c.kind == CYCLIC else 0
    return _ordered_sum([_abs(layer.coeffs) / _floor_half_factorial(L - off) for L, layer in c._layers.items()])


# -- test helpers ----------------------------------------------------------------


def random_basis_word(alg, kind, N, rng):
    """A uniformly random admissible basis word (reduced where required)."""
    u = alg.unit_index
    reduced = [i for i in range(alg.dim) if i != u]
    if kind == CYCLIC:
        word = [int(rng.integers(0, alg.dim))]
        word += [int(reduced[rng.integers(0, len(reduced))]) for _ in range(N)]
    elif kind == BAR_RED:
        word = [int(reduced[rng.integers(0, len(reduced))]) for _ in range(N)]
    else:
        word = [int(rng.integers(0, alg.dim)) for _ in range(N)]
    return tuple(word)
