"""Free associative algebras: noncommutative polynomials, matrices over
them, and bounded-degree two-sided ideal membership with certificates.

Words are tuples of letter names; multiplication concatenates words.  The
monomial order is degree first, then lexicographic in the declared alphabet
order, and every computation that enumerates monomials or products follows
that single order, so results and certificates are deterministic.

Free products of free algebras over the base field are represented as free
algebras on the disjoint union of the letter sets; in everything this
package constructs both factors are free, so this is exact.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass

from .exactlin import RationalField

Word = tuple[str, ...]


class AlphabetMismatch(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class PolyParseError(Exception):
    pass


_LETTER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\[\]]*")
_WORD = rf"{_LETTER_RE.pattern}(?:\s*\.\s*{_LETTER_RE.pattern})*"
# one term of FreeAlgebra.parse, with the whitespace around it
_TERM_RE = re.compile(rf"\s*(?P<signs>[+-][\s+-]*)?(?:(?P<coeff>\d+(?:/\d+)?)"
                      rf"(?:\s*\*\s*(?P<word>{_WORD}))?|(?P<bare>{_WORD}))\s*")


class FreeAlgebra:
    """k<letters>: the free associative algebra on an ordered alphabet."""

    def __init__(self, field, letters):
        self.field = field
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise AlphabetMismatch("duplicate letters in alphabet")
        for name in self.letters:
            if not _LETTER_RE.fullmatch(name):
                raise AlphabetMismatch(f"bad letter name {name!r}")
        self._index = {name: i for i, name in enumerate(self.letters)}

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FreeAlgebra)
            and self.field == other.field
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.field, self.letters))

    def __repr__(self):
        return f"FreeAlgebra({self.field!r}, {list(self.letters)})"

    def monomial_key(self, word: Word):
        return (len(word), tuple(self._index[x] for x in word))

    def _check_word(self, word) -> None:
        """Raise AlphabetMismatch on the first letter of word outside the
        alphabet."""
        for name in word:
            if name not in self._index:
                raise AlphabetMismatch(f"letter {name!r} not in alphabet")

    def poly(self, terms: dict[Word, object]) -> "FreePoly":
        clean = {}
        for word, c in terms.items():
            c = self.field.coerce(c)
            if not self.field.is_zero(c):
                self._check_word(word)
                clean[tuple(word)] = c
        return FreePoly(self, clean)

    def zero(self) -> "FreePoly":
        return FreePoly(self, {})

    def one(self) -> "FreePoly":
        return FreePoly(self, {(): self.field.one()})

    def scalar(self, c) -> "FreePoly":
        return self.poly({(): c})

    def letter(self, name: str) -> "FreePoly":
        self._check_word((name,))
        return FreePoly(self, {(name,): self.field.one()})

    def monomial(self, word: Word, c=1) -> "FreePoly":
        return self.poly({tuple(word): c})

    def embed(self, p: "FreePoly") -> "FreePoly":
        """Reinterpret a polynomial from a subalphabet algebra in this one."""
        if p.algebra == self:
            return p
        if p.algebra.field != self.field:
            raise AlphabetMismatch("cannot embed across base fields")
        missing = [x for x in p.algebra.letters if x not in self._index]
        if missing:
            raise AlphabetMismatch(f"letters {missing} absent from target alphabet")
        return FreePoly(self, dict(p.terms))

    def words_of_degree(self, d: int):
        """All words of length d, in lexicographic order of the alphabet."""
        return itertools.product(self.letters, repeat=d)

    def parse(self, text: str) -> "FreePoly":
        """Parse the polynomial syntax of hom files, e.g. `3/2*x.y + v11 - 1`:

            poly  = [signs] term { signs term }
            signs = ("+" | "-") { "+" | "-" }  (an odd number of "-" negates)
            term  = coeff "*" word | coeff | word
            coeff = digits [ "/" digits ]
            word  = letter { "." letter }

        with letters as _LETTER_RE and whitespace allowed around signs, `*`
        and `.`.  _TERM_RE reads one term at a time.  Raises PolyParseError
        naming the position and the unparsed rest on malformed text, and on
        a coefficient with a zero denominator in the field; AlphabetMismatch
        on a letter outside the alphabet.
        """
        f = self.field
        terms: dict[Word, object] = {}
        pos = 0
        while True:
            m = _TERM_RE.match(text, pos)
            if m is None or (pos and m["signs"] is None):
                raise PolyParseError(f"cannot parse {text[pos:]!r} at position {pos}")
            coeff, word = m["coeff"], m["word"] or m["bare"]
            try:
                c = f.one() if coeff is None else f.coerce(coeff)
            except ZeroDivisionError:
                raise PolyParseError(
                    f"coefficient {coeff!r} has a zero denominator in {f!r}") from None
            word = tuple(re.split(r"\s*\.\s*", word)) if word else ()
            self._check_word(word)
            _add_term(f, terms, word, f.neg(c) if (m["signs"] or "").count("-") % 2 else c)
            pos = m.end()
            if pos == len(text):
                return FreePoly(self, terms)


class FreePoly:
    """A noncommutative polynomial: finitely many words with nonzero coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms: dict[Word, object]):
        self.algebra = algebra
        self.terms = terms  # invariant: no zero coefficients; treat as immutable

    def _coerce_other(self, other):
        if isinstance(other, FreePoly):
            if other.algebra != self.algebra:
                raise AlphabetMismatch("polynomials from different free algebras")
            return other
        return self.algebra.scalar(other)

    def __add__(self, other):
        other = self._coerce_other(other)
        f = self.algebra.field
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(f, out, w, c)
        return FreePoly(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.algebra.field
        return FreePoly(self.algebra, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        other = self._coerce_other(other)
        f = self.algebra.field
        out: dict[Word, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(f, out, w1 + w2, f.mul(c1, c2))
        return FreePoly(self.algebra, out)

    def __rmul__(self, other):
        return self._coerce_other(other) * self

    def scale(self, c):
        f = self.algebra.field
        c = f.coerce(c)
        if f.is_zero(c):
            return self.algebra.zero()
        return FreePoly(self.algebra, {w: f.mul(c, x) for w, x in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, FreePoly):
            return self.algebra == other.algebra and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def constant_term(self):
        return self.terms.get((), self.algebra.field.zero())

    def is_scalar(self) -> bool:
        return self.degree() <= 0

    def sorted_terms(self):
        """Terms in display order: degree descending, then alphabet-lex
        ascending (earlier letters first) within a degree."""
        key = self.algebra.monomial_key
        return sorted(self.terms.items(),
                      key=lambda kv: (-len(kv[0]), key(kv[0])[1]))

    def substitute(self, assignment: dict[str, "FreePoly"], target: FreeAlgebra) -> "FreePoly":
        """Image under the algebra map sending each letter to its assignment.

        Unassigned letters map to the target letter of the same name.  Only
        the letters that occur in this polynomial's words are looked up.
        """
        images = {}
        for name in dict.fromkeys(x for w in self.terms for x in w):
            if name in assignment:
                img = assignment[name]
                if img.algebra != target:
                    raise AlphabetMismatch(f"assignment for {name!r} lies in a different algebra")
                images[name] = img
            else:
                images[name] = target.letter(name)
        acc = target.zero()
        for w, c in self.terms.items():
            prod = target.scalar(c)
            for name in w:
                prod = prod * images[name]
            acc = acc + prod
        return acc

    def to_text(self) -> str:
        """Canonical text form, leading term first; parseable back."""
        if not self.terms:
            return "0"
        f = self.algebra.field
        chunks = []
        rational = isinstance(f, RationalField)
        for i, (w, c) in enumerate(self.sorted_terms()):
            if rational:
                negative = c < 0
                mag = -c if negative else c
            else:
                negative = False
                mag = c
            if not w:
                body = f.to_str(mag)
            elif mag == f.one():
                body = ".".join(w)
            else:
                body = f"{f.to_str(mag)}*" + ".".join(w)
            if i == 0:
                chunks.append(("-" if negative else "") + body)
            else:
                chunks.append((" - " if negative else " + ") + body)
        return "".join(chunks)

    def __repr__(self):
        return f"FreePoly({self.to_text()})"


class FreeMat:
    """A matrix over a free algebra; shape-consistent arithmetic only.

    Only the nonzero entries are stored: nonzero maps (i, j) to the entry
    at row i, column j, its keys in row-major order, and every result keeps
    that order."""

    __slots__ = ("algebra", "rows", "cols", "nonzero")

    def __init__(self, algebra: FreeAlgebra, entries, cols: int | None = None):
        grid = [tuple(row) for row in entries]
        width = len(grid[0]) if grid else (0 if cols is None else cols)
        if any(len(r) != width for r in grid):
            raise ShapeMismatch("ragged rows")
        if cols is not None and width != cols:
            raise ShapeMismatch(f"expected {cols} columns, got {width}")
        nonzero = {}
        for i, row in enumerate(grid):
            for j, x in enumerate(row):
                if not isinstance(x, FreePoly):
                    x = algebra.scalar(x)
                elif x.algebra != algebra:
                    raise AlphabetMismatch("entry from a different free algebra")
                if x.terms:
                    nonzero[i, j] = x
        self.algebra, self.rows, self.cols, self.nonzero = algebra, len(grid), width, nonzero

    @classmethod
    def _of(cls, algebra, rows: int, cols: int, cells: dict) -> "FreeMat":
        """A rows x cols matrix from {(i, j): polynomial over algebra} with
        keys in range: no algebra check, no shape check.  Zero polynomials
        are dropped and the rest put in row-major order."""
        m = object.__new__(cls)
        m.algebra, m.rows, m.cols = algebra, rows, cols
        m.nonzero = {ij: cells[ij] for ij in sorted(cells) if cells[ij].terms}
        return m

    @classmethod
    def zeros(cls, algebra, rows, cols):
        return cls._of(algebra, rows, cols, {})

    @classmethod
    def identity(cls, algebra, n):
        return cls._of(algebra, n, n, {(i, i): algebra.one() for i in range(n)})

    @classmethod
    def unit(cls, algebra, n, i, j):
        """The matrix unit e_ij (1 at position (i, j), 0-based)."""
        return cls._of(algebra, n, n, {(i, j): algebra.one()})

    @property
    def entries(self) -> tuple[tuple[FreePoly, ...], ...]:
        """The dense rows, zeros included: a read-only view."""
        z = self.algebra.zero()
        return tuple(tuple(self.nonzero.get((i, j), z) for j in range(self.cols))
                     for i in range(self.rows))

    def entry(self, i, j) -> FreePoly:
        return self.nonzero.get((i, j), self.algebra.zero())

    def is_zero(self) -> bool:
        return not self.nonzero

    def __eq__(self, other):
        return (
            isinstance(other, FreeMat)
            and self.algebra == other.algebra
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nonzero == other.nonzero
        )

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.nonzero)
        for ij, p in other.nonzero.items():
            out[ij] = out[ij] + p if ij in out else p
        return FreeMat._of(self.algebra, self.rows, self.cols, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return FreeMat._of(self.algebra, self.rows, self.cols,
                           {ij: -p for ij, p in self.nonzero.items()})

    def __mul__(self, other):
        """The product, each entry's terms added in the order of its
        summands a_ik b_kj, k ascending."""
        if not isinstance(other, FreeMat):
            return NotImplemented
        if self.algebra != other.algebra:
            raise AlphabetMismatch("matrices over different free algebras")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        f = self.algebra.field
        other_rows: dict[int, list] = {}
        for (k, j), p in other.nonzero.items():
            other_rows.setdefault(k, []).append((j, p.terms))
        out: dict[tuple[int, int], dict] = {}
        for (i, k), p in self.nonzero.items():
            for j, t2 in other_rows.get(k, ()):
                acc = out.setdefault((i, j), {})
                for w1, c1 in p.terms.items():
                    for w2, c2 in t2.items():
                        _add_term(f, acc, w1 + w2, f.mul(c1, c2))
        return FreeMat._of(self.algebra, self.rows, other.cols,
                           {ij: FreePoly(self.algebra, t) for ij, t in out.items()})

    def scale(self, p) -> "FreeMat":
        if not isinstance(p, FreePoly):
            p = self.algebra.scalar(p)
        return FreeMat._of(self.algebra, self.rows, self.cols,
                           {ij: p * x for ij, x in self.nonzero.items()})

    def _check_shape(self, other):
        if self.algebra != other.algebra:
            raise AlphabetMismatch("matrices over different free algebras")
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self):
        body = "; ".join(", ".join(p.to_text() for p in row) for row in self.entries)
        return f"FreeMat({self.rows}x{self.cols}: {body})"


class IdealGens:
    """Generators of a two-sided ideal; all nonzero, over one algebra."""

    def __init__(self, algebra: FreeAlgebra, generators):
        self.algebra = algebra
        gens = []
        for g in generators:
            if g.algebra != algebra:
                raise AlphabetMismatch("generator from a different free algebra")
            if g.is_zero():
                raise ValueError("zero polynomial cannot be an ideal generator")
            gens.append(g)
        self.generators = tuple(gens)

    def __len__(self):
        return len(self.generators)


@dataclass(frozen=True)
class CertTerm:
    coeff: object
    left: Word
    gen_index: int
    right: Word


class Certificate:
    """An explicit combination target = sum coeff * left * gen * right."""

    def __init__(self, terms):
        self.terms = tuple(terms)

    def evaluate(self, gens: IdealGens) -> FreePoly:
        """The combination, each term's words coeff * left * w * right added
        into one dict.  Raises AlphabetMismatch on a letter outside the
        generators' alphabet."""
        alg = gens.algebra
        f = alg.field
        acc: dict[Word, object] = {}
        for t in self.terms:
            alg._check_word(t.left + t.right)
            coeff = f.coerce(t.coeff)
            for w, c in gens.generators[t.gen_index].terms.items():
                _add_term(f, acc, t.left + w + t.right, f.mul(coeff, c))
        return FreePoly(alg, acc)

    def max_degree(self, gens: IdealGens) -> int:
        return max(
            (len(t.left) + gens.generators[t.gen_index].degree() + len(t.right)
             for t in self.terms),
            default=0,
        )

    def to_json(self, field) -> list[dict]:
        return [
            {
                "coeff": field.to_str(t.coeff),
                "left": ".".join(t.left),
                "gen": t.gen_index,
                "right": ".".join(t.right),
            }
            for t in self.terms
        ]


class MembershipResult:
    """Member (with certificate) or NotFoundUpTo(degree); the latter never
    claims non-membership."""

    def __init__(self, member: bool, certificate: Certificate | None = None,
                 searched_degree: int | None = None):
        self.member = member
        self.certificate = certificate
        self.searched_degree = searched_degree

    @classmethod
    def found(cls, certificate: Certificate, degree: int):
        return cls(True, certificate=certificate, searched_degree=degree)

    @classmethod
    def not_found(cls, degree: int):
        return cls(False, searched_degree=degree)

    def __repr__(self):
        if self.member:
            return f"Member(degree<={self.searched_degree})"
        return f"NotFoundUpTo({self.searched_degree})"


class IdealSpan:
    """Incremental echelonized span of {w_left * g * w_right} by total degree.

    Rows are kept monic with distinct leading monomials; every row carries
    the combination of generator products that produced it, so reductions to
    zero yield certificates for free.  Products are inserted in a fixed
    order (degree, generator index, left length, left word, right word), so
    the state after build_to(d) is deterministic.

    A generator's weight is the degree at which its products enter: the
    products of degree d are w_left * g * w_right with len(w_left) + weight +
    len(w_right) = d.  The weight defaults to the generator's degree, which
    gives the plain span of products of degree at most d.  The residual span
    of decide_memberships weights each generator's normal form by the degree
    of the original generator, so that its degree-d span is exactly the
    normal form of the plain degree-d span of the original generators.
    """

    def __init__(self, gens: IdealGens, weights=None):
        self.gens = gens
        self.algebra = gens.algebra
        self._weights = ([g.degree() for g in gens.generators] if weights is None
                         else list(weights))
        self._rows: dict[Word, tuple[dict, dict]] = {}
        self._built = -1
        self._word_cache: dict[int, list[Word]] = {}
        self._one = self.algebra.field.one()

    def _words(self, d: int) -> list[Word]:
        if d not in self._word_cache:
            self._word_cache[d] = list(self.algebra.words_of_degree(d))
        return self._word_cache[d]

    def build_to(self, degree: int):
        for d in range(self._built + 1, degree + 1):
            self._insert_products_of_degree(d)
            self._built = d

    def _insert_products_of_degree(self, d: int):
        for gi, weight in enumerate(self._weights):
            rem = d - weight
            if rem < 0:
                continue
            for left_len in range(rem + 1):
                right_len = rem - left_len
                for wl in self._words(left_len):
                    for wr in self._words(right_len):
                        self._insert(wl, gi, wr)

    def _insert(self, wl: Word, gi: int, wr: Word):
        terms = {wl + w + wr: c for w, c in self.gens.generators[gi].terms.items()}
        combo = {(wl, gi, wr): self._one}
        lead, terms, combo = self._reduce(terms, combo)
        if lead is None:
            return
        f = self.algebra.field
        inv = f.inv(terms[lead])
        terms = {w: f.mul(inv, c) for w, c in terms.items()}
        combo = {k: f.mul(inv, c) for k, c in combo.items()}
        self._rows[lead] = (terms, combo)

    def _reduce(self, terms: dict, combo: dict):
        """Eliminate leading monomials against stored rows.

        Maintains the invariant that terms - sum(combo * products) never
        changes, so a stored row (reduced insertion) satisfies
        terms == sum(combo * products) exactly.  Returns the new leading word
        (or None if reduced to zero) plus updated terms/combo.
        """
        f = self.algebra.field
        key = self.algebra.monomial_key
        while terms:
            lead = max(terms, key=key)
            row = self._rows.get(lead)
            if row is None:
                return lead, terms, combo
            c = f.neg(terms[lead])
            row_terms, row_combo = row
            for acc, items in ((terms, row_terms.items()), (combo, row_combo.items())):
                for k, rc in items:
                    _add_term(f, acc, k, f.mul(c, rc))
        return None, terms, combo

    def try_reduce_to_zero(self, target: FreePoly) -> Certificate | None:
        """Certificate if target lies in the currently built span, else None."""
        if target.algebra != self.algebra:
            raise AlphabetMismatch("target from a different free algebra")
        if target.is_zero():
            return Certificate([])
        lead, _, combo = self._reduce(dict(target.terms), {})
        if lead is not None:
            return None
        # the invariant gives target == -sum(combo * products)
        f = self.algebra.field
        return _certificate({k: f.neg(c) for k, c in combo.items()})

    def memberships(self, targets: list[FreePoly], degree_bound: int) -> list[MembershipResult]:
        """Decide span membership of every target lazily, building one degree
        at a time and stopping once all are resolved.  Each target is tried
        once per degree, once the degree reaches its own, and resolves at the
        first degree whose span contains it; the rest are NotFoundUpTo(bound).

        A span already built beyond the bound could hand out certificates
        above it, so it raises ValueError; decide_memberships, the one
        caller, always passes a fresh span.
        """
        if self._built > degree_bound:
            raise ValueError(f"span built to degree {self._built}, past the bound {degree_bound}")
        results = [MembershipResult.not_found(degree_bound) for _ in targets]
        pending = list(range(len(targets)))
        for d in range(max(self._built, 0), degree_bound + 1):
            if not pending:
                break
            self.build_to(d)
            still = []
            for i in pending:
                cert = self.try_reduce_to_zero(targets[i]) if targets[i].degree() <= d else None
                if cert is None:
                    still.append(i)
                else:
                    results[i] = MembershipResult.found(cert, d)
            pending = still
        return results


def _certificate(combo: dict) -> Certificate:
    """The certificate sum c * wl * g_gi * wr of a combination {(wl, gi, wr): c},
    its terms sorted by generator index, left length, left word, right word."""
    return Certificate([CertTerm(c, wl, gi, wr) for (wl, gi, wr), c in sorted(
        combo.items(), key=lambda kv: (kv[0][1], len(kv[0][0]), kv[0][0], kv[0][2]))])


def _add_term(f, acc: dict, key, c):
    """acc[key] += c, dropping the entry when the sum is zero."""
    s = f.add(acc[key], c) if key in acc else c
    if f.is_zero(s):
        acc.pop(key, None)
    else:
        acc[key] = s


def _shift_add(f, acc: dict, combo: dict, left: Word, right: Word, c):
    """acc += c * left * combo * right: every product (wl, gi, wr) of the
    combination combo becomes (left + wl, gi, wr + right)."""
    for (wl, gi, wr), rc in combo.items():
        _add_term(f, acc, (left + wl, gi, wr + right), f.mul(c, rc))


def _rule(f, terms: dict, lead: Word, combo: dict) -> tuple[dict, dict]:
    """The rule lead -> (tail, combination) of _rewrite that says terms ==
    sum(combo * products), made monic at its word lead."""
    inv = f.inv(terms[lead])
    neg_inv = f.neg(inv)
    return ({w: f.mul(neg_inv, c) for w, c in terms.items() if w != lead},
            {k: f.mul(inv, c) for k, c in combo.items()})


class LinearElimination:
    """Pre-elimination of an ideal's generators of degree at most 1.

    The pivot generators are those of degree <= 1 outside the span of 1
    and the earlier ones: the pivot columns, but column 0, of the reduced
    echelon of the transpose, column 0 being the vector of 1 and column k
    the k-th generator of degree <= 1.  The rules are the reduced echelon
    of the pivot generators' rows, with a column per letter in descending
    monomial order, one for the constant and one per pivot generator.  A
    row p + sum t_j x_j + t | sum m_i e_i, monic at its leading letter p,
    is the rule p -> (-sum t_j x_j - t, sum m_i g_i) of _rewrite: p ==
    tail + sum(combo * products), and no tail holds a pivot.  The pivot
    generators are independent modulo 1, so no other combination of them
    gives p - tail.

    Rewriting by these rules (normal_form) is the algebra map sending each
    pivot letter to its tail.  It kills every rule, and no two pivots
    overlap, so the normal form is unique; rewriting the leftmost pivot
    first also fixes the combination.  The residual generators are the
    nonzero normal forms of the other generators, constants included, in
    index order, over the non-pivot letters in their original order, each
    weighted by its original generator's degree.
    """

    def __init__(self, gens: IdealGens):
        self.gens = gens
        algebra = gens.algebra
        f = algebra.field
        one = f.one()
        linear = [gi for gi, g in enumerate(gens.generators) if g.degree() <= 1]
        transpose: dict[Word, dict] = {(): {0: one}}
        for k, gi in enumerate(linear, 1):
            for w, c in gens.generators[gi].terms.items():
                transpose.setdefault(w, {})[k] = c
        pivots = [linear[k - 1] for k in f.reduced_echelon(list(transpose.values()),
                                                            len(linear) + 1) if k]
        words = [(x,) for x in reversed(algebra.letters)] + [()]
        column = {w: j for j, w in enumerate(words)}
        m = len(words)
        rows = [{**{column[w]: c for w, c in gens.generators[gi].terms.items()}, m + i: one}
                for i, gi in enumerate(pivots)]
        self.rules: dict[Word, tuple[dict, dict]] = {
            words[p]: ({words[j]: f.neg(t) for j, t in tail.items() if j < m},
                       {((), pivots[j - m], ()): t for j, t in tail.items() if j >= m})
            for p, tail in f.reduced_echelon(rows, m + len(pivots)).items()}
        residual = []  # (generator index, normal form, lift)
        for gi in sorted(set(range(len(gens))) - set(pivots)):
            terms, combo = self.normal_form(gens.generators[gi].terms)
            if terms:
                # g_gi - sum(combo * products), combo holding pivot generators only
                residual.append((gi, terms, {**{k: f.neg(c) for k, c in combo.items()},
                                             ((), gi, ()): one}))
        self.algebra = FreeAlgebra(f, [x for x in algebra.letters if (x,) not in self.rules])
        self.residual = IdealGens(self.algebra, [FreePoly(self.algebra, terms)
                                                 for _, terms, _ in residual])
        self.weights = [gens.generators[gi].degree() for gi, _, _ in residual]
        self._lifts = [lift for _, _, lift in residual]

    def normal_form(self, terms: dict) -> tuple[dict, dict]:
        """(nf, combo) with terms == nf + sum(combo * products) and no pivot
        letter in nf, rewriting the leftmost pivot of each word first."""
        return _rewrite(self.gens.algebra, self.rules, terms)

    def lift(self, certificate: Certificate, combo: dict) -> Certificate:
        """A certificate over the original generators for the target with
        reduction combo, from a residual certificate of its normal form."""
        f = self.gens.algebra.field
        acc = dict(combo)
        for t in certificate.terms:
            _shift_add(f, acc, self._lifts[t.gen_index], t.left, t.right, t.coeff)
        return _certificate(acc)


def _overlap_free_rules(gens: IdealGens) -> dict[Word, tuple[dict, dict]] | None:
    """The rules lead -> (tail, combo) of _rewrite for the generators made
    monic at their leading words (g_i = c * (lead - tail), so combo is
    {((), i, ()): 1/c}), when no leading word is empty, none lies inside
    another (two equal ones included) and none overlaps another or itself
    (a proper suffix of one is a proper prefix of one); None otherwise.

    Such rules have no ambiguities, so by Bergman's diamond lemma every
    polynomial has one normal form under them, and it is zero exactly for
    the elements of the ideal the generators span: they are a Groebner
    basis for the degree-lexicographic order."""
    f = gens.algebra.field
    key = gens.algebra.monomial_key
    rules: dict[Word, tuple[dict, dict]] = {}
    for gi, g in enumerate(gens.generators):
        lead = max(g.terms, key=key)
        if not lead or lead in rules:
            return None
        rules[lead] = _rule(f, g.terms, lead, {((), gi, ()): f.one()})
    for a in rules:
        for b in rules:
            if a != b and any(b[k:k + len(a)] == a for k in range(len(b) - len(a) + 1)):
                return None
            if any(a[-k:] == b[:k] for k in range(1, min(len(a), len(b)))):
                return None
    return rules


def _rewrite(algebra: FreeAlgebra, rules: dict[Word, tuple[dict, dict]],
             terms: dict) -> tuple[dict, dict]:
    """(nf, combo) with terms == nf + sum(combo * products), rewriting by
    rules lead -> (tail, combo), each meaning lead == tail + sum(combo *
    products), whose tails hold only words below their leads.

    The largest word still pending is rewritten at the leftmost leading word
    it contains, the shortest one at that start, or kept in nf when it
    contains none.  Each word is thus rewritten one fixed way, and nf and
    combo are linear in terms.  A heap of negated monomial keys, one per
    word joining pending, yields the largest word first; entries of words
    since cancelled are skipped."""
    f = algebra.field
    nf: dict = {}
    combo: dict = {}
    pending = dict(terms)

    def entry(w):
        size, index = algebra.monomial_key(w)
        return -size, tuple(-i for i in index), w

    heap = [entry(w) for w in pending]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[2]
        if w not in pending:
            continue
        c = pending.pop(w)
        hit = next(((k, n) for k in range(len(w)) for n in range(1, len(w) - k + 1)
                    if w[k:k + n] in rules), None)
        if hit is None:
            nf[w] = c
            continue
        k, n = hit
        left, right = w[:k], w[k + n:]
        tail, rule_combo = rules[w[k:k + n]]
        for t, tc in tail.items():
            u = left + t + right
            if u not in pending:
                heapq.heappush(heap, entry(u))
            _add_term(f, pending, u, f.mul(c, tc))
        _shift_add(f, combo, rule_combo, left, right, c)
    return nf, combo


def decide_memberships(gens: IdealGens, targets: list[FreePoly],
                       degree_bound: int) -> list[MembershipResult]:
    """Membership of each target in the span of the products w * g * w' of
    total degree at most degree_bound, by linear pre-elimination and then a
    weighted residual span.

    Each target t is reduced to its normal form NF(t) by the linear rows
    (LinearElimination), and the residual span (IdealSpan over the residual
    generators with their weights) decides NF(t).  Reduction is an algebra
    map that kills the linear generators and lengthens no word, so t lies in
    the plain degree-d span of gens iff deg t <= d and NF(t) lies in the
    weighted residual span at degree d.  Member flags and degrees are
    therefore those of IdealSpan(gens).memberships: t is found at
    max(deg t, d_r), d_r being the degree at which NF(t) resolved, if that
    is within the bound.  Certificates are lifted to the original generators
    (each residual product shifted by its words, plus the target's own
    reduction terms) and re-evaluate to the target exactly; they may differ
    from the plain span's.

    When the residual generators' leading words are overlap-free
    (_overlap_free_rules), they are a Groebner basis of the residual ideal,
    so an NF(t) that they rewrite to a nonzero polynomial lies in no span
    of the ideal at any degree: t is NotFoundUpTo(bound) without a search,
    as the span would have found.  Only the other targets go to the span,
    whose state at each degree does not depend on the targets pending, so
    every result is the same as without this step.  NotFoundUpTo never
    claims non-membership.
    """
    if any(t.algebra != gens.algebra for t in targets):
        raise AlphabetMismatch("target from a different free algebra")
    elimination = LinearElimination(gens)
    forms = [elimination.normal_form(t.terms) for t in targets]
    rules = _overlap_free_rules(elimination.residual)
    searched = [i for i, (nf, _) in enumerate(forms)
                if rules is None or not _rewrite(elimination.algebra, rules, nf)[0]]
    found = [MembershipResult.not_found(degree_bound) for _ in targets]
    if searched:
        span = IdealSpan(elimination.residual, elimination.weights)
        residual_targets = [FreePoly(elimination.algebra, forms[i][0]) for i in searched]
        for i, res in zip(searched, span.memberships(residual_targets, degree_bound)):
            found[i] = res
    results = []
    for target, (_, combo), res in zip(targets, forms, found):
        degree = max(target.degree(), res.searched_degree)
        if res.member and degree <= degree_bound:
            results.append(MembershipResult.found(elimination.lift(res.certificate, combo),
                                                  degree))
        else:
            results.append(MembershipResult.not_found(degree_bound))
    return results


def default_degree_bound(gens: IdealGens, target: FreePoly) -> int:
    """CLI default: 2 + max generator degree + degree of the target."""
    max_gen = max((g.degree() for g in gens.generators), default=0)
    return 2 + max_gen + max(target.degree(), 0)
