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

import itertools
import re
from dataclasses import dataclass

from .exactlin import ExactMatrix, RationalField

Word = tuple[str, ...]


class AlphabetMismatch(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class PolyParseError(Exception):
    pass


_LETTER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\[\]]*")


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
        """Parse the CLI/debug polynomial syntax, e.g. `3/2*x.y + v11 - 1`."""
        pos = 0
        n = len(text)
        acc = self.zero()
        sign_pending = 1
        expect_term = True

        def skip_ws(i):
            while i < n and text[i].isspace():
                i += 1
            return i

        pos = skip_ws(pos)
        if pos == n:
            raise PolyParseError("empty polynomial text")
        while pos < n:
            pos = skip_ws(pos)
            if pos >= n:
                break
            ch = text[pos]
            if ch in "+-":
                if expect_term and ch == "-":
                    sign_pending = -sign_pending
                    pos += 1
                    continue
                if expect_term:
                    pos += 1
                    continue
                sign_pending = 1 if ch == "+" else -1
                expect_term = True
                pos += 1
                continue
            if not expect_term:
                raise PolyParseError(f"unexpected {ch!r} at position {pos}")
            coeff = None
            m = re.match(r"\d+(?:/\d+)?", text[pos:])
            if m:
                try:
                    coeff = self.field.coerce(m.group(0))
                except ZeroDivisionError:
                    raise PolyParseError(
                        f"coefficient {m.group(0)!r} has a zero denominator in {self.field!r}"
                    ) from None
                pos += m.end()
                pos = skip_ws(pos)
                if pos < n and text[pos] == "*":
                    pos += 1
                    pos = skip_ws(pos)
                else:
                    term = self.scalar(self.field.mul(coeff, self.field.coerce(sign_pending)))
                    acc = acc + term
                    sign_pending = 1
                    expect_term = False
                    continue
            word = []
            while True:
                m = _LETTER_RE.match(text, pos)
                if not m:
                    raise PolyParseError(f"expected a letter at position {pos}")
                name = m.group(0)
                self._check_word((name,))
                word.append(name)
                pos = m.end()
                pos = skip_ws(pos)
                if pos < n and text[pos] == ".":
                    pos += 1
                    pos = skip_ws(pos)
                    continue
                break
            c = self.field.one() if coeff is None else coeff
            c = self.field.mul(c, self.field.coerce(sign_pending))
            acc = acc + self.monomial(tuple(word), c)
            sign_pending = 1
            expect_term = False
        if expect_term:
            raise PolyParseError("dangling sign at end of polynomial")
        return acc


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
            s = f.add(out.get(w, f.zero()), c)
            if f.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
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
                w = w1 + w2
                s = f.add(out.get(w, f.zero()), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
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

        Unassigned letters map to the target letter of the same name.
        """
        images = {}
        for name in self.algebra.letters:
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

    def substitute_matrices(self, assignment: dict[str, ExactMatrix], size: int, field) -> ExactMatrix:
        """Evaluate at square matrices: words become matrix products, the
        empty word the identity; coefficients are coerced into the matrices'
        field."""
        acc = ExactMatrix.zeros(field, size, size)
        for w, c in self.terms.items():
            prod = ExactMatrix.identity(field, size)
            for name in w:
                prod = prod * assignment[name]
            acc = acc + prod.scale(field.coerce(c))
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
    """A matrix over a free algebra; shape-consistent arithmetic only."""

    __slots__ = ("algebra", "rows", "cols", "entries")

    def __init__(self, algebra: FreeAlgebra, entries, cols: int | None = None):
        self.algebra = algebra
        grid = []
        for row in entries:
            out = []
            for x in row:
                if isinstance(x, FreePoly):
                    if x.algebra != algebra:
                        raise AlphabetMismatch("entry from a different free algebra")
                    out.append(x)
                else:
                    out.append(algebra.scalar(x))
            grid.append(tuple(out))
        self.rows = len(grid)
        if self.rows:
            self.cols = len(grid[0])
            if any(len(r) != self.cols for r in grid):
                raise ShapeMismatch("ragged rows")
        else:
            self.cols = 0 if cols is None else cols
        if cols is not None and self.cols != cols:
            raise ShapeMismatch(f"expected {cols} columns, got {self.cols}")
        self.entries = tuple(grid)

    @classmethod
    def zeros(cls, algebra, rows, cols):
        z = algebra.zero()
        return cls(algebra, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, algebra, n):
        z, o = algebra.zero(), algebra.one()
        return cls(algebra, [[o if i == j else z for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def unit(cls, algebra, n, i, j):
        """The matrix unit e_ij (1 at position (i, j), 0-based)."""
        z = algebra.zero()
        grid = [[z] * n for _ in range(n)]
        grid[i][j] = algebra.one()
        return cls(algebra, grid, cols=n)

    def entry(self, i, j) -> FreePoly:
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        return (
            isinstance(other, FreeMat)
            and self.algebra == other.algebra
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._check_shape(other)
        return FreeMat(self.algebra,
                       [[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)],
                       cols=self.cols)

    def __sub__(self, other):
        self._check_shape(other)
        return FreeMat(self.algebra,
                       [[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)],
                       cols=self.cols)

    def __neg__(self):
        return FreeMat(self.algebra, [[-p for p in row] for row in self.entries], cols=self.cols)

    def __mul__(self, other):
        if not isinstance(other, FreeMat):
            return NotImplemented
        if self.algebra != other.algebra:
            raise AlphabetMismatch("matrices over different free algebras")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.algebra.zero()
                for k in range(self.cols):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return FreeMat(self.algebra, out, cols=other.cols)

    def scale(self, p) -> "FreeMat":
        if not isinstance(p, FreePoly):
            p = self.algebra.scalar(p)
        return FreeMat(self.algebra, [[p * x for x in row] for row in self.entries],
                       cols=self.cols)

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
            c = terms[lead]
            row_terms, row_combo = row
            for acc, items in ((terms, row_terms.items()), (combo, row_combo.items())):
                for k, rc in items:
                    m = f.mul(c, rc)
                    if k in acc:
                        s = f.sub(acc[k], m)
                        if f.is_zero(s):
                            del acc[k]
                        else:
                            acc[k] = s
                    else:
                        acc[k] = f.neg(m)
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
        above it, so such a span answers from a fresh engine instead.
        """
        if self._built > degree_bound:
            return IdealSpan(self.gens, self._weights).memberships(targets, degree_bound)
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


class LinearElimination:
    """Pre-elimination of an ideal's generators of degree at most 1.

    The generators of degree <= 1 are taken in index order.  Each is reduced
    by the rows so far, every occurrence of a pivot letter rewritten, and
    stored monic under its leading letter (its pivot), with the combination
    of generator products that produced it, like IdealSpan's rows: terms ==
    sum(combo * products).  One that reduces to zero is dropped; one that
    reduces to a nonzero constant joins the residual generators.  A new
    pivot is also rewritten in the earlier rows, so no row holds another
    row's pivot and a word's rewriting takes one step per pivot letter.

    Rewriting by these rows (normal_form) is the algebra map sending each
    pivot letter to its normal form.  It kills every row, and no two pivots
    overlap, so the normal form is unique; rewriting the leftmost pivot
    first also fixes the combination.  The residual generators are the
    nonzero normal forms of the generators of degree >= 2 and the constant
    ones, in index order, over the non-pivot letters in their original
    order, each weighted by its original generator's degree.
    """

    def __init__(self, gens: IdealGens):
        self.gens = gens
        algebra = gens.algebra
        f = algebra.field
        one = f.one()
        self._rows: dict[str, tuple[dict, dict]] = {}
        residual = []  # (generator index, normal form, lift)

        def lift_of(gi, combo):
            # the combination giving g_gi - sum(combo * products)
            lift = {k: f.neg(c) for k, c in combo.items()}
            _add_term(f, lift, ((), gi, ()), one)
            return lift

        for gi, g in enumerate(gens.generators):
            if g.degree() > 1:
                continue
            terms, combo = self.normal_form(g.terms)
            if not terms:
                continue
            lift = lift_of(gi, combo)
            lead = max(terms, key=algebra.monomial_key)
            if not lead:
                residual.append((gi, terms, lift))
                continue
            inv = f.inv(terms[lead])
            row = ({w: f.mul(inv, c) for w, c in terms.items()},
                   {k: f.mul(inv, c) for k, c in lift.items()})
            for earlier_terms, earlier_combo in self._rows.values():
                c = earlier_terms.pop(lead, None)
                if c is not None:
                    for w, rc in row[0].items():
                        if w != lead:
                            _add_term(f, earlier_terms, w, f.neg(f.mul(c, rc)))
                    for k, rc in row[1].items():
                        _add_term(f, earlier_combo, k, f.neg(f.mul(c, rc)))
            self._rows[lead[0]] = row
        for gi, g in enumerate(gens.generators):
            if g.degree() > 1:
                terms, combo = self.normal_form(g.terms)
                if terms:
                    residual.append((gi, terms, lift_of(gi, combo)))
        residual.sort(key=lambda item: item[0])
        self.algebra = FreeAlgebra(f, [x for x in algebra.letters if x not in self._rows])
        self.residual = IdealGens(self.algebra, [FreePoly(self.algebra, terms)
                                                 for _, terms, _ in residual])
        self.weights = [gens.generators[gi].degree() for gi, _, _ in residual]
        self._lifts = [lift for _, _, lift in residual]

    def normal_form(self, terms: dict) -> tuple[dict, dict]:
        """(nf, combo) with terms == nf + sum(combo * products) and no pivot
        letter in nf, rewriting the leftmost pivot of each word first."""
        f = self.gens.algebra.field
        rows = self._rows
        nf: dict = {}
        combo: dict = {}
        pending = list(terms.items())
        while pending:
            w, c = pending.pop()
            k = next((k for k, x in enumerate(w) if x in rows), None)
            if k is None:
                _add_term(f, nf, w, c)
                continue
            left, right = w[:k], w[k + 1:]
            row_terms, row_combo = rows[w[k]]
            # c*w = c*left*row*right - c*left*(row - pivot)*right
            for t, rc in row_terms.items():
                if t != (w[k],):
                    pending.append((left + t + right, f.neg(f.mul(c, rc))))
            for (wl, gi, wr), rc in row_combo.items():
                _add_term(f, combo, (left + wl, gi, wr + right), f.mul(c, rc))
        return nf, combo

    def lift(self, certificate: Certificate, combo: dict) -> Certificate:
        """A certificate over the original generators for the target with
        reduction combo, from a residual certificate of its normal form."""
        f = self.gens.algebra.field
        acc = dict(combo)
        for t in certificate.terms:
            for (wl, gi, wr), c in self._lifts[t.gen_index].items():
                _add_term(f, acc, (t.left + wl, gi, wr + t.right), f.mul(t.coeff, c))
        return _certificate(acc)


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
    from the plain span's.  NotFoundUpTo never claims non-membership.
    """
    if any(t.algebra != gens.algebra for t in targets):
        raise AlphabetMismatch("target from a different free algebra")
    elimination = LinearElimination(gens)
    forms = [elimination.normal_form(t.terms) for t in targets]
    span = IdealSpan(elimination.residual, elimination.weights)
    found = span.memberships([FreePoly(elimination.algebra, nf) for nf, _ in forms],
                             degree_bound)
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
