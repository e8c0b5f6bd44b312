"""The benchmark's own exact algebra, written apart from quiverepi.

Noncommutative polynomials are dicts from words (tuples of letter names)
to Fractions.  Linear systems are lists of Fraction rows.  Nothing here
imports quiverepi, so the output checks built on it do not share code
with the program they check.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*(\*)?)?\s*([A-Za-z_][A-Za-z0-9_\[\]]*(?:\.[A-Za-z_][A-Za-z0-9_\[\]]*)*)?"
)


class ParseFailure(ValueError):
    pass


def parse_poly(text: str) -> dict:
    """Parse quiverepi's polynomial text (`3/2*x.y - v1_1 + 1`) over QQ."""
    text = text.strip()
    if not text:
        raise ParseFailure("empty polynomial text")
    out: dict = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, coeff, star, word = m.group(1), m.group(2), m.group(3), m.group(4)
        if m.end() == pos or (coeff is None and word is None):
            raise ParseFailure(f"cannot parse {text!r} at {pos}")
        if sign is None and not first:
            raise ParseFailure(f"missing sign in {text!r} at {pos}")
        if star and word is None:
            raise ParseFailure(f"dangling '*' in {text!r}")
        c = Fraction(coeff) if coeff is not None else Fraction(1)
        if sign == "-":
            c = -c
        w = tuple(word.split(".")) if word else ()
        poly_add_term(out, w, c)
        pos = m.end()
        first = False
    return out


def poly_add_term(p: dict, word: tuple, c) -> None:
    s = p.get(word, 0) + c
    if s == 0:
        p.pop(word, None)
    else:
        p[word] = s


def poly_add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for w, c in q.items():
        poly_add_term(out, w, scale * c)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            poly_add_term(out, w1 + w2, c1 * c2)
    return out


def poly_key(p: dict) -> frozenset:
    return frozenset(p.items())


def poly_degree(p: dict) -> int:
    return max((len(w) for w in p), default=-1)


def mat_mul(a, b):
    """Product of matrices of polynomials (lists of lists of dicts)."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc: dict = {}
            for t in range(k):
                if a[i][t] and b[t][j]:
                    acc = poly_add(acc, poly_mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def commutant_generators(size: int, images) -> list:
    """Nonzero entries of V g - g V over the given images, V = (v{i}_{j})."""
    V = [[{(f"v{i}_{j}",): Fraction(1)} for j in range(1, size + 1)]
         for i in range(1, size + 1)]
    gens, seen = [], set()
    for g in images:
        left, right = mat_mul(V, g), mat_mul(g, V)
        for i in range(size):
            for j in range(size):
                p = poly_add(left[i][j], right[i][j], -1)
                if p and poly_key(p) not in seen:
                    seen.add(poly_key(p))
                    gens.append(p)
    return gens


def required_targets(size: int, letters) -> list:
    """v_ii - v_jj (i < j), every off-diagonal v_ij, and x v_11 - v_11 x."""
    def v(i, j):
        return (f"v{i}_{j}",)

    out = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            out.append({v(i, i): Fraction(1), v(j, j): Fraction(-1)})
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i != j:
                out.append({v(i, j): Fraction(1)})
    for x in letters:
        out.append({(x, "v1_1"): Fraction(1), ("v1_1", x): Fraction(-1)})
    return out


def evaluate_at_matrices(p: dict, assignment: dict, ell: int):
    """Value of a polynomial at ell x ell Fraction matrices."""
    acc = [[Fraction(0)] * ell for _ in range(ell)]
    for w, c in p.items():
        prod = [[Fraction(int(i == j)) for j in range(ell)] for i in range(ell)]
        for x in w:
            m = assignment[x]
            prod = [[sum(prod[i][t] * m[t][j] for t in range(ell)) for j in range(ell)]
                    for i in range(ell)]
        for i in range(ell):
            for j in range(ell):
                acc[i][j] += c * prod[i][j]
    return acc


def specialize_image(image, assignment: dict, ell: int):
    """An n x n polynomial matrix at ell x ell matrices: an n*ell square matrix."""
    n = len(image)
    out = [[Fraction(0)] * (n * ell) for _ in range(n * ell)]
    for i in range(n):
        for j in range(n):
            block = evaluate_at_matrices(image[i][j], assignment, ell)
            for p in range(ell):
                for r in range(ell):
                    out[i * ell + p][j * ell + r] = block[p][r]
    return out


def centralizer_system(matrices, n: int) -> list:
    """Rows of the linear system T X - X T = 0 in the n*n entries of T."""
    rows = []
    for X in matrices:
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += X[k][j]
                    row[k * n + j] -= X[i][k]
                rows.append(row)
    return rows


def end_system(vertices, arrows, dims: dict, maps: dict) -> tuple[list, int]:
    """Rows of f_t A_e - A_e f_s = 0 over the arrows e: s -> t, in the
    unknown entries of the f_v; returns (rows, number of unknowns)."""
    offsets, total = {}, 0
    for v in vertices:
        offsets[v] = total
        total += dims[v] * dims[v]

    def unknown(v, p, r):
        return offsets[v] + p * dims[v] + r

    rows = []
    for name, s, t in arrows:
        A = maps.get(name) or [[0] * dims[s] for _ in range(dims[t])]
        for p in range(dims[t]):
            for r in range(dims[s]):
                row = [Fraction(0)] * total
                for q in range(dims[t]):
                    row[unknown(t, p, q)] += A[q][r]
                for q in range(dims[s]):
                    row[unknown(s, q, r)] -= A[p][q]
                rows.append(row)
    return rows, total


def euler_form(vertices, arrows, dims: dict) -> int:
    return sum(dims[v] ** 2 for v in vertices) - sum(dims[s] * dims[t] for _, s, t in arrows)


def rank_mod_p(rows, p: int = 1_000_003) -> int:
    """Rank over GF(p) of a matrix with integer entries."""
    m = [[int(x) % p for x in row] for row in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank
