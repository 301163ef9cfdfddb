"""Exact arithmetic in the free noncommutative algebra over Z[l^±1, u^±1].

Elements are integer combinations of alternating words

    m0 g1 m1 g2 ... gk mk

where the ``mi`` are unit monomials ``l^a u^b`` (``l`` and ``u`` commute with
each other but with no generator) and the ``gj`` are opaque generator labels.
Words are stored canonically as ``(monos, gens)`` with ``len(monos) ==
len(gens) + 1`` and adjacent monomials always fused, so equality is plain
tuple equality and coefficients are exact Python integers.

The text grammar (used by the CLI and golden files):

    element  := term (('+'|'-') term)*
    term     := [integer '*']? factor+
    factor   := 'l' ['^' int] | 'u' ['^' int] | generator-id
    gen-id   := letter (letter|digit|'_')*

Whitespace separates factors; '.' is accepted as whitespace on input.  '1'
denotes the empty word with coefficient 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import GrammarError, SelfReference

MONO_ONE = (0, 0)
_RESERVED = {"l", "u"}


def mono_mul(m1, m2):
    return (m1[0] + m2[0], m1[1] + m2[1])


def mono_inv(m):
    return (-m[0], -m[1])


def word_mul(w1, w2):
    """Concatenate two words, fusing the boundary monomials."""
    monos1, gens1 = w1
    monos2, gens2 = w2
    fused = mono_mul(monos1[-1], monos2[0])
    return (monos1[:-1] + (fused,) + monos2[1:], gens1 + gens2)


def word_key(w):
    """Canonical term order: by word length k, then generator labels, then exponents."""
    monos, gens = w
    return (len(gens), gens, monos)


WORD_ONE = ((MONO_ONE,), ())


class AlgebraElement:
    """Finite Z-linear combination of words; immutable by convention."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return AlgebraElement()

    @staticmethod
    def one():
        return AlgebraElement({WORD_ONE: 1})

    @staticmethod
    def scalar(n):
        return AlgebraElement({WORD_ONE: int(n)})

    @staticmethod
    def monomial(a, b, coeff=1):
        return AlgebraElement({(((a, b),), ()): coeff})

    @staticmethod
    def lam(p=1):
        return AlgebraElement.monomial(p, 0)

    @staticmethod
    def mu(p=1):
        return AlgebraElement.monomial(0, p)

    @staticmethod
    def gen(label):
        if label in _RESERVED:
            raise GrammarError(f"generator label {label!r} collides with a ring symbol")
        return AlgebraElement({((MONO_ONE, MONO_ONE), (label,)): 1})

    @staticmethod
    def from_word(monos, gens, coeff=1):
        return AlgebraElement({(tuple(monos), tuple(gens)): coeff})

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return AlgebraElement(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return AlgebraElement({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(_coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraElement({w: c * other for w, c in self._terms.items()})
        other = _coerce(other)
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = word_mul(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return AlgebraElement(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return _coerce(other).__mul__(self)

    def __eq__(self, other):
        if isinstance(other, int):
            other = AlgebraElement.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    # ---- inspection ----------------------------------------------------

    def terms(self):
        """Terms in canonical order as (word, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda t: word_key(t[0]))

    def generators(self):
        out = set()
        for (_, gens) in self._terms:
            out.update(gens)
        return out

    def max_word_length(self):
        return max((len(g) for (_, g) in self._terms), default=0)

    def n_terms(self):
        return len(self._terms)

    def leading_term(self):
        """(word, coeff) with the largest word in the canonical order."""
        if not self._terms:
            return None
        w = max(self._terms, key=word_key)
        return w, self._terms[w]

    # ---- structural maps ------------------------------------------------

    def map_monomials(self, f):
        """Apply ``f: (a, b) -> (a, b)`` to every monomial of every word."""
        out = {}
        for (monos, gens), c in self._terms.items():
            w = (tuple(f(m) for m in monos), gens)
            out[w] = out.get(w, 0) + c
        return AlgebraElement(out)

    def substitute(self, rules):
        """Replace generators per ``rules: {label: AlgebraElement}``.

        Substitution is simultaneous and one-pass.  A rule may rescale a
        generator by unit monomials (``g -> mL g mR``); any other
        self-mention is rejected since the caller almost certainly meant an
        elimination, which would not terminate.
        """
        check_rules(rules)
        out = AlgebraElement.zero()
        for (monos, gens), c in self._terms.items():
            acc = AlgebraElement.monomial(*monos[0], coeff=c)
            for g, m in zip(gens, monos[1:]):
                rep = rules.get(g)
                if rep is None:
                    rep = AlgebraElement.gen(g)
                acc = acc * rep * AlgebraElement.monomial(*m)
            out = out + acc
        return out

    # ---- text form -------------------------------------------------------

    def __repr__(self):
        return f"<{serialize(self)}>"


def _is_unit_conjugate(g, rep):
    """True when ``rep`` is ``±mL g mR`` for unit monomials."""
    terms = rep.terms()
    if len(terms) != 1:
        return False
    (monos, gens), c = terms[0]
    return gens == (g,) and abs(c) == 1


def _coerce(x):
    if isinstance(x, AlgebraElement):
        return x
    if isinstance(x, int):
        return AlgebraElement.scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into AlgebraElement")


# ---------------------------------------------------------------------------
# serialization / parsing
# ---------------------------------------------------------------------------

def _mono_text(m):
    a, b = m
    parts = []
    if a == 1:
        parts.append("l")
    elif a != 0:
        parts.append(f"l^{a}")
    if b == 1:
        parts.append("u")
    elif b != 0:
        parts.append(f"u^{b}")
    return parts


def _word_text(w):
    monos, gens = w
    parts = _mono_text(monos[0])
    for g, m in zip(gens, monos[1:]):
        parts.append(g)
        parts.extend(_mono_text(m))
    return " ".join(parts) if parts else "1"


def serialize(elem):
    """Canonical text form; terms in canonical order, '1' for the empty word."""
    terms = elem.terms()
    if not terms:
        return "0"
    chunks = []
    for i, (w, c) in enumerate(terms):
        body = _word_text(w)
        mag = abs(c)
        if mag != 1:
            body = f"{mag}" if body == "1" else f"{mag} * {body}"
        if i == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)


_TOKEN_FACTOR = re.compile(r"^(l|u)(?:\^(-?\d+))?$")
_TOKEN_GEN = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_TOKEN_INT = re.compile(r"^-?\d+$")


def parse(text):
    """Parse the grammar above.  '.' is treated as factor-separating whitespace."""
    if not isinstance(text, str):
        raise GrammarError(f"element text must be a string, got {text!r}")
    raw = text.replace(".", " ")
    # split signs that are glued to the leading term ("-1 + u")
    raw = re.sub(r"(?<![\^\d])-", " - ", raw)
    raw = raw.replace("+", " + ").replace("*", " * ")
    tokens = raw.split()
    if not tokens:
        raise GrammarError("empty element text")

    result = AlgebraElement.zero()
    pos = 0

    def flush(term_tokens, sign, at):
        nonlocal result
        if not term_tokens:
            raise GrammarError("empty term", at)
        coeff = sign
        idx = 0
        if _TOKEN_INT.match(term_tokens[0]):
            coeff *= int(term_tokens[0])
            idx = 1
            if idx < len(term_tokens) and term_tokens[idx] == "*":
                idx += 1
        monos = [MONO_ONE]
        gens = []
        saw_factor = idx > 0  # a bare integer is an acceptable (lenient) term
        for tok in term_tokens[idx:]:
            if tok == "*":
                raise GrammarError("unexpected '*'", at)
            m = _TOKEN_FACTOR.match(tok)
            if m:
                e = int(m.group(2)) if m.group(2) is not None else 1
                a, b = monos[-1]
                monos[-1] = (a + e, b) if m.group(1) == "l" else (a, b + e)
                saw_factor = True
                continue
            if _TOKEN_GEN.match(tok):
                gens.append(tok)
                monos.append(MONO_ONE)
                saw_factor = True
                continue
            raise GrammarError(f"unrecognized token {tok!r}", at)
        if not saw_factor:
            raise GrammarError("term with no factors", at)
        result = result + AlgebraElement.from_word(monos, gens, coeff)

    term = []
    sign = 1
    term_at = 0
    for i, tok in enumerate(tokens):
        if tok in ("+", "-"):
            if term:
                flush(term, sign, term_at)
                term = []
            elif i > 0:
                raise GrammarError("dangling sign", i)
            sign = 1 if tok == "+" else -1
            term_at = i + 1
        else:
            term.append(tok)
    flush(term, sign, term_at)
    return result


# ---------------------------------------------------------------------------
# relation normal forms and best-effort reduction
# ---------------------------------------------------------------------------

def commutation_move(rel):
    """Detect a two-term single-generator relation ``u g v = u' g v'``.

    Returns ``(g, m1, m2)`` realizing ``g * m1 == m2 * g`` (with
    ``m1 = v v'^-1``, ``m2 = u^-1 u'``), or None.  Only moves with equal
    l-exponent on both sides are usable for canonicalization.
    """
    terms = rel.terms()
    if len(terms) != 2:
        return None
    (w1, c1), (w2, c2) = terms
    if abs(c1) != abs(c2) or c1 != -c2:
        return None
    (monos1, gens1), (monos2, gens2) = w1, w2
    if len(gens1) != 1 or gens1 != gens2:
        return None
    g = gens1[0]
    m1 = mono_mul(monos1[1], mono_inv(monos2[1]))
    m2 = mono_mul(mono_inv(monos1[0]), monos2[0])
    if m1 == MONO_ONE and m2 == MONO_ONE:
        return None
    if m1[0] != m2[0]:
        return None  # l-degree unbalanced; not usable as a move
    return (g, m1, m2)


def canonical_word(word, moves):
    """Push all l-exponents right of the first monomial into the head.

    ``moves`` maps a generator g to ``(m1, m2)`` with ``g m1 = m2 g`` and
    equal l-exponent p on both sides; for ``p == ±1`` this lets any power of
    l commute past g at the cost of u-exponent bookkeeping.
    """
    monos, gens = word
    monos = list(monos)
    for i in range(len(gens), 0, -1):
        a, b = monos[i]
        if a == 0:
            continue
        mv = moves.get(gens[i - 1])
        if mv is None:
            continue
        (p, q), (_, r) = mv
        if abs(p) != 1:
            continue
        # g l^p u^q = l^p u^r g  =>  g l^a u^b = l^a u^{(r-q) a/p} g u^{b - 0}
        # moving l^a (a = k*p) leftward past g multiplies u-exponents linearly
        k = a // p
        monos[i] = (0, b - k * q)
        monos[i - 1] = mono_mul(monos[i - 1], (a, k * r))
    return (tuple(monos), gens)


def canonical_element(elem, moves):
    if not moves:
        return elem
    out = {}
    for w, c in elem._terms.items():
        cw = canonical_word(w, moves)
        out[cw] = out.get(cw, 0) + c
    return AlgebraElement(out)


def _match_positions(target_word, lead_word):
    """Positions where ``lead_word`` matches inside ``target_word``.

    Generators must match contiguously and interior monomials exactly;
    boundary monomials absorb into units on both sides.
    """
    tmonos, tgens = target_word
    lmonos, lgens = lead_word
    k = len(lgens)
    if k == 0:
        return []
    hits = []
    for p in range(len(tgens) - k + 1):
        if tgens[p:p + k] != lgens:
            continue
        if tmonos[p + 1:p + k] != lmonos[1:k]:
            continue
        hits.append(p)
    return hits


def _reduce_once(cur, compiled, moves):
    for x_word, t in sorted(cur._terms.items(), key=lambda kv: word_key(kv[0]), reverse=True):
        for (w, c, rest) in compiled:
            if t % c != 0:
                continue
            q = t // c
            if len(w[1]) == 0:
                if x_word[1] != ():
                    continue
                shift = mono_mul(x_word[0][0], mono_inv(w[0][0]))
                repl = AlgebraElement.monomial(*shift) * (rest + AlgebraElement({w: c}))
            else:
                hits = _match_positions(x_word, w)
                if not hits:
                    continue
                p = hits[0]
                tmonos, tgens = x_word
                k = len(w[1])
                x_unit = mono_mul(tmonos[p], mono_inv(w[0][0]))
                y_unit = mono_mul(mono_inv(w[0][k]), tmonos[p + k])
                prefix = AlgebraElement.from_word(tmonos[:p] + (x_unit,), tgens[:p])
                suffix = AlgebraElement.from_word((y_unit,) + tmonos[p + k + 1:], tgens[p + k:])
                repl = prefix * (rest + AlgebraElement({w: c})) * suffix
            # subtracting q * (unit * rule * unit) cancels x_word's coefficient
            return canonical_element(cur - q * repl, moves), True
    return cur, False


# rewrite steps per ordering of ``reduce_modulo``: a best-effort bound
REWRITE_CAP = 400


def reduce_modulo(elem, rules):
    """Best-effort two-sided reduction of ``elem`` modulo ``rules``.

    Each rule's largest word is used as a rewrite head with boundary-unit
    flexibility; commutation-type rules are absorbed into an l-leftmost
    canonical form so interior matching can fire.  The greedy rewrite path
    depends on rule order, so the rules are tried in the given order and
    then reversed, and the shorter remainder is returned; reaching literal
    zero proves ideal membership, anything else proves nothing.  No
    completeness claim is made (no Groebner machinery).
    """
    moves = {}
    for r in rules:
        cm = commutation_move(r)
        if cm:
            moves.setdefault(cm[0], (cm[1], cm[2]))
    compiled = []
    for r in rules:
        if commutation_move(r):
            continue
        rc = canonical_element(r, moves)
        lead = rc.leading_term()
        if lead is None:
            continue
        w, c = lead
        compiled.append((w, c, rc - AlgebraElement({w: c})))

    best = None
    for ordering in (compiled, compiled[::-1]):
        cur = canonical_element(elem, moves)
        for _ in range(REWRITE_CAP):
            if cur.is_zero():
                break
            cur, progressed = _reduce_once(cur, ordering, moves)
            if not progressed:
                break
        if cur.is_zero():
            return cur
        if best is None or cur.n_terms() < best.n_terms():
            best = cur
    return best if best is not None else canonical_element(elem, moves)


# ---------------------------------------------------------------------------
# relation normalization (presentation output form)
# ---------------------------------------------------------------------------

def _shift(elem, left, right):
    if left == MONO_ONE and right == MONO_ONE:
        return elem
    return AlgebraElement.monomial(*left) * elem * AlgebraElement.monomial(*right)


def normalize_relation(rel):
    """Canonical representative of a relation up to unit multiples and sign.

    Two-term single-generator relations are presented as ``g m - m' g``.
    Pure Laurent relations (no generators) are min-cleared so all exponents
    are nonnegative with a zero minimum.  Word relations are kept as
    computed.  The sign is fixed by making the largest word's coefficient
    positive (except for the commutator form, which leads with ``g m``).
    """
    if rel.is_zero():
        return rel
    cm = commutation_move(rel)
    if cm:
        g, m1, m2 = cm
        return AlgebraElement.gen(g) * AlgebraElement.monomial(*m1) \
            - AlgebraElement.monomial(*m2) * AlgebraElement.gen(g)

    out = rel
    if rel.max_word_length() == 0:
        monos = [w[0][0] for w, _c in rel.terms()]
        shift = (-min(m[0] for m in monos), -min(m[1] for m in monos))
        out = _shift(rel, shift, MONO_ONE)
    if out.leading_term()[1] < 0:
        out = -out
    return out


def relations_equivalent(r1, r2):
    """True if ``r1 = ±m_L r2 m_R`` for unit monomials (lead-word matching)."""
    if r1.n_terms() != r2.n_terms():
        return False
    if r1.is_zero():
        return True
    w1, c1 = r1.leading_term()
    w2, c2 = r2.leading_term()
    if w1[1] != w2[1] or abs(c1) != abs(c2):
        return False
    left = mono_mul(w1[0][0], mono_inv(w2[0][0]))
    right = mono_mul(mono_inv(w2[0][-1]), w1[0][-1])
    for sign in (1, -1):
        if _shift(r2, left, right) * sign == r1:
            return True
    return False


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass
class Presentation:
    """Generators plus relations defining a quotient of the cord ring."""

    generators: list
    relations: list
    ring: str = "Z[l^±1,u^±1]"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        declared = set(self.generators)
        used = set()
        for r in self.relations:
            used |= r.generators()
        missing = used - declared
        if missing:
            raise ValueError(f"relations mention undeclared generators: {sorted(missing)}")

    def to_dict(self):
        return {
            "ring": self.ring,
            "generators": list(self.generators),
            "relations": [serialize(r) for r in self.relations],
            "metadata": self.metadata,
        }


def check_rules(rules):
    """Raise SelfReference for a rule of ``rules: {label: AlgebraElement}``
    that mentions its own generator other than as ``mL g mR``."""
    for g, rep in rules.items():
        if g in rep.generators() and not _is_unit_conjugate(g, rep):
            raise SelfReference(f"rule for {g!r} mentions itself")


def framing_transform(p, n, extra_rules=()):
    """Apply the framing change ``l -> l u^n`` plus generator rules.

    ``extra_rules`` is a list of (label, AlgebraElement) pairs applied as a
    simultaneous substitution after the monomial map.
    """
    rules = dict(extra_rules)

    def remap(m):
        a, b = m
        return (a, b + n * a)

    relations = []
    for r in p.relations:
        r = r.map_monomials(remap)
        if rules:
            r = r.substitute(rules)
        relations.append(r)
    meta = dict(p.metadata)
    meta["framing_transform"] = {
        "n": n,
        "rules": {g: serialize(e) for g, e in rules.items()},
    }
    return Presentation(list(p.generators), relations, p.ring, meta)
