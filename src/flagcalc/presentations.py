"""Borel presentations of the flag-manifold cohomology rings and the
verification suite tying their generators to Schubert classes.

The module stores, as plain data, every displayed identity that the
verification suite checks: divided-difference value tables, the expansions of
the degree-2 generators and of the higher generators gamma_k, the ten
Giambelli-polynomial identities for F4, the relations of F4 of degree 6, 8
and 12 and that of G2 of degree 6, the Weyl-element tables for G2/F4, and
the longest-word data.  ``verify_presentations`` recomputes each of them
from scratch and reports an exact comparison per check.

Every class that is exactly a Chern class c_k = e_k(t_1..t_r) is the
engine's ``chern_class``, raised by Chevalley steps: c_k = 2 gamma_k and
every gamma_k but F4's gamma_4, and c_n = 0 for D_n.  Polynomials reach the
Schubert basis through the divided differences (``schubert_expand``) for
rho2, the c_3 of rho3, rho4, F4's 3 gamma_4 = c_4 - 2t c_3 + 8t^4 and the
degree-2 images.  So rho3, c_3 = 2 gamma_3 on G2 and F4, is the cross-check
between the two routes: gamma_3 is ``chern_class(3)`` halved, and c_3 is
the polynomial expanded.  The divided-difference tables, rho1 and the B/D
Delta identities are statements about the polynomials c_k and their
partial sums themselves.  Everything else is a relation side, a map
{(i, j, ks): c} of terms c * t1^i * t^j * gamma_k1...gamma_km, read through
one class memo per suite (``_Classes``): each power of t1 or t is one
Chevalley step on a class already computed, and each gamma product is taken
once.

Every check runs through ``VerificationReport.check``: a check whose
computation raises is recorded as a failed check under the same name it has
when it passes, with the exception in ``got``, and the suite goes on.  So a
report has the same checks, in the same order, whatever their outcome.
Shared inputs, the polynomials c_k and their partial sums, the Chern
classes and the gamma classes, are computed on first use inside the checks
that need them, so a failure there fails exactly those checks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache, reduce
from operator import add

from .errors import NotDivisibleByMultiplierError, OutOfRangeError
from .polyring import Polynomial
from .rootdata import CartanType, build_root_datum, cartan_type, elem_sym_t
from .schubert import SchubertCalc, SchubertExpansion, calculus_for
from .weylgroup import word_str

# ---------------------------------------------------------------------------
# Hard-coded check data
# ---------------------------------------------------------------------------

# Divided-difference values on c_3 over the length-3 elements of W(G2).
G2_DELTA_C3 = {"121": -2, "212": 0}

# gamma_3 = -Z_121 in the G2 flag manifold.
G2_GAMMA3 = {"121": -1}

# Degree-2 generators of G2/T in the Schubert basis.
G2_DEGREE2 = {
    "t1": {"1": -1},
    "t2": {"1": -1, "2": 1},
    "t3": {"1": 2, "2": -1},
}

# The Weyl group of G2 listed by length.
G2_ELEMENT_TABLE = {
    0: [""],
    1: ["1", "2"],
    2: ["12", "21"],
    3: ["121", "212"],
    4: ["1212", "2121"],
    5: ["12121", "21212"],
    6: ["121212"],
}

# W(G2) action on the classes t_1, t_2, t_3: entry (i, t_j) lists the image
# as a combination of t-classes; missing entries mean the action is trivial.
G2_ACTION_TABLE = {
    (1, "t1"): {"t2": -1},
    (1, "t2"): {"t1": -1},
    (1, "t3"): {"t3": -1},
    (2, "t1"): {"t1": 1},
    (2, "t2"): {"t3": 1},
    (2, "t3"): {"t2": 1},
}

# Divided-difference values on c_3 over the 16 length-3 elements of W(F4).
F4_DELTA_C3 = {
    "121": 0, "123": 2, "124": 0, "132": 0, "134": 0, "143": 0,
    "213": 0, "214": 0, "232": 0, "234": -2, "243": -4,
    "321": 0, "323": 0, "324": 0, "343": 6, "432": 0,
}

# Divided-difference values on c_4 - 2 t c_3 + 8 t^4 over the 25 length-4
# elements of W(F4).
F4_DELTA_C4 = {
    "1213": 0, "1214": 0, "1232": 0, "1234": 3, "1243": -30,
    "1321": 0, "1323": 12, "1324": 0, "1343": 0, "1432": 0,
    "2132": 0, "2134": 0, "2143": 0, "2321": 0, "2323": 0,
    "2324": 0, "2343": 0, "2432": 0, "3213": 0, "3214": 0,
    "3234": -3, "3243": 30, "3432": 0, "4321": 0, "4323": -24,
}

F4_GAMMA3 = {"123": 1, "234": -1, "243": -2, "343": 3}
F4_GAMMA4 = {"1234": 1, "1243": -10, "1323": 4, "3234": -1, "3243": 10, "4323": -8}

# Degree-2 generators of F4/T in the Schubert basis.
F4_DEGREE2 = {
    "t1": {"4": -1},
    "t2": {"1": 1, "4": -1},
    "t3": {"1": -1, "2": 1, "4": -1},
    "t4": {"2": -1, "3": 2, "4": -1},
    "t": {"3": 1, "4": -2},
}

# The elements of W(F4) of length at most 4, as printed words.
F4_ELEMENT_TABLE = {
    0: [""],
    1: ["1", "2", "3", "4"],
    2: ["12", "13", "14", "21", "23", "24", "32", "34", "43"],
    3: ["121", "123", "124", "132", "134", "143", "213", "214",
        "232", "234", "243", "321", "323", "324", "343", "432"],
    4: ["1213", "1214", "1232", "1234", "1243", "1321", "1323", "1324",
        "1343", "1432", "2132", "2134", "2143", "2321", "2323", "2324",
        "2343", "2432", "3213", "3214", "3234", "3243", "3432", "4321",
        "4323"],
}

# W(F4) action on t_1..t_4 and t; missing entries mean the action is trivial.
F4_ACTION_TABLE = {
    (1, "t2"): {"t3": 1},
    (1, "t3"): {"t2": 1},
    (2, "t3"): {"t4": 1},
    (2, "t4"): {"t3": 1},
    (3, "t4"): {"t4": -1},
    (3, "t"): {"t": 1, "t4": -1},
    (4, "t1"): {"t1": 1, "t": -1},
    (4, "t2"): {"t2": 1, "t": -1},
    (4, "t3"): {"t3": 1, "t": -1},
    (4, "t4"): {"t4": 1, "t": -1},
    (4, "t"): {"t": -1},
}

# A reduced word of the longest element of W(F4).
F4_W0_WORD = "121321323432132343213234"

# The ten Giambelli identities for F4: each Schubert class of the gamma
# expansions written as a * gamma_4 + L(t1, t) * gamma_3 + R(t1, t), where L
# and R are recorded as exponent maps (i, j) -> coefficient of t1^i t^j.
F4_GIAMBELLI_IDENTITIES = {
    "123": (0, {(0, 0): 1}, {(3, 0): -2, (2, 1): 3, (1, 2): -2}),
    "234": (0, {}, {(3, 0): -1}),
    "243": (0, {}, {(3, 0): -2, (2, 1): 3, (1, 2): -1}),
    "343": (0, {}, {(3, 0): -1, (2, 1): 1}),
    "1234": (-1, {(1, 0): 1, (0, 1): -2}, {(3, 1): 1, (2, 2): -1, (0, 4): 3}),
    "1243": (1, {(1, 0): -2, (0, 1): 2},
             {(4, 0): 2, (3, 1): -4, (2, 2): 3, (0, 4): -3}),
    "1323": (-1, {(0, 1): -1},
             {(4, 0): 2, (3, 1): -4, (2, 2): 4, (1, 3): -2, (0, 4): 3}),
    "3234": (1, {(1, 0): -1, (0, 1): 2},
             {(4, 0): 1, (3, 1): -1, (2, 2): 1, (0, 4): -3}),
    "3243": (0, {}, {(4, 0): 1, (3, 1): -2, (2, 2): 1}),
    "4323": (-1, {(1, 0): 2, (0, 1): -2}, {(1, 3): -1, (0, 4): 3}),
}

# The F4 relations of degree 6, 8 and 12 as (right side, left side), each side
# a map {(i, j, ks): c} of the terms c * t1^i * t^j * gamma_ks (see _Classes).
F4_HIGH_RELATIONS = {
    # gamma3^2 = 3t^2*gamma4 + 4t^3*gamma3 - 8t^6
    "rho6: gamma3^2 relation": (
        {(0, 2, (4,)): 3, (0, 3, (3,)): 4, (0, 6, ()): -8},
        {(0, 0, (3, 3)): 1},
    ),
    # 3*gamma4^2 + 6t*gamma3*gamma4 = 3t^4*gamma4 + 13t^8
    "rho8: gamma4^2 relation": (
        {(0, 4, (4,)): 3, (0, 8, ()): 13},
        {(0, 0, (4, 4)): 3, (0, 1, (3, 4)): 6},
    ),
    # gamma4^3 + 12t^8*gamma4 = 6t^4*gamma4^2 + 8t^12
    "rho12: gamma4^3 relation": (
        {(0, 4, (4, 4)): 6, (0, 12, ()): 8},
        {(0, 0, (4, 4, 4)): 1, (0, 8, (4,)): 12},
    ),
}

# The G2 relation of degree 6, in the same form; its right side 0 is written
# 0 * gamma3^2, since a side is a nonempty map and so has a degree.
G2_HIGH_RELATIONS = {"rho6: gamma3^2 = 0": ({(0, 0, (3, 3)): 0}, {(0, 0, (3, 3)): 1})}

# Degree-2 generator expansions for B_n / D_n, as functions of n; see
# expected_degree2_table below.


# ---------------------------------------------------------------------------
# Presentation shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorelPresentation:
    """Generators and relations of one flag-manifold cohomology ring."""

    type_name: str
    generators: tuple  # pairs (symbol, codimension)
    relations: tuple  # pairs (name, codimension)


def borel_presentation(ct: CartanType) -> BorelPresentation:
    ks = gamma_degrees(ct)
    gens = tuple((s, 1) for s in build_root_datum(ct).t_classes) + tuple(
        (f"g{k}", k) for k in ks
    )
    if ct.family in ("B", "D"):
        n = ct.rank
        rels = (
            tuple((f"c{k} - 2*g{k}", k) for k in ks)
            + (((f"c{n}", n),) if ct.family == "D" else ())
            + tuple((f"quadratic g{2 * k}", 2 * k) for k in ks)
        )
    else:
        degrees = (1, 2, 3, 6) if ct.family == "G2" else (1, 2, 3, 4, 6, 8, 12)
        rels = tuple((f"rho{k}", k) for k in degrees)
    return BorelPresentation(ct.name, gens, rels)


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------


@dataclass
class Check:
    """One check of a report.  The record of a passing check is shared by
    every report that repeats it, so records are read, not changed."""

    __slots__ = ("name", "expected", "got", "passed", "__weakref__")
    name: str
    expected: str
    got: str
    passed: bool


# The record of each passing check, by (name, text), while some report holds
# it: reports that repeat a passing check share one record.
_PASSED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass
class VerificationReport:
    title: str
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected, got):
        e, g = str(expected), str(got)
        if e == g:
            self.checks.append(_PASSED.setdefault((name, e), Check(name, e, e, True)))
        else:
            self.checks.append(Check(name, e, g, False))

    def check(self, name: str, compute):
        """Run one check: ``compute()`` returns (expected, got), compared as text.

        compute is called at once, so it may close over loop variables.  A
        check that raises is recorded as failed under the same name, with
        ``got`` the exception as "<Type>: <message>".  Returns got, or None
        when compute raised.
        """
        try:
            expected, got = compute()
            self.add(name, expected, got)
        except Exception as exc:  # verification mode reports instead of aborting
            self.checks.append(
                Check(name, "no error", f"{type(exc).__name__}: {exc}", False)
            )
            return None
        return got

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "expected": c.expected, "got": c.got, "pass": c.passed}
                for c in self.checks
            ],
        }

    def to_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"== {self.title}: {'PASS' if self.all_passed else 'FAIL'} =="]
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            line = f"{status} {c.name.ljust(width)}"
            if not c.passed:
                line += f"  expected {c.expected}  got {c.got}"
            lines.append(line)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Generator expansions
# ---------------------------------------------------------------------------


def _word_element(calc: SchubertCalc, word):
    """The element of a word: a digit string, or a tuple of letters."""
    return calc.group.element_from_word([int(ch) for ch in word])


def _expansion_from_table(calc: SchubertCalc, codim: int, table: dict) -> SchubertExpansion:
    coeffs = {_word_element(calc, w): c for w, c in table.items() if c}
    return SchubertExpansion(codim, coeffs)


def gamma_degrees(ct: CartanType) -> tuple:
    """The degrees k of the generators gamma_k: 1..n for B_n, 1..n-1 for D_n,
    3 for G2, and 3 and 4 for F4."""
    if ct.family == "G2":
        return (3,)
    if ct.family == "F4":
        return (3, 4)
    return tuple(range(1, ct.rank + (ct.family == "B")))


def _check_gamma(ct: CartanType, k: int) -> None:
    if k not in gamma_degrees(ct):
        raise OutOfRangeError(f"gamma_{k} does not exist for {ct}")


def gamma_defining_poly(calc: SchubertCalc, k: int) -> tuple:
    """The polynomial whose class equals m * gamma_k, with the multiplier m:
    c_k = 2 gamma_k, except 3 gamma_4 = c_4 - 2t c_3 + 8t^4 in F4."""
    ct = calc.cartan_type
    d = calc.datum
    _check_gamma(ct, k)
    if ct.family == "F4" and k == 4:
        t = Polynomial.linear_form(d.t_classes["t"])
        return elem_sym_t(d, 4, 4) - t * elem_sym_t(d, 3, 4) * 2 + (t**4) * 8, 3
    return elem_sym_t(d, k, d.num_t_classes), 2


def gamma_expansion(calc: SchubertCalc, k: int) -> SchubertExpansion:
    """Schubert expansion of gamma_k, obtained from m*gamma_k and exact
    division by the multiplier m.  Where m*gamma_k is the Chern class c_k =
    2 gamma_k, it is the engine's ``chern_class``; F4's 3 gamma_4 = c_4 -
    2t c_3 + 8t^4 is no Chern class and is expanded from its polynomial."""
    if (calc.cartan_type.family, k) == ("F4", 4):
        f, mult = gamma_defining_poly(calc, k)
        full = calc.schubert_expand(f)
    else:
        _check_gamma(calc.cartan_type, k)
        full, mult = calc.chern_class(k), 2
    coeffs = {}
    for w, c in full.coeffs.items():
        if c % mult:
            raise NotDivisibleByMultiplierError(
                f"coefficient {c} of Z_{w} in the expansion of {mult}*gamma_{k} "
                f"is not divisible by {mult}"
            )
        coeffs[w] = c // mult
    return SchubertExpansion(full.codim, coeffs)


def gamma_word(ct: CartanType, k: int) -> tuple:
    """The reduced word of the Schubert class equal to gamma_k in types B and D."""
    n = ct.rank
    if ct.family not in ("B", "D"):
        raise OutOfRangeError("gamma_word is only defined for types B and D")
    _check_gamma(ct, k)
    if ct.family == "B":
        return tuple(range(n - k + 1, n + 1))
    if k == 1:
        return (n,)
    return tuple(range(n - k, n - 1)) + (n,)


def degree2_generator_images(calc: SchubertCalc) -> dict:
    """Expansion of every degree-2 generator in the Schubert basis."""
    return {
        sym: calc.schubert_expand(Polynomial.linear_form(t))
        for sym, t in calc.datum.t_classes.items()
    }


def expected_degree2_table(ct: CartanType) -> dict:
    """The displayed degree-2 expansions, keyed by generator symbol.  The
    B/D words are tuples of letters, since from rank 10 up a letter has
    two digits; the G2/F4 words are digit strings."""
    n = ct.rank
    if ct.family == "B":
        out = {"t1": {(1,): 1}}
        for i in range(2, n):
            out[f"t{i}"] = {(i - 1,): -1, (i,): 1}
        out[f"t{n}"] = {(n - 1,): -1, (n,): 2}
        return out
    if ct.family == "D":
        out = {"t1": {(1,): 1}}
        for i in range(2, n - 1):
            out[f"t{i}"] = {(i - 1,): -1, (i,): 1}
        out[f"t{n - 1}"] = {(n - 2,): -1, (n - 1,): 1, (n,): 1}
        out[f"t{n}"] = {(n - 1,): -1, (n,): 1}
        return out
    if ct.family == "G2":
        return dict(G2_DEGREE2)
    return dict(F4_DEGREE2)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


class _Classes:
    """The classes t1^i t^j gamma_k1...gamma_km of one suite, each computed
    once, on first use.

    ``self(i, j, ks)`` is that class, with ks in increasing order (t is F4's
    extra class; it is absent elsewhere, so j = 0).  gamma_k is
    ``gamma_expansion``, a longer gamma monomial is the one without its last
    factor times gamma_{k_m}, and each power of t or t1 is one Chevalley step
    on the class with one power less; pure powers start from Z_e.  A failure
    is not cached: every check that needs the class records it.  The memo
    holds no reference to itself, so it is freed when its suite returns.
    """

    def __init__(self, calc: SchubertCalc):
        self.calc = calc
        self.memo: dict = {}

    def __call__(self, i: int, j: int, ks: tuple) -> SchubertExpansion:
        key = (i, j, ks)
        got = self.memo.get(key)
        if got is None:
            calc, d = self.calc, self.calc.datum
            if j:
                got = calc.chevalley_weight(d.extra_t, self(i, j - 1, ks))
            elif i:
                got = calc.chevalley_weight(d.t_weight(1), self(i - 1, 0, ks))
            elif len(ks) > 1:
                got = calc.mul_expansions(self(0, 0, ks[:-1]), self(0, 0, ks[-1:]))
            elif ks:
                got = gamma_expansion(calc, ks[0])
            else:
                got = calc.indicator(calc.group.identity)
            self.memo[key] = got
        return got

    def sum(self, terms: dict) -> SchubertExpansion:
        """The class of a relation side {(i, j, ks): c}: the sum of c times
        the class of each term, which must not be empty."""
        return reduce(add, (self(*key).scale(c) for key, c in terms.items()))


def _check_action_table(calc, report, table):
    ts = calc.datum.t_classes

    def images(i, sym):
        combo = table.get((i, sym), {sym: 1})
        want = tuple(
            sum(c * ts[s2][r] for s2, c in combo.items()) for r in range(calc.rank)
        )
        s = calc.group.simple_reflection(i)
        return want, calc.group.act(s, ts[sym])

    for i in range(1, calc.rank + 1):
        for sym in ts:
            report.check(f"action s{i}({sym})", lambda: images(i, sym))


def _check_degree2_images(calc: SchubertCalc, report: VerificationReport, prefix: str):
    """One check per degree-2 generator, named after ``prefix``: its Schubert
    expansion against the table."""
    images = cache(lambda: degree2_generator_images(calc))
    for sym, tab in expected_degree2_table(calc.cartan_type).items():
        report.check(
            f"{prefix}degree-2 image of {sym}",
            lambda: (_expansion_from_table(calc, 1, tab), images()[sym]),
        )


def _element_table_row(calc: SchubertCalc, k: int, words: list) -> tuple:
    elems = {_word_element(calc, w) if w else calc.group.identity for w in words}
    stratum = calc.group.elements_of_length(k)
    want = "words fill the stratum bijectively"
    if len(elems) == len(words) and elems == set(stratum):
        return want, want
    return want, f"{len(elems)} distinct elements vs stratum of {len(stratum)}"


def _verify_exceptional(calc: SchubertCalc, report: VerificationReport):
    d = calc.datum
    g2 = calc.cartan_type.family == "G2"
    c3 = cache(lambda: elem_sym_t(d, 3, d.num_t_classes))
    cls = _Classes(calc)

    def delta_value(word, f, val):
        got = calc.delta_w(_word_element(calc, word), f())
        return Polynomial.constant(calc.rank, val), got

    # The family's tables; the relations of G2 are F4's rho1, rho2, rho3 and
    # rho6 with t = 0, and G2 has no Giambelli identities.
    if g2:
        elements, actions, gammas = G2_ELEMENT_TABLE, G2_ACTION_TABLE, {3: G2_GAMMA3}
        deltas = [("c3", c3, G2_DELTA_C3)]
        giambelli, relations = {}, G2_HIGH_RELATIONS
        t, two_t, two_t2 = Polynomial.zero(calc.rank), "0", "0"
    else:
        elements, actions = F4_ELEMENT_TABLE, F4_ACTION_TABLE
        gammas = {3: F4_GAMMA3, 4: F4_GAMMA4}
        f4 = cache(lambda: gamma_defining_poly(calc, 4)[0])
        deltas = [("c3", c3, F4_DELTA_C3), ("c4-2tc3+8t^4", f4, F4_DELTA_C4)]
        giambelli, relations = F4_GIAMBELLI_IDENTITIES, F4_HIGH_RELATIONS
        t, two_t, two_t2 = Polynomial.linear_form(d.t_classes["t"]), "2t", "2t^2"

    # Element tables and the action tables pin the conventions.
    for k, words in elements.items():
        report.check(
            f"element table length {k}", lambda: _element_table_row(calc, k, words)
        )
    _check_action_table(calc, report, actions)

    # Divided-difference tables.
    for label, f, table in deltas:
        for word, val in table.items():
            report.check(f"Delta_{word}({label})", lambda: delta_value(word, f, val))

    if not g2:

        def w0_row():
            same = _word_element(calc, F4_W0_WORD) == calc.group.longest_element()
            want = "same action matrix"
            return want, want if same else "different element"

        report.check("longest element matches printed word", w0_row)

    for k, tab in gammas.items():
        report.check(
            f"gamma_{k} expansion",
            lambda: (_expansion_from_table(calc, k, tab), cls(0, 0, (k,))),
        )

    _check_degree2_images(calc, report, "")

    # Giambelli identities and Borel relations in the Schubert basis.
    for word, (a, lin, rest) in giambelli.items():
        # Z_w = a*gamma_4 + L(t1,t)*gamma_3 + R(t1,t)
        terms = {(i, j, ()): c for (i, j), c in rest.items()}
        terms.update({(i, j, (3,)): c for (i, j), c in lin.items()})
        if a:
            terms[0, 0, (4,)] = a
        report.check(
            f"Z_{word} Giambelli identity",
            lambda: (calc.indicator(_word_element(calc, word)), cls.sum(terms)),
        )
    report.check(
        f"rho1: c1 = {two_t}", lambda: (t * 2, elem_sym_t(d, 1, d.num_t_classes))
    )
    report.check(
        f"rho2: c2 = {two_t2} in H^4",
        lambda: (
            SchubertExpansion(2),
            calc.schubert_expand(elem_sym_t(d, 2, d.num_t_classes) - (t**2) * 2),
        ),
    )
    # 2*gamma3 is the Chern class c_3 halved, against the polynomial c_3.
    report.check(
        "rho3: c3 = 2*gamma3",
        lambda: (cls(0, 0, (3,)).scale(2), calc.schubert_expand(c3())),
    )
    if not g2:

        def rho4():
            # c4 + 8t^4 = 3*gamma4 + 4*t*gamma3
            lhs = calc.schubert_expand(elem_sym_t(d, 4, 4) + (t**4) * 8)
            return cls.sum({(0, 0, (4,)): 3, (0, 1, (3,)): 4}), lhs

        report.check("rho4: c4 - 4t*gamma3 + 8t^4 = 3*gamma4", rho4)
    for name, (rhs, lhs) in relations.items():
        report.check(name, lambda: (cls.sum(rhs), cls.sum(lhs)))


def _verify_bd(calc: SchubertCalc, report: VerificationReport):
    """The checks of one B_n/D_n type, each named after the type, as "B3: "."""
    ct = calc.cartan_type
    n = ct.rank
    odd = ct.family == "B"
    p = f"{ct.name}: "
    # Inputs shared by several checks, each computed once on first use.
    csym = cache(lambda l, m: elem_sym_t(calc.datum, l, m) if l else Polynomial.one(n))
    zword = cache(
        lambda k: calc.indicator(calc.group.element_from_word(gamma_word(ct, k)))
    )
    cls = _Classes(calc)
    kmax = gamma_degrees(ct)[-1]

    def delta_row(i, f, want):
        return want, calc.divided_difference(i, f)

    # (a) the divided-difference identities on the partial symmetric functions.
    for k in range(1, kmax + 1):
        for i in range(1, n):
            report.check(
                f"{p}Delta_{i}(c_{k}) = 0",
                lambda: delta_row(i, csym(k, n), Polynomial.zero(n)),
            )
        m = n - 1 if odd else n - 2
        report.check(
            f"{p}Delta_{n}(c_{k}) = 2c_{k - 1}^({m})",
            lambda: delta_row(n, csym(k, n), csym(k - 1, m) * 2),
        )

        jrange = range(1, n) if odd else range(2, n)
        for j in jrange:
            l = k - j if odd else k - j + 1
            if l < 1:
                continue
            for i in range(1, n - j):
                report.check(
                    f"{p}Delta_{i}(c-part k={k} j={j}) = 0",
                    lambda: delta_row(i, csym(l, n - j), Polynomial.zero(n)),
                )
            report.check(
                f"{p}Delta_{n - j}(c-part k={k} j={j})",
                lambda: delta_row(n - j, csym(l, n - j), csym(l - 1, n - j - 1)),
            )

    # (b) c_k = 2 Z_word and gamma_k = Z_word.
    for k in range(1, kmax + 1):
        w = word_str(gamma_word(ct, k))
        report.check(
            f"{p}c_{k} = 2*Z_{w}",
            lambda: (zword(k).scale(2), calc.chern_class(k)),
        )
        report.check(f"{p}gamma_{k} = Z_{w}", lambda: (zword(k), cls(0, 0, (k,))))

    _check_degree2_images(calc, report, p)

    # (e) the quadratic relations, with each product gamma_i gamma_{2k-i}
    # taken once in the Schubert basis, plus c_n = 0 for D.
    if not odd:
        report.check(
            f"{p}c_{n} = 0 in H^{2 * n}",
            lambda: (SchubertExpansion(n), calc.chern_class(n)),
        )

    def quadratic(k):
        # gamma_{2k} + sum_{i=1}^{2k-1} (-1)^i gamma_i gamma_{2k-i}, over the
        # gamma that exist; the terms i and 2k - i are one product.
        terms = {
            (0, 0, (i, 2 * k - i)): (-1) ** i * (1 if i == k else 2)
            for i in range(max(1, 2 * k - kmax), k + 1)
        }
        if 2 * k <= kmax:
            terms[0, 0, (2 * k,)] = 1
        return SchubertExpansion(2 * k), cls.sum(terms)

    for k in range(1, kmax + 1):
        report.check(f"{p}quadratic relation at gamma_{2 * k}", lambda: quadratic(k))


def presentation_types(family: str, rank: int | None = None) -> list:
    """The Cartan types that ``verify_presentations`` checks, in order; for
    B and D a missing rank is the default sweep (B: 2..5, D: 4..5).  A bad
    family or rank raises UnsupportedRankError."""
    if family in ("G2", "F4"):
        return [cartan_type(family)]
    ranks = [rank] if rank is not None else ([2, 3, 4, 5] if family == "B" else [4, 5])
    return [cartan_type(family, r) for r in ranks]


def verify_presentations(family: str, rank: int | None = None) -> VerificationReport:
    """Recompute and compare every recorded identity for one family, over
    ``presentation_types``."""
    types = presentation_types(family, rank)
    if family in ("G2", "F4"):
        report = VerificationReport(f"{types[0].name} presentation checks", [])
        _verify_exceptional(calculus_for(types[0]), report)
        return report
    report = VerificationReport(
        f"{family}-series presentation checks (ranks {[ct.rank for ct in types]})", []
    )
    for ct in types:
        _verify_bd(calculus_for(ct), report)
    return report
