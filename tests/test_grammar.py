import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerqft import grammar, numeric, opalg, suites
from innerqft.grammar import ParseError, parse_expression, print_expression
from innerqft.opalg import CRat, OperatorExpr

from conftest import random_ladder, random_product, random_sum


def test_parse_simple_operators():
    e = parse_expression("a(k;K)")
    ((m,),) = [e.terms]
    assert m.ops[0].field == opalg.SCALAR and not m.ops[0].dagger
    e = parse_expression("a'(k;K)")
    assert e.terms[0].ops[0].dagger
    e = parse_expression("b(k,s=1;K)")
    assert e.terms[0].ops[0].spin == 1
    e = parse_expression("A(k,g=1;K,G=2)")
    op = e.terms[0].ops[0]
    assert op.pol == 1 and op.ipol == 2


def test_parse_bound_labels():
    e = parse_expression("a([1,2,3];[4,1,0,0])")
    op = e.terms[0].ops[0]
    assert op.mom == (1, 2, 3)
    assert op.inner == (4, 1, 0, 0)
    e = parse_expression("a([-1/2,0,3/2];K)")
    assert e.terms[0].ops[0].mom == (Fraction(-1, 2), 0, Fraction(3, 2))


def test_parse_on_shell_marker():
    e = parse_expression("a(k;~k)")
    assert e.terms[0].ops[0].inner == opalg.OnShell("k")


def test_parse_scalars():
    assert parse_expression("3") == OperatorExpr.number(3)
    assert parse_expression("-3/2") == OperatorExpr.number(Fraction(-3, 2))
    assert parse_expression("i") == OperatorExpr.number(opalg.I)
    assert parse_expression("2i") == OperatorExpr.number(CRat(Fraction(0),
                                                              Fraction(2)))
    assert parse_expression("(1+2i)") == OperatorExpr.number(
        CRat(Fraction(1), Fraction(2)))


def test_parse_products_and_sums():
    e = parse_expression("2*a(k;K)*a'(h;H) + a(q;Q)")
    assert len(e.terms) == 2
    juxt = parse_expression("2 a(k;K) a'(h;H) + a(q;Q)")
    assert juxt == e


def test_parse_coefficient_factors():
    e = parse_expression("2*L^-4*(2pi)^7*w(k)*d3(h-k)*d4(H-K)")
    ((m,),) = [e.terms]
    assert m.lam == -4 and m.twopi == 7
    assert opalg.OmegaPow("k") in m.atoms
    assert opalg.Delta3("k", "h") in m.atoms
    assert opalg.Delta4("K", "H") in m.atoms


def test_parse_remaining_atoms():
    e = parse_expression("E/m(k)*kd(s,t)*eta[g,g2]*ETA[G,G2]*Vreg^2*d3(0)*d4(0)")
    ((m,),) = [e.terms]
    assert m.vreg == 2
    assert m.atoms == (opalg.ERatioPow("k"), opalg.SpinDelta("s", "t"),
                       opalg.Metric(True, "g", "g2"),
                       opalg.Metric(False, "G", "G2"),
                       opalg.Delta3Zero(), opalg.Atom("d4(0)"))


def test_parse_errors():
    for bad in ["a(k)", "a(k;K", "x(k;K)", "a(k,s=1;K)", "A(k,g=1;K)",
                "b(k;K)", "A(k,g=5;K,G=1)", "A(k,g=1;K,G=0)",
                "a([1,2];K)", "1 +", "* a(k;K)", "a(k;K) @",
                "a(k;K) @ a'(h;H)"]:
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_parse_error_reports_position():
    for text in ("a(k;K) @", "a(k;K) @ a'(h;H)"):
        with pytest.raises(ParseError,
                           match=r"^unexpected character '@' \(column 8\)$") as exc:
            parse_expression(text)
        assert exc.value.pos == 7


def test_print_zero():
    assert print_expression(OperatorExpr.zero()) == "0"
    assert parse_expression("0").is_zero()


def test_exact_case_texts_print_back():
    """Every text of verify's exact-case and two-point tables is canonical,
    so the report's rhs is the expected text as written, `1*` included."""
    rows = [row for rows in suites.EXACT_CASES.values() for row in rows]
    texts = [t for _, _, operands, want in rows for t in (*operands, want)]
    texts += [t for row in numeric._TWO_POINT.values() for t in row]
    for text in texts:
        assert str(parse_expression(text)) == text


def test_round_trip_corpus():
    rng = random.Random(20240826)
    for _ in range(1000):
        n = rng.randint(0, 4)
        expr = OperatorExpr.number(
            CRat(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
            or opalg.ONE)
        for _ in range(n):
            expr = expr * OperatorExpr.from_op(
                random_ladder(rng, allow_onshell=True))
        if rng.random() < 0.5:
            expr = opalg.reduce_to_normal_form(expr)
        if rng.random() < 0.3:
            expr = expr + OperatorExpr.from_op(random_ladder(rng))
        text = print_expression(expr)
        assert parse_expression(text) == expr, text


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_round_trip_reduced_products(r):
    expr = OperatorExpr.number(1)
    for _ in range(r.randint(1, 4)):
        expr = expr * OperatorExpr.from_op(random_ladder(r))
    reduced = opalg.reduce_to_normal_form(expr)
    assert parse_expression(print_expression(reduced)) == reduced


# coefficient atoms of every kind, over symbolic and exact bound arguments
_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_moms = st.one_of(st.sampled_from(["k", "h", "q"]),
                  st.tuples(_fractions, _fractions, _fractions))
_ARG_STRATEGIES = {
    opalg.MOM: _moms,
    opalg.INNER: st.one_of(st.sampled_from(["K", "H"]),
                           st.tuples(_fractions, _fractions, _fractions,
                                     _fractions),
                           st.builds(opalg.OnShell, _moms)),
}
_DISC_SYMBOLS = st.sampled_from(["s", "t", "g2"])


@st.composite
def _atoms(draw):
    kind = draw(st.sampled_from(sorted(opalg.ATOMS)))
    spec = opalg.ATOMS[kind]
    if spec.arg == opalg.DISC:
        # bound indices within the range of the atom's index
        bound = st.sampled_from(opalg.INDEX_RANGES[spec.index][0])
        arg = st.one_of(bound, _DISC_SYMBOLS)
    else:
        arg = _ARG_STRATEGIES.get(spec.arg)  # None: the atom takes no argument
    args = tuple(draw(arg) for _ in range(spec.arity))
    power = draw(st.integers(-3, 3)) if spec.merges else 1
    return opalg.Atom(kind, args, power)


_monomials = st.builds(
    lambda re, im, atoms: opalg.make_monomial(CRat(re, im) or opalg.ONE,
                                              atoms=atoms),
    _fractions, _fractions, st.lists(_atoms(), max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(_monomials, min_size=1, max_size=3))
def test_round_trip_atoms(monos):
    expr = OperatorExpr.from_monomials(monos)
    text = print_expression(expr)
    assert parse_expression(text) == expr, text


# every label a substitution may meet: the bound values of each type, and
# values that are labels of no type or of another type than their symbol's
_any_labels = st.one_of(
    _moms, _ARG_STRATEGIES[opalg.INNER], st.integers(-1, 4), _DISC_SYMBOLS,
    st.sampled_from([(1, 2), 1.5, opalg.OnShell((1, 2)), opalg.OnShell(5)]))


def _symbols(expr):
    """The symbols of every operator slot and atom argument of `expr`."""
    labels = [l for m in expr.terms for x in m.atoms + m.ops
              for l in (x.args if isinstance(x, opalg.Atom) else
                        (x.mom, x.inner, x.spin, x.pol, x.ipol))]
    labels += [l.mom for l in labels if isinstance(l, opalg.OnShell)]
    return sorted({l for l in labels if isinstance(l, str)})


@settings(max_examples=200, deadline=None)
@given(st.lists(_atoms(), min_size=1, max_size=4),
       st.randoms(use_true_random=False), _any_labels, st.data())
def test_labels_keyed_and_substituted_one_way(atoms, r, label, data):
    """Symmetric atoms keep their arguments in label_key order, and binding
    any symbol to any label gives a valid expression or a ValueError."""
    def assert_pairs_in_key_order(atoms):
        for a in atoms:
            if opalg.ATOMS[a.kind].symmetric:
                assert opalg.label_key(a.args[0]) <= opalg.label_key(a.args[1])
    assert_pairs_in_key_order(atoms)
    expr = random_product(r) * OperatorExpr.from_monomials(
        [opalg.make_monomial(1, atoms=atoms)])
    symbols = _symbols(expr)
    if not symbols:
        return
    sym = data.draw(st.sampled_from(symbols))
    try:
        got = expr.substitute({sym: label})
    except ValueError:
        return
    assert_pairs_in_key_order(a for m in got.terms for a in m.atoms)
    assert parse_expression(str(got)) == got


def test_parse_merges_a_sum_once(monkeypatch):
    """Parsing an N-term sum feeds O(N) monomials to from_monomials."""
    real = OperatorExpr.from_monomials.__func__
    fed = [0]

    def counting(cls, monos):
        monos = list(monos)
        fed[0] += len(monos)
        return real(cls, monos)

    monkeypatch.setattr(OperatorExpr, "from_monomials", classmethod(counting))

    def fed_for(n):
        text = " - ".join(f"{i}*w(k{i})*a'(k{i};K{i})" for i in range(1, n + 1))
        fed[0] = 0
        assert len(parse_expression(text).terms) == n
        return fed[0]

    # equal steps in N add equal numbers of monomials
    counts = [fed_for(n) for n in (100, 200, 300)]
    assert counts[2] - counts[1] == counts[1] - counts[0] <= 10 * 100


def test_parse_canonicalizes_each_term_once(monkeypatch):
    """A term of many factors is one `opalg.product` of bare monomials: one
    make_monomial call per term of the text."""
    text = str(opalg.vev(parse_expression(
        " ".join([f"a(k{j};K{j})" for j in range(1, 5)]
                 + [f"a'(h{j};H{j})" for j in range(1, 5)]))))
    real = opalg.make_monomial
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(opalg, "make_monomial", counting)
    e = parse_expression(text)
    assert len(e.terms) == 24 and calls[0] == 24


def test_parse_skips_unit_scalars(monkeypatch):
    """A term's bare factors carry unit scalars; `opalg.product` multiplies
    only the others: parsing the printed vev(a^4 a'^4) makes no CRat
    product with a unit operand."""
    text = str(opalg.vev(parse_expression(
        " ".join([f"a(k{j};K{j})" for j in range(1, 5)]
                 + [f"a'(h{j};H{j})" for j in range(1, 5)]))))
    real = CRat.__mul__
    units = [0]

    def counting(x, y):
        units[0] += opalg.ONE in (x, y)
        return real(x, y)

    monkeypatch.setattr(CRat, "__mul__", counting)
    assert len(parse_expression(text).terms) == 24
    assert units[0] == 0


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_parenthesised_factors_parse_to_products(r):
    """`(x)*(y)`, `-(x)*z` and juxtaposed factors parse to the products
    that `*` builds from the sums they print."""
    x, y, z = (random_sum(r, allow_onshell=True, max_ops=2) for _ in range(3))
    assert parse_expression(f"({x})*({y})") == x * y
    assert parse_expression(f"-({x})*({z})") == -(x * z)
    assert parse_expression(f"({x}) ({y})*-({z})") == x * y * -z
    assert parse_expression(f"2i*L^-4 ({x}) (2pi)^3") == (
        x.scale((0, 2)) * parse_expression("L^-4*(2pi)^3"))


# ---------------------------------------------------------------------------
# One printer: str(e) is the canonical text that print_expression returns


def test_scalar_text():
    texts = {(1, 0): "1", (Fraction(-3, 2), 0): "-3/2", (0, 1): "i",
             (0, -1): "-i", (0, 2): "2i", (0, Fraction(-3, 4)): "-3/4i",
             (1, 1): "(1+i)", (Fraction(1, 2), -1): "(1/2-i)",
             (-1, 3): "(-1+3i)"}
    for (re, im), text in texts.items():
        c = CRat(Fraction(re), Fraction(im))
        assert str(c) == text
        assert parse_expression(text) == OperatorExpr.number(c)


def test_unit_scalar_left_out_before_bare_operators_only():
    op = opalg.a("k", "K", dagger=True)
    assert str(op) == "a'(k;K)"
    assert str(op.scale(-1)) == "-1*a'(k;K)"
    assert str(op.scale(opalg.I)) == "i*a'(k;K)"
    assert str(OperatorExpr.number(1)) == "1"
    with_atom = OperatorExpr.from_monomials([opalg.make_monomial(
        1, atoms=(opalg.OmegaPow("k"),), ops=op.terms[0].ops)])
    assert str(with_atom) == "1*w(k)*a'(k;K)"


_scalars = st.one_of(
    st.sampled_from([opalg.ONE, -opalg.ONE, opalg.I, -opalg.I]),
    st.builds(lambda re, im: CRat(re, im) or opalg.ONE, _fractions, _fractions))
_discs = {"spin": st.sampled_from([1, 2, "s", "t"]),
          "pol": st.sampled_from([0, 1, 2, 3, "g", "g2"]),
          "ipol": st.sampled_from([1, 2, 3, "G", "G2"])}
_FIELD_DISCS = {opalg.SCALAR: (), opalg.DIRAC_PARTICLE: ("spin",),
                opalg.DIRAC_ANTIPARTICLE: ("spin",),
                opalg.GAUGE: ("pol", "ipol")}


@st.composite
def _ladders(draw):
    field = draw(st.sampled_from(opalg.FIELDS))
    kw = {name: draw(_discs[name]) for name in _FIELD_DISCS[field]}
    return opalg.LadderOperator(field, draw(st.booleans()), draw(_moms),
                                draw(_ARG_STRATEGIES[opalg.INNER]), **kw)


@st.composite
def _any_monomials(draw):
    """Bare operator products (no coefficient factors) half of the time."""
    ops = draw(st.lists(_ladders(), max_size=3))
    if draw(st.booleans()):
        return opalg.make_monomial(draw(_scalars), ops=ops)
    powers = st.integers(-3, 3)
    return opalg.make_monomial(draw(_scalars), draw(powers), draw(powers),
                               draw(powers), draw(st.lists(_atoms(), max_size=4)),
                               ops)


@settings(max_examples=150, deadline=None)
@given(st.lists(_any_monomials(), min_size=1, max_size=4))
def test_one_printer_round_trip(monos):
    expr = OperatorExpr.from_monomials(monos)
    text = str(expr)
    assert print_expression(expr) == text
    assert parse_expression(text) == expr, text


def test_bad_number_literals_are_parse_errors():
    for bad in ["2/0*a(k;K)", "a([1/0,0,0];K) a'(h;H)", "L^1/0", "w(k)^2/0",
                "a([1.5/2,0,0];K)", "1/0i", "b(k,s=1.5;K)", "kd(1/2,s)",
                "L^1/2", "A(k,g=1;K,G=0.5)"]:
        with pytest.raises(ParseError):
            parse_expression(bad)
    # a number is read by value: 4/2 is the integer 2
    assert parse_expression("kd(4/2,s)") == parse_expression("kd(2,s)")


def test_deep_nesting_is_a_parse_error():
    for bad in ["(" * 2000 + "1" + ")" * 2000, "-" * 2000 + "1"]:
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_verify_exact_cases_parse_back(monkeypatch):
    """parse(print(e)) == e for the lhs and rhs of every exact case built
    from two expressions; the other exact cases print numbers, labels or
    nothing."""
    from innerqft import suites
    from innerqft.config import RunConfig
    built = {}
    real = suites._exact

    def recording(name, got, want):
        built[name] = (got, want)
        return real(name, got, want)

    monkeypatch.setattr(suites, "_exact", recording)
    cases = suites.run_suite("all", RunConfig(seed=0))
    exact = {c.name: c for c in cases if c.tolerance is None}
    assert built and set(built) <= set(exact)
    for name, (got, want) in built.items():
        assert parse_expression(exact[name].lhs) == got, name
        assert parse_expression(exact[name].rhs) == want, name
