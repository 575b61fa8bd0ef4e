import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import catalog, entry
from orthokit.congruence import all_congruences_bruteforce, congruence_lattice, kernel
from orthokit.errors import ArityMismatch, BadIndex, ParseError
from orthokit.terms import (
    Const1,
    Term,
    XVar,
    YVar,
    builtin_terms,
    check_lemma_chain,
    closed_subsets,
    closed_under_term,
    eval_term,
    ideal_closure,
    is_ideal_by_terms,
    is_ideal_term,
    parse_term,
    property_mp,
    random_ideal_terms,
    random_term,
    serialize_term,
)

from oracles import naive_eval, subsets_containing


def reducts(max_n=None):
    out = [e for e in catalog() if e.kind == "implication"]
    if max_n is not None:
        out = [e for e in out if e.payload.n <= max_n]
    return out


def kernels_of(T):
    enum = all_congruences_bruteforce if T.n <= 10 else congruence_lattice
    return {kernel(T, P).members for P in enum(T)}


# --- evaluation ------------------------------------------------------------------


def test_eval_simple_cases():
    T = entry("bool4_reduct").payload
    t1 = builtin_terms()["t1"]
    assert eval_term(T, t1, [1], [T.one]) == T.one  # x*1 = 1
    assert eval_term(T, Term(Const1(), 0, 0), [], []) == T.one


def test_detachment_term_computes_the_conclusion():
    # t6 at x := b, y1 := a*b, y2 := a evaluates to b
    T = entry("bool4_reduct").payload
    t6 = builtin_terms()["t6"]
    for a in range(T.n):
        for b in range(T.n):
            assert eval_term(T, t6, [b], [T.bullet[a][b], a]) == b


def test_eval_arity_checks():
    T = entry("bool4_reduct").payload
    t2 = builtin_terms()["t2"]
    with pytest.raises(ArityMismatch):
        eval_term(T, t2, [0], [0, 0])
    with pytest.raises(ArityMismatch):
        eval_term(T, t2, [0, 0], [0])


def test_term_declaration_validates_variable_indices():
    with pytest.raises(ArityMismatch):
        Term(XVar(1), 1, 0)
    with pytest.raises(ArityMismatch):
        Term(YVar(0), 1, 0)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_compiled_evaluation_matches_direct_recursion(seed, data):
    T = entry("mo2_reduct").payload
    t = random_term(random.Random(seed), xarity=2, yarity=2, max_depth=4)
    xs = data.draw(st.tuples(*[st.integers(0, T.n - 1)] * t.xarity))
    ys = data.draw(st.tuples(*[st.integers(0, T.n - 1)] * t.yarity))
    assert eval_term(T, t, xs, ys) == naive_eval(T, t.root, xs, ys)


# --- ideal terms -----------------------------------------------------------------


def test_t1_is_an_ideal_term_everywhere():
    for e in reducts():
        assert is_ideal_term(e.payload, builtin_terms()["t1"]).ok


def test_t2_with_units_plugged_in_collapses_to_one():
    # (x0*x1)*(1*((1*x0)*x1)) = (x0*x1)*(x0*x1) = 1
    t2 = builtin_terms()["t2"]
    for e in reducts():
        T = e.payload
        for x0 in range(T.n):
            for x1 in range(T.n):
                assert eval_term(T, t2, [x0, x1], [T.one, T.one]) == T.one


def test_a_bare_variable_is_not_an_ideal_term():
    t = Term(XVar(0), 1, 0)
    for e in reducts():
        T = e.payload
        v = is_ideal_term(T, t)
        assert v.ok == (T.n == 1)
        if not v.ok:
            xs = v.witness
            assert eval_term(T, t, xs, []) != T.one


def test_builtin_arities():
    ts = builtin_terms()
    assert list(ts) == ["t1", "t2", "t3", "t4", "t5", "t6"]
    arities = {name: (t.xarity, t.yarity) for name, t in ts.items()}
    assert arities == {
        "t1": (1, 1), "t2": (2, 2), "t3": (2, 1),
        "t4": (3, 1), "t5": (3, 1), "t6": (1, 2),
    }


def test_builtins_are_ideal_terms_on_every_reduct():
    for e in reducts():
        for name, t in builtin_terms().items():
            assert is_ideal_term(e.payload, t).ok, (e.name, name)


# --- closure ---------------------------------------------------------------------


def test_carrier_is_closed_under_every_builtin():
    for e in reducts():
        T = e.payload
        for t in builtin_terms().values():
            assert closed_under_term(T, range(T.n), t).ok


def test_unit_singleton_is_closed_under_t1():
    for e in reducts():
        T = e.payload
        assert closed_under_term(T, {T.one}, builtin_terms()["t1"]).ok


def test_closure_counterexamples_are_genuine():
    T = entry("bool4_reduct").payload
    t6 = builtin_terms()["t6"]
    for I in ({1, 3}, {0, 3}, {2, 3}, {0, 1, 3}):
        v = closed_under_term(T, I, t6)
        direct = all(
            eval_term(T, t6, [x], [y1, y2]) in I
            for x in range(T.n) for y1 in I for y2 in I
        )
        assert v.ok == direct
        if not v.ok:
            xs, ys, val = v.witness
            assert eval_term(T, t6, xs, ys) == val and val not in I


def test_kernels_are_ideals_by_terms():
    for e in reducts():
        T = e.payload
        for K in kernels_of(T):
            assert is_ideal_by_terms(T, K).ok


def test_non_kernel_subsets_fail_some_term():
    T = entry("bool4_reduct").payload
    kernels = kernels_of(T)
    for D in subsets_containing(T.n, T.one):
        verdict = is_ideal_by_terms(T, D)
        assert verdict.ok == (D in kernels)
        if not verdict.ok:
            assert verdict.witness[0] in {"t1", "t2", "t3", "t4", "t5", "t6"}


# --- derived rules -----------------------------------------------------------------


def test_detachment_holds_for_subsets_closed_under_t1_t2_t6():
    ts = builtin_terms()
    needed = [ts["t1"], ts["t2"], ts["t6"]]
    for e in reducts(max_n=6):
        T = e.payload
        for I in subsets_containing(T.n, T.one):
            if all(closed_under_term(T, I, t).ok for t in needed):
                assert property_mp(T, I).ok


def test_detachment_on_simple_subsets():
    T = entry("bool4_reduct").payload
    assert property_mp(T, range(T.n)).ok
    # 0 in I and 0*b = 1 in I for every b, so everything must be in I: fails
    v = property_mp(T, {0, 3})
    assert not v.ok
    a, b = v.witness
    assert a in {0, 3} and T.bullet[a][b] in {0, 3} and b not in {0, 3}


@pytest.mark.parametrize("bad, least", [({3, 9}, 9), ({3, 5}, 5), ({0, 3, 4}, 4), ({3, -1}, -1), ({-2, 3, 7}, -2)])
def test_term_layer_rejects_members_outside_the_carrier(bad, least):
    # as the kernel rules do: the least member outside names the fault, before any scan reads the table
    T = entry("bool4_reduct").payload
    terms = builtin_terms()
    calls = [
        lambda: closed_under_term(T, bad, terms["t1"]),
        lambda: closed_under_term(T, bad, terms["t6"]),
        lambda: closed_subsets(T, [{T.one}, bad, range(T.n)], terms["t1"]),
        lambda: property_mp(T, bad),
        lambda: is_ideal_by_terms(T, bad),
        lambda: check_lemma_chain(T, bad),
    ]
    for call in calls:
        with pytest.raises(BadIndex) as exc:
            call()
        assert (exc.value.value, exc.value.n) == (least, T.n)


def test_lemma_chain_has_no_violations_on_small_reducts():
    for e in reducts(max_n=8):
        T = e.payload
        for I in subsets_containing(T.n, T.one):
            assert check_lemma_chain(T, I).ok


def test_lemma_chain_trivial_subsets():
    for e in reducts():
        T = e.payload
        assert check_lemma_chain(T, {T.one}).ok
        assert check_lemma_chain(T, range(T.n)).ok


# --- ideal closure ------------------------------------------------------------------


def test_ideal_closure_fixed_points():
    for e in reducts():
        T = e.payload
        assert ideal_closure(T, {T.one}).members == {T.one}
        assert ideal_closure(T, range(T.n)).members == set(range(T.n))


def test_ideal_closure_is_the_least_kernel_containing_the_seed():
    for e in reducts(max_n=8):
        T = e.payload
        kernels = kernels_of(T)
        for g in range(T.n):
            K = ideal_closure(T, {g}).members
            assert g in K and K in kernels
            for other in kernels:
                if g in other:
                    assert K <= other


def test_ideal_closure_is_idempotent_on_kernels():
    T = entry("bool4_reduct").payload
    for K in kernels_of(T):
        assert ideal_closure(T, K).members == K


def test_ideal_closure_is_monotone_on_arbitrary_seeds():
    from itertools import combinations

    for name in ("bool4_reduct", "mo2_reduct"):
        T = entry(name).payload
        kernels = kernels_of(T)
        for size in (1, 2, 3):
            for G in combinations(range(T.n), size):
                K = ideal_closure(T, G).members
                assert set(G) <= K and K in kernels


# --- random terms -------------------------------------------------------------------


def test_random_ideal_terms_are_deterministic_and_ideal():
    T = entry("mo2_reduct").payload
    a = random_ideal_terms(T, 20, seed=0)
    b = random_ideal_terms(T, 20, seed=0)
    assert a == b and len(a) == 20
    assert len(set(a)) == 20
    for t in a:
        assert is_ideal_term(T, t).ok
    assert random_ideal_terms(T, 5, seed=1) != random_ideal_terms(T, 5, seed=2)


def test_kernels_closed_under_random_ideal_terms():
    for e in reducts(max_n=8):
        T = e.payload
        for t in random_ideal_terms(T, 20, seed=0):
            for K in kernels_of(T):
                assert closed_under_term(T, K, t).ok


# --- text syntax --------------------------------------------------------------------


def test_parse_the_basic_operation():
    t = parse_term("(b x0 y0)")
    assert t == builtin_terms()["t1"]


def test_round_trip_builtins_through_text():
    for t in builtin_terms().values():
        assert parse_term(serialize_term(t)) == t


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_random_terms_through_text(seed):
    # declared arities are not part of the text syntax; the tree must survive
    t = random_term(random.Random(seed), xarity=3, yarity=2, max_depth=4)
    assert parse_term(serialize_term(t)).root == t.root


PARSE_ERRORS = {
    "": "empty term",
    "(b x0)": "unexpected ')'",
    "(b x0 y0": "unexpected end of term",
    "(c x0 y0)": "expected 'b' after '(', got 'c'",
    "x9q": "unknown token 'x9q'",
    "(b x0 y0) x1": "trailing input 'x1'",
    ")": "unexpected ')'",
    "(b 1 1) (": "trailing input '('",
    "(b x0 y0 x1)": "expected ')', got 'x1'",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_rejects_malformed_terms(bad):
    with pytest.raises(ParseError) as exc:
        parse_term(bad)
    assert str(exc.value) == PARSE_ERRORS[bad]


@pytest.mark.parametrize("bad, message", [
    ("(b x0 y\u00b2)", "unknown token 'y\u00b2'"),
    ("x" + "1" * 5000, "index of x has 5000 digits"),
], ids=["superscript", "5000-digits"])
def test_parse_rejects_indices_int_cannot_read(bad, message):
    with pytest.raises(ParseError) as exc:
        parse_term(bad)
    assert str(exc.value) == message


def test_parse_reads_every_decimal_digit_int_reads():
    # Arabic-Indic three and four are decimal digits, as int() reads them
    assert parse_term("(b x\u0663 y\u0664)") == parse_term("(b x3 y4)")


# x0*(x0*(...*(x0*y0))), deeper than Python's recursion limit
DEEP = "(b x0 " * 5000 + "y0" + ")" * 5000


def test_a_deep_term_round_trips_through_text():
    # compared as text: the generated Term.__eq__ recurses
    t = parse_term(DEEP)
    assert (t.xarity, t.yarity) == (1, 1)
    assert serialize_term(t) == DEEP


def test_a_deep_term_evaluates_as_its_closure_verdicts_say():
    T = entry("bool4_reduct").payload
    t = parse_term(DEEP)
    assert is_ideal_term(T, t).ok == all(eval_term(T, t, [x], [T.one]) == T.one for x in range(T.n))
    for D in subsets_containing(T.n, T.one):
        closed = all(eval_term(T, t, [x], [y]) in D for x in range(T.n) for y in D)
        assert closed_under_term(T, D, t).ok == closed


def test_ideals_cli_answers_for_a_deep_term(capsys):
    from orthokit.cli import main

    assert main(["ideals", "--catalog", "bool4_reduct", "--term", DEEP, "--check", "1,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "check ideal-term PASS" in lines
    assert "check subset-closed-under-term PASS" in lines
