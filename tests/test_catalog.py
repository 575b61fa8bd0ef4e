from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (
    catalog,
    catalog_names,
    check_ioa_identities,
    entry,
    is_modular,
    is_orthomodular,
    is_strong,
    parse_ioa,
    parse_olat,
    semilattice,
    serialize_ioa,
    serialize_olat,
    validate_ortholattice,
    validate_orthosemilattice,
)
from orthokit.catalog_io import sniff_format
from orthokit.errors import AlgebraError, MissingComplement, ParseError, RangeError

GOLDEN = Path(__file__).parent / "golden"

EXPECTED_NAMES = [
    "chain2", "bool4", "bool8", "mo2", "fig1_o6", "fig2_strong12",
    "fig2_filter_no0",
    "chain2_reduct", "bool4_reduct", "bool8_reduct", "mo2_reduct",
    "fig2_reduct", "fig2_filter_no0_reduct",
]


# --- the catalog itself --------------------------------------------------------


def test_catalog_names_and_kinds():
    assert list(catalog_names()) == EXPECTED_NAMES
    kinds = {e.name: e.kind for e in catalog()}
    assert kinds["fig2_filter_no0"] == "orthosemilattice"
    assert kinds["fig2_strong12"] == "ortholattice"
    assert kinds["fig2_reduct"] == "implication"


def test_every_entry_passes_its_validator():
    for e in catalog():
        if e.kind == "ortholattice":
            assert validate_ortholattice(e.payload).ok, e.name
        elif e.kind == "orthosemilattice":
            assert validate_orthosemilattice(e.payload).ok, e.name
        else:
            assert check_ioa_identities(e.payload).ok, e.name


def test_catalog_is_stable_across_calls():
    assert catalog() is catalog()
    assert [e.payload for e in catalog()] == [e.payload for e in catalog()]


def test_unknown_entry_is_a_key_error():
    with pytest.raises(KeyError):
        entry("nosuch")
    with pytest.raises(KeyError):
        semilattice("bool4_reduct")


def test_headline_properties_of_the_named_models():
    fig1 = entry("fig1_o6").payload
    assert not is_strong(fig1).strong
    fig2 = entry("fig2_strong12").payload
    assert is_strong(fig2).strong
    assert not is_modular(fig2).ok
    assert not is_orthomodular(fig2).ok
    assert is_orthomodular(entry("mo2").payload).ok


def test_fig2_cover_relations_are_pinned_by_three_claims():
    # any wrong cover pair breaks the pentagon sublattice, the
    # orthomodularity failure at (a, c'), or strongness
    L = entry("fig2_strong12").payload
    pent = [0, 1, 4, 8, 11]
    assert all(L.join[x][y] in pent and L.meet[x][y] in pent for x in pent for y in pent)
    a, cp_ = 2, 6
    assert L.le(a, cp_) and L.join[a][L.meet[L.comp[a]][cp_]] == a != cp_
    assert is_strong(L).strong


# --- golden files ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["chain2", "bool4", "mo2", "fig1_o6", "fig2_strong12"])
def test_olat_serialization_is_frozen(name):
    assert serialize_olat(entry(name).payload) == (GOLDEN / f"{name}.olat").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["chain2_reduct", "bool4_reduct", "fig2_reduct"])
def test_ioa_serialization_is_frozen(name):
    assert serialize_ioa(entry(name).payload) == (GOLDEN / f"{name}.ioa").read_text(encoding="utf-8")


# --- round trips -----------------------------------------------------------------


def test_olat_round_trips_every_ortholattice_entry():
    for e in catalog():
        if e.kind != "ortholattice":
            continue
        back = parse_olat(serialize_olat(e.payload))
        assert back == e.payload
        assert back.names == e.payload.names


def test_ioa_round_trips_every_reduct():
    for e in catalog():
        if e.kind != "implication":
            continue
        assert parse_ioa(serialize_ioa(e.payload)) == e.payload


def test_parsing_ignores_comments_and_blank_lines():
    text = serialize_olat(entry("bool4").payload)
    noisy = "# heading\n\n" + text.replace("\n", "   # trailing\n\n", 3)
    assert parse_olat(noisy) == entry("bool4").payload


# --- parse errors ----------------------------------------------------------------


def test_empty_input_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse_olat("")
    with pytest.raises(ParseError):
        parse_ioa("# only a comment\n")


def test_missing_complement_line():
    text = "olat 1\nn 2\nle 0 1\ncomp 0 1\n"
    parse_olat(text)
    with pytest.raises(MissingComplement):
        parse_olat("olat 1\nn 2\nle 0 1\n")


def test_singleton_olat_parses():
    L = parse_olat("olat 1\nn 1\ncomp 0 0\n")
    assert L.n == 1 and L.bot == L.top == 0
    assert validate_ortholattice(L).ok


def test_wrong_row_length_reports_the_line():
    text = "ioa 1\nn 2\none 1\nrow 0 1 1\nrow 1 0\n"
    with pytest.raises(ParseError) as exc:
        parse_ioa(text)
    assert exc.value.line == 5


def test_one_out_of_range():
    with pytest.raises(RangeError):
        parse_ioa("ioa 1\nn 2\none 2\nrow 0 1 1\nrow 1 0 1\n")


def test_duplicate_one_line_is_a_parse_error():
    text = "ioa 1\nn 2\none 1\none 0\nrow 0 1 1\nrow 1 0 1\n"
    with pytest.raises(ParseError, match="duplicate one line") as exc:
        parse_ioa(text)
    assert exc.value.line == 4


def test_cyclic_order_is_rejected():
    text = "olat 1\nn 3\nle 0 1\nle 1 0\nle 0 2\nle 1 2\ncomp 0 2\ncomp 1 1\n"
    with pytest.raises(AlgebraError):
        parse_olat(text)


@pytest.mark.parametrize("bad", [
    "olat 2\nn 1\ncomp 0 0\n",
    "olat 1\nle 0 1\n",
    "olat 1\nn 1\nwhat 0\ncomp 0 0\n",
    "olat 1\nn 2\nle 0 1\ncomp 0 1\ncomp 0 0\n",
    "olat 1\nn 2\nle 0 5\ncomp 0 1\n",
    "ioa 1\nn 1\nrow 0 0\n",
    "ioa 1\nn 2\none 1\nrow 0 1 1\n",
    "ioa 1\nn 2\none 1\nrow 0 1 1\nrow 0 1 1\nrow 1 0 1\n",
])
def test_malformed_inputs_are_rejected(bad):
    kind = sniff_format(bad)
    with pytest.raises(ParseError):
        parse_olat(bad) if kind == "olat" else parse_ioa(bad)


def test_sniffing_unknown_headers():
    with pytest.raises(ParseError):
        sniff_format("hello 1\n")


@settings(max_examples=150, deadline=None)
@given(text=st.text(alphabet="olatin 0123456789\n#compler w", max_size=120))
def test_parsers_fail_only_with_parse_or_algebra_errors(text):
    for parse in (parse_olat, parse_ioa):
        try:
            parse(text)
        except (ParseError, AlgebraError):
            pass
