"""Fuzzing of the document entry points: every input either parses or
fails with a ValueError (which the command line reports with exit 1)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convmacw import FieldSpec
from convmacw.cli import CodeDocument
from convmacw.polymat import parse_zpoly

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8,
)
poly_text = st.text(alphabet="0123456789z^+[], -\t", max_size=24)
small_ints = st.integers(min_value=-3, max_value=10)

field_decl = st.one_of(
    json_values,
    st.fixed_dictionaries({"p": small_ints | json_values},
                          optional={"s": small_ints | json_values,
                                    "modulus": st.lists(small_ints, max_size=5)
                                    | json_values}),
)
generator = st.one_of(
    json_values,
    st.lists(st.lists(poly_text | json_values, min_size=0, max_size=3), max_size=3),
)
documents = st.one_of(
    json_values,
    st.fixed_dictionaries({"field": field_decl, "generator": generator},
                          optional={"label": json_values}),
)


def _parses_or_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@FUZZ
@given(documents)
def test_from_dict_parses_or_raises_value_error(data):
    _parses_or_value_error(CodeDocument.from_dict, data)


@pytest.mark.parametrize("spec", [(2,), (3,), (2, 2, [1, 1, 1])])
def test_parse_zpoly_parses_or_raises_value_error(spec):
    field = FieldSpec(*spec)

    @FUZZ
    @given(st.one_of(poly_text, st.text(max_size=24)))
    def check(text):
        _parses_or_value_error(parse_zpoly, text, field)

    check()


@pytest.mark.parametrize("spec", [(2,), (3,), (2, 2, [1, 1, 1])])
def test_digits_split_by_whitespace_raise_value_error(spec):
    """"1 2" is never 12: a digit, whitespace, then a digit is a parse
    error wherever it stands, in a coefficient, a digit list or an exponent."""
    field = FieldSpec(*spec)
    digit = st.sampled_from("0123456789")

    @FUZZ
    @given(poly_text, digit, st.text(alphabet=" \t\n\r\x0b\x0c", min_size=1, max_size=3),
           digit, poly_text)
    def check(before, a, space, b, after):
        with pytest.raises(ValueError):
            parse_zpoly(before + a + space + b + after, field)

    check()
