import pickle
import sys
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packidx.errors import ElementSyntaxError, GroupMismatchError, GroupSyntaxError, WindowTooLargeError
from packidx.groups import (
    CYCLIC,
    DEFAULT_MAX_VERTICES,
    INFINITE_CYCLIC,
    MAX_FACTORS,
    PRIME_DIGITS,
    PRIME_EXACT_BELOW,
    PRUFER,
    REPEATED_CYCLIC,
    Element,
    Factor,
    GroupSpec,
    Window,
    _is_prime,
    add_coord,
    count_coords,
    enumerate_window,
    format_element,
    format_group,
    neg_coord,
    parse_element,
    parse_group,
)

Z = parse_group("Z")
Z4Z2W = parse_group("Z_4 + Z_2^w")
P2 = parse_group("Prufer(2)")
P3 = parse_group("Prufer(3)")


class TestParser:
    def test_single_z(self):
        assert parse_group("Z").factors == (Factor(INFINITE_CYCLIC),)

    def test_mixed(self):
        assert Z4Z2W.factors == (Factor(CYCLIC, 4), Factor(REPEATED_CYCLIC, 2))

    def test_prufer(self):
        assert parse_group("Prufer(3)").factors == (Factor(PRUFER, 3),)

    def test_integer_repetition_expands(self):
        assert parse_group("Z_2^3").factors == (Factor(CYCLIC, 2),) * 3
        assert parse_group("Z^2").factors == (Factor(INFINITE_CYCLIC),) * 2

    def test_underscore_optional_and_whitespace_insensitive(self):
        assert parse_group("Z4+Z_2^w") == parse_group(" Z_4 + Z_2 ^ w ")

    @pytest.mark.parametrize("text, factors", [
        (" Z_4 + Z_2 ^ w ", (Factor(CYCLIC, 4), Factor(REPEATED_CYCLIC, 2))),
        ("Z\t+\tZ_3", (Factor(INFINITE_CYCLIC), Factor(CYCLIC, 3))),
        ("Z_2\n+\nPrufer(5)\n", (Factor(CYCLIC, 2), Factor(PRUFER, 5))),
        ("Z4", (Factor(CYCLIC, 4),)),
        ("Z 4", (Factor(CYCLIC, 4),)),
        ("Z _ 4", (Factor(CYCLIC, 4),)),
        ("Z_02", (Factor(CYCLIC, 2),)),
        ("Prufer ( 3 )", (Factor(PRUFER, 3),)),
        ("Z^2", (Factor(INFINITE_CYCLIC),) * 2),
        ("Z_2^3", (Factor(CYCLIC, 2),) * 3),
        ("Z_3 ^ 2 + Z", (Factor(CYCLIC, 3),) * 2 + (Factor(INFINITE_CYCLIC),)),
    ])
    def test_accepted_spellings(self, text, factors):
        assert parse_group(text).factors == factors

    @pytest.mark.parametrize("text, message, position", [
        ("Z_1", "modulus 1 must be >= 2", 2),
        ("Prufer(4)", "Prufer parameter 4 is not prime", 7),
        ("Z_2^0", "repetition must be >= 1 or 'w'", 4),
        ("Z^w", "countably repeated Z is not supported; 'w' needs a finite modulus", 2),
        ("Prufer(4", "Prufer parameter 4 is not prime", 7),
    ])
    def test_validation_errors(self, text, message, position):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    # one digit past the interpreter's limit on integer-string conversion
    @pytest.mark.parametrize("text, position", [
        ("Z_{}", 2), ("Z + Z_{}^2", 6), ("Z^{}", 2), ("Z_2^{}", 4), ("Prufer({})", 7), ("Prufer( {}", 8),
    ])
    def test_a_number_too_long_for_int_is_a_syntax_error(self, text, position):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text.format("7" * digits))
        assert str(err.value) == f"number of {digits} digits is too long (at position {position})"
        assert err.value.position == position

    # primes of up to PRIME_DIGITS digits; the 24-digit one is the largest
    # below 10^24 (it also passes 60 random Miller-Rabin bases)
    @pytest.mark.parametrize("p", [999983, 1000000000039, 2305843009213693951, 999999999999999999999743])
    def test_long_prime_parameters(self, p):
        assert parse_group(f"Prufer({p})").factors == (Factor(PRUFER, p),)

    # a strong pseudoprime to the bases 2..23, one to 2..37, and products of
    # primes with no factor below 999983
    @pytest.mark.parametrize("n", [
        3215031751, 3825123056546413051, 318665857834031151167461, 999983 * 1000000000039, "9" * 24,
    ])
    def test_long_composite_parameters(self, n):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(f"Prufer({n})")
        assert str(err.value) == f"Prufer parameter {int(n)} is not prime (at position 7)"

    @pytest.mark.parametrize("text, position, digits", [
        ("Prufer(1000000000000000000000007)", 7, PRIME_DIGITS + 1),
        ("Prufer( 0000000000000000000000002)", 8, PRIME_DIGITS + 1),
        ("Z + Prufer({})".format("3" * 30), 11, 30),
    ])
    def test_a_prufer_parameter_of_more_than_24_digits_is_a_syntax_error(self, text, position, digits):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text)
        assert str(err.value) == f"number of {digits} digits is too long (at position {position})"

    @pytest.mark.parametrize("form, factors", [
        ("Z + Z_{}", [Factor(INFINITE_CYCLIC), Factor(CYCLIC, 10**24 - 1)]),
        ("Z + Z_{}^2", [Factor(INFINITE_CYCLIC)] + [Factor(CYCLIC, 10**24 - 1)] * 2),
        ("Z + Z_{}^w", [Factor(INFINITE_CYCLIC), Factor(REPEATED_CYCLIC, 10**24 - 1)]),
    ])
    def test_a_modulus_of_24_digits_parses(self, form, factors):
        assert parse_group(form.format("9" * PRIME_DIGITS)).factors == tuple(factors)

    # refused at the modulus's first digit, in each form a modulus takes
    @pytest.mark.parametrize("text, position", [
        ("Z + Z_{}", 6), ("Z + Z_{}^2", 6), ("Z + Z_{}^w", 6), ("Z_ {}", 3), ("Z{}^w", 1),
    ])
    @pytest.mark.parametrize("digits", ["1" + "0" * PRIME_DIGITS, "0" * (PRIME_DIGITS - 1) + "02", "7" * 4000])
    def test_a_modulus_of_more_than_24_digits_is_a_syntax_error(self, text, position, digits):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text.format(digits))
        assert str(err.value) == f"number of {len(digits)} digits is too long (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("text, count", [
        ("Z^4096", 4096), ("Z_2^4095 + Z", 4096), ("Z_3^w + Z^4095", 4096), (" + ".join(["Z"] * 4096), 4096),
    ])
    def test_a_group_of_max_factors_parses(self, text, count):
        assert MAX_FACTORS == 4096
        assert len(parse_group(text).factors) == count

    # refused before the repetition is expanded, at the token that passes the cap
    @pytest.mark.parametrize("text, position", [
        ("Z^4097", 2), ("Z^10000000000", 2), ("Z_2^ 99999999999999999999", 5),
        ("Z + Z_2^4096", 8), ("Z_2^4096 + Z", 11), ("Z^4096 + Z_2^w", 9), (" + ".join(["Z"] * 4097), 4 * 4096),
    ])
    def test_more_than_max_factors_is_a_syntax_error(self, text, position):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text)
        assert str(err.value) == f"group has more than 4096 factors (at position {position})"
        assert err.value.position == position

    def test_prufer_factor_above_the_exact_prime_range(self):
        with pytest.raises(ValueError, match="below"):
            Factor(PRUFER, PRIME_EXACT_BELOW)
        with pytest.raises(ValueError, match="below"):
            Factor(PRUFER, 10**30 + 57)

    @pytest.mark.parametrize("text, position", [("Z_2 Z_3", 4), ("Z +", 3)])
    def test_syntax_error_positions(self, text, position):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["Z_15 ^", "Z_1^", "Z_1^wx", "Prufer(3", "Z + Prufer(3 + Z"])
    def test_a_bad_value_counts_only_in_a_factor_that_parses(self, text):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group(text)
        assert str(err.value).startswith("expected Z, Z_n, Z^k, Z_n^k, Z_n^w or Prufer(p)")

    @pytest.mark.parametrize("bad", ["Z_1", "Z_0", "Prufer(4)", "Prufer(1)", "Z^w",
                                     "", "   ", "Z +", "Q", "Z_2^0", "Z_2 Z_3"])
    def test_rejects(self, bad):
        with pytest.raises(GroupSyntaxError):
            parse_group(bad)

    def test_error_carries_position(self):
        with pytest.raises(GroupSyntaxError) as err:
            parse_group("Z_4 + Prufer(6)")
        assert err.value.position == 13

    def test_derived_flags(self):
        assert not Z.is_finite and Z.cardinality is None
        g = parse_group("Z_4 + Z_6")
        assert g.is_finite and g.cardinality == 24



def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if _trial_division(n)]


@given(st.integers(20000, 10**9))
def test_is_prime_matches_trial_division(n):
    assert _is_prime(n) == _trial_division(n)


# canonical factor lists for round-trip testing
_factor = st.one_of(
    st.just(Factor(INFINITE_CYCLIC)),
    st.integers(2, 12).map(lambda n: Factor(CYCLIC, n)),
    st.integers(2, 7).map(lambda n: Factor(REPEATED_CYCLIC, n)),
    st.sampled_from([2, 3, 5, 7]).map(lambda p: Factor(PRUFER, p)),
)
_group = st.lists(_factor, min_size=1, max_size=4).map(lambda fs: GroupSpec(tuple(fs)))


@given(_group)
def test_parse_format_round_trip(group):
    assert parse_group(format_group(group)) == group


# text drawn mostly from the DSL's own pieces, so that some of it parses
_dsl_text = st.lists(
    st.sampled_from(["Z", "Prufer", "_", "^", "+", "(", ")", "w", "0", "1", "2", "3", "4",
                     "9", " ", "\t", "\n", "x", "\u0663"]) | st.text(max_size=2),
    max_size=10,
).map("".join)


@given(_dsl_text)
def test_any_text_parses_or_names_a_position(text):
    try:
        group = parse_group(text)
    except GroupSyntaxError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert parse_group(format_group(group)) == group


class TestArithmetic:
    def test_cyclic_product(self):
        a = Z4Z2W.element(3, (1,))
        b = Z4Z2W.element(2, (1,))
        assert (a + b) == Z4Z2W.element(1, ())

    def test_prufer_negation(self):
        assert -P3.element((1, 1)) == P3.element((2, 1))

    def test_scalar(self):
        assert Z.element(2).scaled(3) == Z.element(6)

    def test_sub_matches_add_neg(self):
        a, b = Z4Z2W.element(3, (1, 1)), Z4Z2W.element(1, (0, 1))
        assert a - b == a + (-b)

    def test_mismatched_groups(self):
        with pytest.raises(GroupMismatchError):
            Z.element(1) + P2.element((1, 1))

    def test_prufer_carry(self):
        # 3/4 + 1/2 = 5/4 = 1/4 mod 1
        assert P2.element((3, 2)) + P2.element((1, 1)) == P2.element((1, 2))


class TestOrder:
    def test_order_in_product(self):
        for x in [(), (1,), (1, 1)]:
            assert Z4Z2W.element(1, x).order() == 4

    def test_zero_has_order_one(self):
        assert Z4Z2W.zero().order() == 1

    def test_infinite(self):
        assert Z.element(5).order() is None

    def test_prufer_order_is_level_power(self):
        assert P3.element((2, 2)).order() == 9

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_order_divides_exponent(self, a, b):
        e = parse_group("Z_6 + Z_8").element(a, b)
        assert 24 % e.order() == 0  # lcm(6, 8)


class TestEnumerate:
    def test_integers(self):
        w = Window.for_group(Z, 2)
        assert [str(e) for e in enumerate_window(w)] == ["0", "1", "-1", "2", "-2"]

    def test_product(self):
        g = parse_group("Z_2 + Z_2")
        out = [e.coords for e in enumerate_window(Window.for_group(g))]
        assert out == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_prufer_levels(self):
        w = Window.for_group(P2, prufer_level=2)
        assert [e.coords[0] for e in enumerate_window(w)] == [(0, 0), (1, 1), (1, 2), (3, 2)]

    def test_injective_and_stable(self):
        w = Window.for_group(Z4Z2W, repeated_m=2)
        first = list(enumerate_window(w))
        second = list(enumerate_window(w))
        assert first == second
        assert len({e.coords for e in first}) == len(first) == w.size()

    def test_output_is_sorted_by_canonical_key(self):
        w = Window.for_group(parse_group("Z + Z_3^w"), bound=2, repeated_m=2)
        out = list(enumerate_window(w))
        assert out == sorted(out, key=lambda e: e.sort_key())

    def test_window_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            Window.for_group(Z, 0)
        with pytest.raises(ValueError):
            Window(P2, (-1,))

    def test_window_contains_and_negation_closure(self):
        listed = set(enumerate_window(Window.for_group(Z4Z2W, repeated_m=2)))
        assert {-e for e in listed} == listed


# sampled group-law checks over several windows
_law_groups = st.sampled_from(
    [
        (Z, dict(bound=6)),
        (Z4Z2W, dict(repeated_m=2)),
        (P3, dict(prufer_level=2)),
        (parse_group("Z_5 + Z_3"), {}),
    ]
)


@settings(max_examples=60)
@given(_law_groups, st.data())
def test_abelian_group_laws(spec, data):
    group, kwargs = spec
    pool = list(enumerate_window(Window.for_group(group, **kwargs)))
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    c = data.draw(st.sampled_from(pool))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a + (-a)).is_zero()
    assert -(-a) == a



# one group of each kind, and mixed ones
_ARITHMETIC_GROUPS = [
    "Z", "Z_6", "Z_3^w", "Prufer(2)", "Prufer(3)", "Z + Z_4", "Z_2^w + Prufer(3)", "Z_5 + Z + Z_2^w + Prufer(2)",
]


@settings(max_examples=100)
@given(st.sampled_from(_ARITHMETIC_GROUPS), st.data())
def test_element_arithmetic_matches_coordinate_reference(text, data):
    group = parse_group(text)
    pool = list(enumerate_window(Window.for_group(group, bound=3, repeated_m=2, prufer_level=2)))
    a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    fs = group.factors
    assert (a + b).coords == tuple(add_coord(f, x, y) for f, x, y in zip(fs, a.coords, b.coords))
    assert (-a).coords == tuple(neg_coord(f, x) for f, x in zip(fs, a.coords))
    assert (a - b).coords == tuple(
        add_coord(f, x, neg_coord(f, y)) for f, x, y in zip(fs, a.coords, b.coords)
    )
    # elements of an equal group parsed apart still combine
    twin = parse_group(text)
    assert twin is not group and twin == group
    b2 = parse_element(twin, format_element(b))
    assert b2.group is twin
    assert (a + b2, b2 + a, a - b2, b2 - a) == (a + b, b + a, a - b, b - a)



def test_groups_and_elements_pickle():
    group = parse_group("Z_5 + Z + Z_2^w + Prufer(2)")
    e = group.element(3, -2, (1, 0, 1), (3, 2))
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and copy.group == group
    assert (copy + copy, -copy, copy - e) == (e + e, -e, group.zero())


@pytest.mark.parametrize(
    "text,element", [("Z_4 + Z_2^2", "(3,1,1)"), ("Z_3^w + Prufer(3)", "([2,0,1],2/3^2)"), ("Z", "-7")]
)
def test_group_hash_is_made_once_and_read_as_the_factors_hash(text, element):
    group, twin = parse_group(text), parse_group(text)
    assert group is not twin
    assert group == twin and hash(group) == hash(twin)
    copy = pickle.loads(pickle.dumps(group))
    assert copy == group and hash(copy) == hash(group)
    assert len({group, twin, copy}) == 1
    coords = parse_element(group, element).coords
    assert Element(group, coords) == Element(twin, coords) == Element(copy, coords)
    assert (parse_group("Z") == "Z") is False


@pytest.mark.parametrize(
    "text,kw,zs",
    [("Z + Z_4 + Z", {"bound": 3}, 2), ("Z_3^w + Prufer(3)", {"repeated_m": 2, "prufer_level": 2}, 0), ("Z_6", {}, 0)],
)
def test_fields_worked_out_once_take_no_part_in_equality(text, kw, zs):
    # a window's size and a group's count of Z factors are worked out when
    # each is made; equality and hashing still read the fields alone
    group, twin = parse_group(text), parse_group(text)
    assert group._z_factors == twin._z_factors == pickle.loads(pickle.dumps(group))._z_factors == zs
    window, again = Window.for_group(group, **kw), Window.for_group(twin, **kw)
    assert window is not again and window == again and hash(window) == hash(again)
    want = 1
    for f, b in zip(group.factors, window.bounds):
        want *= count_coords(f, b)
    assert window.size() == again.size() == want == len(list(enumerate_window(window)))
    window._families[1] = None  # a kept family changes neither
    assert window == again and hash(window) == hash(again)


@pytest.mark.parametrize(
    "text,kw,size",
    [
        ("Z_2^w", {"repeated_m": 10}, 1024),
        ("Prufer(2)", {"prufer_level": 10}, 1024),
        ("Z_32 + Z_32", {}, 1024),
        ("Z_2^w", {"repeated_m": 11}, 2048),
        ("Z_3^w", {"repeated_m": 11}, 3**11),
        ("Z + Z", {"bound": 20}, 41**2),
        ("Z", {"bound": 1024}, 2049),
        ("Z", {"bound": 1025}, None),
        ("Z_2^w", {"repeated_m": 12}, None),
        ("Prufer(3)", {"prufer_level": 12}, None),
        ("Z + Z", {"bound": 600}, None),
        ("Z_2^w + Z_3", {"repeated_m": 11}, None),
    ],
)
def test_a_window_count_is_formed_up_to_the_cap(text, kw, size):
    # a count is exact until it passes the cap with factors left, or meets a
    # Z radius past the cap or an exponent past its bit length, 11: then it
    # is not formed
    window = Window.for_group(parse_group(text), **kw)
    if size is not None and size <= DEFAULT_MAX_VERTICES:
        assert window.size() == size
        return
    with pytest.raises(WindowTooLargeError) as caught:
        window.size()
    assert caught.value.size == size
    assert str(caught.value).startswith("window has more than 1024" if size is None else f"window has {size} ")


class TestElementSyntax:
    @pytest.mark.parametrize(
        "group,text",
        [
            (Z, "-7"),
            (Z4Z2W, "(3,[1,1])"),
            (Z4Z2W, "(0,0)"),
            (P2, "3/2^2"),
            (P2, "1/2"),
            (P3, "0"),
        ],
    )
    def test_round_trip(self, group, text):
        e = parse_element(group, text)
        assert parse_element(group, format_element(e)) == e

    def test_canonicalizes(self):
        assert parse_element(Z4Z2W, "(7,[3,2])") == Z4Z2W.element(3, (1, 0))
        assert parse_element(P2, "2/2^2") == P2.element((1, 1))

    @pytest.mark.parametrize("bad", ["(1,2,3)", "x", "1/3", "(1)", "[1"])
    def test_rejects(self, bad):
        with pytest.raises(ElementSyntaxError):
            parse_element(Z4Z2W, bad)
