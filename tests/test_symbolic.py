import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsio import EPWord, InputError, concat, is_prefix, power, validate_word

letters = st.lists(st.integers(1, 3), min_size=1, max_size=8).map(tuple)


def test_validate_word():
    assert validate_word([1, 2, 1]) == (1, 2, 1)
    assert validate_word(()) == ()
    with pytest.raises(InputError):
        validate_word([0, 1])
    with pytest.raises(InputError):
        validate_word([1, 4], n_letters=3)
    with pytest.raises(InputError):
        validate_word([1.5])


def test_power():
    assert power((1, 2), 3) == (1, 2, 1, 2, 1, 2)
    assert power((1,), 0) == ()


def test_epword_validation():
    with pytest.raises(InputError):
        EPWord((), ())
    with pytest.raises(InputError):
        EPWord((0,), (1,))
    w = EPWord((2,), (1, 3))
    assert w.letter(0) == 2
    assert w.letter(1) == 1
    assert w.letter(2) == 3
    assert w.letter(3) == 1
    assert w.prefix(5) == (2, 1, 3, 1, 3)
    assert not w.is_periodic()
    assert EPWord((), (1,)).is_periodic()


@settings(max_examples=100, deadline=None)
@given(letters, st.integers(0, 10), st.integers(0, 10))
def test_shift_composes(period, n, m):
    w = EPWord((), period)
    one = w.shift(n).shift(m)
    two = w.shift(n + m)
    # shifted streams must agree letter by letter
    for i in range(2 * len(period) + 3):
        assert one.letter(i) == two.letter(i)


@settings(max_examples=100, deadline=None)
@given(letters, letters, st.integers(0, 6))
def test_prefix_concat_consistency(pre, period, n):
    w = EPWord(tuple(pre), tuple(period))
    assert w.prefix(n) == tuple(w.letter(i) for i in range(n))
    u = (1, 2)
    cat = concat(u, w)
    assert cat.prefix(len(u) + n) == u + w.prefix(n)


def test_is_prefix():
    w = EPWord((), (1, 2))
    assert is_prefix((), w)
    assert is_prefix((1, 2, 1), w)
    assert not is_prefix((2,), w)
    assert is_prefix((1,), (1, 2))
    assert not is_prefix((1, 2, 2), (1, 2))


def test_epword_config_round_trip():
    w = EPWord((2, 1), (1, 2, 2))
    assert EPWord.from_config(w.to_config()) == w
