import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsio import EPWord, InputError, validate_word

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
    with pytest.raises(InputError):
        validate_word([float("inf")])
    with pytest.raises(InputError):
        validate_word([1, float("-inf")])


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
@given(letters, letters, st.integers(0, 6))
def test_prefix_letter_consistency(pre, period, n):
    w = EPWord(tuple(pre), tuple(period))
    assert w.prefix(n) == tuple(w.letter(i) for i in range(n))


def test_epword_config_round_trip():
    w = EPWord((2, 1), (1, 2, 2))
    assert EPWord.from_config(w.to_config()) == w
