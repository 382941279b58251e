import pytest

import _helpers as h


@pytest.fixture(scope="session")
def middle_thirds():
    return h.make_ifs(h.middle_thirds_config())


@pytest.fixture(scope="session")
def four_corner():
    return h.make_ifs(h.four_corner_config())


@pytest.fixture(scope="session")
def line_ifs():
    return h.make_ifs(h.line_config())


@pytest.fixture(scope="session")
def heis_cantor():
    return h.make_ifs(h.heis_config())


@pytest.fixture(scope="session")
def heis_twisted():
    return h.make_ifs(h.heis_twisted_config())


@pytest.fixture(scope="session")
def heis_quarter():
    return h.make_ifs(h.heis_quarter_config())
