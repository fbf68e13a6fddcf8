"""The package's public surface."""

import pytest

import olmcheck

REMOVED = ["s_polynomial", "is_regular_element", "DivisionResult",
           "multivariate_division"]


def test_every_public_name_imports():
    # a name in __all__ that the package lacks fails the star import
    namespace = {}
    exec("from olmcheck import *", namespace)
    assert set(olmcheck.__all__) <= set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_do_not_import(name):
    assert name not in olmcheck.__all__
    with pytest.raises(ImportError):
        exec("from olmcheck import %s" % name, {})

