"""Shared check for the library's validated records, which are named tuples."""

import pickle

import pytest

from sphstruve.errors import DomainError


def _rejects_on_every_path(good, **bad):
    """Each bad field raises DomainError through the constructor, keyword
    construction, `_replace`, `_make` and a pickle round trip; the process
    pool sends records by pickle, and a plain named tuple's `_make` (and so
    `_replace`) would skip the checks."""
    cls = type(good)
    fields = {**good._asdict(), **bad}
    values = list(fields.values())
    for build in (
        lambda: cls(*values),
        lambda: cls(**fields),
        lambda: good._replace(**bad),
        lambda: cls._make(values),
        lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, values))),
    ):
        with pytest.raises(DomainError):
            build()


@pytest.fixture
def rejects_on_every_path():
    return _rejects_on_every_path
