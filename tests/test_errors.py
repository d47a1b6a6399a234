"""Every DscatError survives pickling, as it must to cross from the worker
process that integrates c2 back to the caller."""

import pickle

import pytest

from dscat import errors

CLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.DscatError)
    ),
    key=lambda cls: cls.__name__,
)
SPECIAL = {
    errors.LanesFailed: ("sheet residual exceeded at z = 1j", [3, 7, 1023]),
    errors.VerificationFailed: (2, 1.25e-7),
}


def test_every_error_class_is_covered():
    assert errors.DscatError in CLASSES and errors.PathError in CLASSES
    assert set(SPECIAL) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = cls(*SPECIAL.get(cls, (f"{cls.__name__} at c = -1.526035",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_error_attributes_survive_pickling():
    lanes = pickle.loads(pickle.dumps(errors.LanesFailed("drift", [1, 2])))
    assert lanes.lanes == (1, 2)
    assert str(lanes) == "drift on lanes [1, 2]"
    closure = pickle.loads(pickle.dumps(errors.VerificationFailed(3, 0.5)))
    assert (closure.loop_index, closure.residual) == (3, 0.5)
