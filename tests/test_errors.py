"""The package exports exactly its version and the codec's error classes,
and those classes keep what they are raised with."""

import inspect

import nlic
from nlic import errors


def test_all_lists_version_and_every_error_class():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.NlicError)
               and obj.__module__ == errors.__name__}
    assert sorted(nlic.__all__) == sorted(defined | {"__version__"})
    for name in defined:
        assert getattr(nlic, name) is getattr(errors, name)


def test_training_diverged_copies_its_components():
    components = {"rate": float("inf")}
    err = errors.TrainingDiverged("loss is not finite", components)
    assert str(err) == "loss is not finite"
    assert err.components == components and err.components is not components
    components["rate"] = 0.0
    assert err.components == {"rate": float("inf")}
    assert errors.TrainingDiverged("loss is not finite").components == {}
