import inspect
import pickle

import pytest

from v2vbeam import errors

INSTANCES = [
    errors.V2VBeamError("generic failure"),
    errors.OutOfRangeError("tx_lat", 91.5),
    errors.DegenerateRangeError("lon"),
    errors.SchemaMismatchError("expected column p0"),
    errors.RowParseError(7, "could not convert 'x' to float"),
    errors.IndexMismatchError(12, 3, 5),
    errors.InvalidGeometryError("distance 0.5 m below reference"),
    errors.GeometryOutOfSectorError("tx behind the array"),
    errors.EmptyDatasetError("no samples"),
    errors.TrainingDivergedError("training diverged at epoch 1: loss 24.16"),
    errors.ShapeMismatchError("expected (128, 1, 2)"),
    errors.LengthMismatchError("3 predictions, 4 truths"),
    errors.ZeroGroundTruthPowerError("row 2"),
    errors.CodebookMismatchError("checkpoint predicts 64 beams, dataset has 32"),
    errors.ConfigError("m_values", "must be <= codebook size 64"),
]


def test_every_error_class_has_an_instance():
    classes = {
        cls for cls in vars(errors).values()
        if inspect.isclass(cls) and issubclass(cls, errors.V2VBeamError)
    }
    assert {type(e) for e in INSTANCES} == classes


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(exc):
    # an error raised in a worker process reaches the caller through pickle
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(exc, protocol))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        assert copy.args == exc.args
        assert vars(copy) == vars(exc)
