import math

import numpy as np
import pytest
from conftest import make_dataset

from v2vbeam.errors import EmptyDatasetError, TrainingDivergedError
from v2vbeam.geodata import GeoPosition, fit_normalization
from v2vbeam.ingest import SplitSpec, split
from v2vbeam.neuralbeam import (
    ConvBlockSpec,
    EpochRecord,
    LayerSpec,
    TrainingConfig,
    dataset_features,
    train,
    write_history,
)
from v2vbeam.synthchan import (
    ArrayConfig,
    ScenarioConfig,
    SyntheticChannelConfig,
    TrajectoryConfig,
    generate_scenario,
)

SMALL_SPEC = LayerSpec(
    in_channels=1,
    in_length=2,
    conv_blocks=(ConvBlockSpec(8, 3, 2), ConvBlockSpec(16, 3, 2)),
    dense_widths=(32, 64),
    classes=64,
)


@pytest.fixture(scope="module")
def synthetic_split():
    traj = TrajectoryConfig(
        duration=25.6,
        sample_period=0.1,
        origin=GeoPosition(33.42, -111.93),
        tx_waypoints=((-60.0, 20.0), (60.0, 50.0)),
        rx_waypoints=((0.0, 0.0),),
        rx_heading=math.pi / 2,
    )
    scenario = ScenarioConfig(traj, ArrayConfig(), SyntheticChannelConfig(seed=3))
    ds = generate_scenario(scenario).rows(slice(None))
    train_ds, val_ds, test_ds = (ds.rows(rows) for rows in split(len(ds), SplitSpec(seed=0)))
    norm = fit_normalization(train_ds.tx)
    return train_ds, val_ds, test_ds, norm


def fit(train_ds, val_ds, spec, cfg, norm, seed):
    """``train`` on the tx features and labels of two dataset parts."""
    return train(
        dataset_features(train_ds, norm), train_ds.best,
        dataset_features(val_ds, norm), val_ds.best, spec, cfg, seed,
    )


class TestDatasetFeatures:
    def test_tx_mode_shape(self, synthetic_split):
        train_ds, _, _, norm = synthetic_split
        x = dataset_features(train_ds, norm, "tx")
        assert x.shape == (len(train_ds), 1, 2)
        # training split normalizes into the unit square
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_both_mode_shape(self, synthetic_split):
        train_ds, _, _, norm = synthetic_split
        x = dataset_features(train_ds, norm, "both")
        assert x.shape == (len(train_ds), 1, 4)

    @pytest.mark.parametrize("mode", ["tx", "both"])
    def test_rows_give_the_features_of_the_gathered_rows(self, synthetic_split, mode):
        train_ds, _, _, norm = synthetic_split
        for rows in (np.array([5, 0, 17, 5]), slice(3, 40), np.arange(0)):
            got = dataset_features(train_ds, norm, mode, rows)
            assert got.tobytes() == dataset_features(train_ds.rows(rows), norm, mode).tobytes()
            assert got.shape == (len(train_ds.rows(rows)), 1, 2 if mode == "tx" else 4)

    def test_unknown_mode_rejected(self, synthetic_split):
        train_ds, _, _, norm = synthetic_split
        with pytest.raises(ValueError):
            dataset_features(train_ds, norm, "rx")


class TestTrain:
    def test_smoke_run_decreases_loss(self, synthetic_split):
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(epochs=2)
        _, history = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 0)
        assert len(history) == 2
        assert history[-1].train_loss < history[0].train_loss
        assert history[0].epoch == 1 and history[-1].epoch == 2

    def test_deterministic_under_seed(self, synthetic_split):
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(epochs=2)
        params_a, hist_a = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 11)
        params_b, hist_b = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 11)
        assert hist_a == hist_b
        for a, b in zip(params_a.arrays(), params_b.arrays()):
            assert np.array_equal(a, b)

    def test_zero_learning_rate_keeps_params_and_loss(self, synthetic_split):
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(learning_rate=0.0, epochs=3)
        params, history = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 2)
        from v2vbeam.neuralbeam import init_params

        fresh = init_params(SMALL_SPEC, np.random.default_rng(2))
        for a, b in zip(params.arrays(), fresh.arrays()):
            assert np.array_equal(a, b)
        losses = [h.train_loss for h in history]
        assert losses[0] == pytest.approx(losses[-1], rel=1e-12)

    def test_diverged_loss_raises_after_its_epoch(self, synthetic_split, caplog):
        # a loss far above a uniform guess's used to train on, through every epoch
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(learning_rate=1e6, epochs=4)
        with caplog.at_level("INFO"), pytest.raises(TrainingDivergedError, match="epoch 2: loss 25"):
            fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 1)
        # epoch 1 stayed below 2 ln 64 = 8.32, and no epoch ran after the second
        epochs = [r.message.split(":")[0] for r in caplog.records if r.name.endswith("training")]
        assert epochs == ["epoch 1", "epoch 2"]

    def test_non_finite_parameter_raises(self, synthetic_split, monkeypatch):
        from v2vbeam.neuralbeam import training

        train_ds, val_ds, _, norm = synthetic_split
        real_adam_step = training.adam_step

        def adam_step(params, *args):
            params.flat[0] = np.nan
            return real_adam_step(params, *args)

        monkeypatch.setattr(training, "adam_step", adam_step)
        with pytest.raises(TrainingDivergedError, match="parameters finite: False"):
            fit(train_ds, val_ds, SMALL_SPEC, TrainingConfig(epochs=1), norm, 1)

    def test_one_backward_and_one_adam_step_per_batch(self, synthetic_split, monkeypatch):
        # a tracer wraps these two module globals and reads the batch size as
        # the length of backward's fourth positional argument, the labels; the
        # fifth is the gradient buffer, the same one on every step
        from v2vbeam.neuralbeam import training

        train_ds, val_ds, _, norm = synthetic_split
        calls, buffers = [], set()
        real_backward, real_adam_step = training.backward, training.adam_step

        def backward(*args, **kwargs):
            calls.append(("backward", len(args), len(args[3]), sorted(kwargs)))
            buffers.add(id(args[4]))
            x, labels = args[2], args[3]
            assert labels.dtype.kind in "iu" and len(labels) == len(x)
            return real_backward(*args, **kwargs)

        def adam_step(*args, **kwargs):
            calls.append(("adam_step", len(args), None, sorted(kwargs)))
            return real_adam_step(*args, **kwargs)

        monkeypatch.setattr(training, "backward", backward)
        monkeypatch.setattr(training, "adam_step", adam_step)
        cfg = TrainingConfig(epochs=2, batch_size=50)
        fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 4)
        n = len(train_ds)
        sizes = [min(50, n - start) for start in range(0, n, 50)]
        per_epoch = []
        for size in sizes:
            per_epoch += [("backward", 5, size, []), ("adam_step", 4, None, [])]
        assert calls == per_epoch * cfg.epochs
        assert len(buffers) == 1

    def test_initial_loss_near_log_classes(self, synthetic_split):
        # bounded init keeps the first epoch close to the uniform-guess loss
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(epochs=1)
        _, history = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 5)
        assert abs(history[0].train_loss - math.log(64)) < 1.0

    def test_empty_train_set_rejected(self, synthetic_split):
        _, val_ds, _, norm = synthetic_split
        empty = make_dataset(np.empty((0, 64)))
        with pytest.raises(EmptyDatasetError):
            fit(empty, val_ds, SMALL_SPEC, TrainingConfig(epochs=1), norm, 0)

    def test_loss_drops_below_tenth_on_separable_task(self):
        # noiseless LOS, beams cleanly determined by position, >= 1k samples:
        # 30 epochs at the reference settings must cut the initialization
        # loss (~log 64) by more than 10x
        from v2vbeam.neuralbeam import forward_batch, init_params
        from v2vbeam.neuralbeam.layers import cross_entropy_batch
        from v2vbeam.neuralbeam.training import dataset_features

        traj = TrajectoryConfig(
            duration=400.0,
            sample_period=0.1,
            origin=GeoPosition(33.42, -111.93),
            tx_waypoints=((-10.0, 45.0), (10.0, 55.0)),
            rx_waypoints=((0.0, 0.0),),
            rx_heading=math.pi / 2,
        )
        ds = generate_scenario(
            ScenarioConfig(traj, ArrayConfig(), SyntheticChannelConfig(noise_power=0.0, seed=1))
        ).rows(slice(None))
        assert len(ds) >= 1000
        train_ds, val_ds, _ = (ds.rows(rows) for rows in split(len(ds), SplitSpec(seed=0)))
        norm = fit_normalization(train_ds.tx)
        spec = LayerSpec()
        cfg = TrainingConfig(epochs=30)

        init = init_params(spec, np.random.default_rng(0))
        x = dataset_features(train_ds, norm)
        y = train_ds.best
        initial_loss = cross_entropy_batch(forward_batch(init, spec, x), y)
        assert initial_loss == pytest.approx(math.log(64), abs=0.5)

        _, history = fit(train_ds, val_ds, spec, cfg, norm, 0)
        assert history[-1].train_loss < 0.1 * initial_loss


class TestHistoryIO:
    def test_round_trip(self, tmp_path, synthetic_split):
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(epochs=2)
        _, history = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 0)
        path = write_history(history, tmp_path / "history.csv")
        header, *lines = path.read_text().splitlines()
        assert header == "epoch,train_loss,val_top1"
        read = [line.split(",") for line in lines]
        assert [
            EpochRecord(int(epoch), float(loss), float(top1))
            for epoch, loss, top1 in read
        ] == history

    def test_deterministic_bytes(self, tmp_path, synthetic_split):
        train_ds, val_ds, _, norm = synthetic_split
        cfg = TrainingConfig(epochs=2)
        _, hist_a = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 4)
        _, hist_b = fit(train_ds, val_ds, SMALL_SPEC, cfg, norm, 4)
        a = write_history(hist_a, tmp_path / "a.csv").read_bytes()
        b = write_history(hist_b, tmp_path / "b.csv").read_bytes()
        assert a == b
